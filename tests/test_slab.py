"""The slab kernel and the slab forms of encode, decode and repair.

Each slab path is checked bit for bit against a reference that shares
none of its maps: encoding against per-stripe ``encode`` of the message
matrix (the elimination oracle's, for systematic files), decoding against
the data and ``oracle_reconstruct``, a repaired column against the stored
one, and each helper rack's sent slab against the M1 symmetry identity.
"""

import functools
import random
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mbrr.cli import (
    bytes_to_symbols,
    decode_shards,
    encode_file,
    file_params,
    main,
    shard_filename,
    symbols_to_bytes,
)
from mbrr.encode import encode, encode_slabs
from mbrr.gf import binary_field, prime_field
from mbrr.layout import (
    IntegrityError,
    NodeId,
    all_nodes,
    fill_message_matrix,
    unfill_message_matrix,
)
from mbrr.linalg import dot, mat_vec, matmul
from mbrr.reconstruct import Decoder, oracle_reconstruct
from mbrr.repair import Repairer, rack_point
from mbrr import slab
from mbrr.slab import ListSlabKernel, SlabKernel
from mbrr.systematic import (
    read_systematic_data,
    systematic_message_matrix,
    systematic_nodes,
)
from support import PARAM_SETS, params

# ---------------------------------------------------------------- kernel


@pytest.mark.parametrize("m", [8, 16])
def test_split_join_round_trip(m):
    kernel = SlabKernel(binary_field(m))
    w = m // 8
    buf = random.Random(m).randbytes(w * 3 * 7)
    slabs = kernel.split(buf, 3)
    assert len(slabs) == 3 and all(len(s) == 7 * w for s in slabs)
    assert slabs[1][:w] == buf[w : 2 * w]  # slab 1 opens with symbol 1
    assert slabs[1][w : 2 * w] == buf[4 * w : 5 * w]  # then symbol 1 + 3
    assert kernel.join(slabs) == buf
    with pytest.raises(ValueError, match="equal slabs"):
        kernel.split(buf, 4)  # 21 symbols
    # pack and unpack convert between a slab and its big-endian symbols.
    symbols = [int.from_bytes(buf[i : i + w], "big") for i in range(0, len(buf), w)]
    assert kernel.unpack(buf) == symbols and kernel.pack(symbols) == buf


@pytest.mark.parametrize("m", [8, 16])
def test_apply_matches_field_arithmetic(m):
    f = binary_field(m)
    kernel = SlabKernel(f)
    rng = random.Random(600 + m)
    top = f.q - 1
    syms = [
        [rng.choice([0, 1, top, rng.randrange(f.q)]) for _ in range(11)]
        for _ in range(5)
    ]
    matrix = [[rng.choice([0, 1, top, rng.randrange(f.q)]) for _ in range(5)] for _ in range(4)]
    matrix.append([0] * 5)
    got = kernel.apply(matrix, [symbols_to_bytes(s, m) for s in syms])
    for row, slab in zip(matrix, got):
        want = []
        for pos in range(11):
            acc = 0
            for c, col in zip(row, syms):
                acc = f.add(acc, f.mul(c, col[pos]))
            want.append(acc)
        assert bytes_to_symbols(slab, m) == want


def test_apply_after_a_map_changes_in_place():
    """The kernel keeps nothing of a map between applies, only lane masks
    by slab length: a map changed in place gives exact products."""
    f = binary_field(16)
    kernel = SlabKernel(f)
    slabs = [kernel.pack([3, 0x8000, 0xFFFF]), kernel.pack([7, 1, 0xF006])]
    matrix = [[1, 1]]
    assert kernel.unpack(kernel.apply(matrix, slabs)[0]) == [3 ^ 7, 0x8001, 0xFFFF ^ 0xF006]
    matrix[0][:] = [0xFFFF, 0x8000]
    want = [f.add(f.mul(0xFFFF, a), f.mul(0x8000, b)) for a, b in zip(*map(kernel.unpack, slabs))]
    assert kernel.unpack(kernel.apply(matrix, slabs)[0]) == want


def test_gf16_multiply_covers_every_bit_and_overflow():
    """Each bit of a GF(2^16) constant picks its own doubling of the slab,
    and every doubling reduces the lanes whose top bit overflows."""
    f = binary_field(16)
    kernel = SlabKernel(f)
    constants = [1 << b for b in range(16)] + [0xFFFF, 0x8001, 0x5555]
    for length in (1, 3, 11):  # lane masks are kept per slab length
        syms = [0x8000, 0xFFFF, 1, 0x7FFF, 0xC3A5, 0x0100, 0, 0x8001, 2, 0xFFFE, 0x4000]
        syms = syms[:length]
        got = kernel.apply([[c] for c in constants], [symbols_to_bytes(syms, 16)])
        for c, slab in zip(constants, got):
            assert bytes_to_symbols(slab, 16) == [f.mul(c, s) for s in syms]


@functools.cache
def _overflow_lane(m):
    """The GF(2^m) symbol whose top bit is set before each of m doublings."""
    f = binary_field(m)
    for v in range(1, f.q):
        x = v
        for _ in range(m):
            if not x >> (m - 1):
                break
            x = f.mul(2, x)
        else:
            return v
    raise AssertionError(f"no GF(2^{m}) symbol overflows at every doubling")


@st.composite
def _apply_cases(draw):
    m = draw(st.sampled_from([8, 16]))
    q = 1 << m
    special = [0, 1, q - 1, 1 << (m - 1), _overflow_lane(m)]
    entry = st.one_of(st.sampled_from(special), st.integers(0, q - 1))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    lanes = draw(st.integers(1, 6))
    matrix = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = [0] * cols  # an all-zero row
    if draw(st.booleans()):
        dead = draw(st.integers(0, cols - 1))
        for row in matrix:
            row[dead] = 0  # an all-zero column
    syms = draw(st.lists(st.lists(entry, min_size=lanes, max_size=lanes), min_size=cols, max_size=cols))
    return m, matrix, syms


@settings(max_examples=150, deadline=None)
@given(_apply_cases(), st.integers(1, 6))
def test_apply_in_chunks_matches_field_arithmetic(case, chunk):
    """``apply`` equals f.mul/f.add lane by lane, including the constants
    q-1 and 2**(m-1) and lanes that overflow at every doubling, when slabs
    run in chunks of ``chunk`` symbols."""
    m, matrix, syms = case
    f = binary_field(m)
    kernel = SlabKernel(f)
    slabs = [kernel.pack(col) for col in syms]
    want = []
    for row in matrix:
        out = []
        for pos in range(len(syms[0])):
            acc = 0
            for c, col in zip(row, syms):
                acc = f.add(acc, f.mul(c, col[pos]))
            out.append(acc)
        want.append(out)
    with mock.patch.object(slab, "_CHUNK", chunk * kernel.width):
        assert [kernel.unpack(v) for v in kernel.apply(matrix, slabs)] == want


@pytest.mark.parametrize("m, size, chunks", [(8, 131072, 8), (16, 20000, 2)], ids=["8", "16"])
def test_every_map_runs_bit_serial_in_chunks(m, size, chunks):
    """Every map runs bit-serial over chunks of at most 16 KiB. At
    (12,7,3,3) a repair helper map is one row over 9 slabs. Over GF(2^8),
    131,072 lanes (a 2.5 MiB file) run as eight whole chunks: on a random
    1 x 9 map there, chunked bit-serial took 4.3 ms and the whole slab at
    once 7.2 ms. Over GF(2^16), 10,000 lanes (a 400,000-byte file) cross
    the chunk border once."""
    p = file_params(12, 7, 3, 3, m)
    kernel = SlabKernel(p.field)
    rep = Repairer(p, NodeId(1, 1))
    (helper,) = rep._helper_maps[rep.helpers[0]]
    assert len(helper) == 9
    rng = random.Random(630 + m)
    slabs = [rng.randbytes(size) for _ in helper]
    with mock.patch.object(slab, "_horner", wraps=slab._horner) as serial, mock.patch.object(
        kernel, "_lanes", wraps=kernel._lanes
    ) as masks:
        (got,) = kernel.apply([helper], slabs)
        lengths = [call.args[0] for call in masks.call_args_list]
    assert serial.call_count == len(lengths) == chunks
    assert lengths == [min(slab._CHUNK, size - lo) for lo in range(0, size, slab._CHUNK)]
    lists = ListSlabKernel(p.field)
    want = lists.apply([helper], [kernel.unpack(s) for s in slabs])[0]
    assert got == kernel.pack(want)


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError, match="GF"):
        SlabKernel(prime_field(13))
    with pytest.raises(ValueError, match="GF"):
        SlabKernel(binary_field(4))
    kernel = SlabKernel(binary_field(8))
    with pytest.raises(ValueError, match="length"):
        kernel.apply([[1, 1]], [b"ab", b"a"])
    with pytest.raises(ValueError, match="entries"):
        kernel.apply([[1]], [b"ab", b"cd"])
    # GF(2^16) bytes that are not whole two-byte symbols: refused, not cut.
    kernel = SlabKernel(binary_field(16))
    with pytest.raises(ValueError, match="whole symbols"):
        kernel.apply([[2]], [b"\x81\x02\x03"])
    with pytest.raises(ValueError, match="whole symbols"):
        kernel.split(b"\x81\x02\x03", 1)
    with pytest.raises(ValueError, match="whole symbols"):
        kernel.join([b"\x81\x02\x03"])


@pytest.mark.parametrize(
    "field", [binary_field(4), binary_field(8), prime_field(13), prime_field(29)], ids=repr
)
def test_list_slab_kernel_matches_field_arithmetic(field):
    kernel = ListSlabKernel(field)
    assert kernel.width == 1
    rng = random.Random(620 + field.q)
    top = field.q - 1
    for stripes in (0, 1, 9):
        slabs = [[rng.choice([0, 1, top, rng.randrange(field.q)]) for _ in range(stripes)] for _ in range(4)]
        matrix = [[rng.choice([0, 1, top, rng.randrange(field.q)]) for _ in range(4)] for _ in range(3)]
        matrix.append([0] * 4)
        got = kernel.apply(matrix, slabs)
        want = [[mat_vec(field, [row], list(col))[0] for col in zip(*slabs)] for row in matrix]
        if not stripes:
            want = [[] for _ in matrix]
        assert got == want
    assert kernel.apply([[]], []) == [[]]
    with pytest.raises(ValueError, match="length"):
        kernel.apply([[1, 1]], [[1, 2], [1]])
    with pytest.raises(ValueError, match="entries"):
        kernel.apply([[1]], [[1], [2]])


# ---------------------------------------------------------------- packed lanes


@st.composite
def _prime_cases(draw):
    q = draw(st.sampled_from([3, 13, 29, 257, 65537]))
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    rows, inputs, lanes = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    matrix = draw(st.lists(st.lists(entry, min_size=inputs, max_size=inputs), min_size=rows, max_size=rows))
    slabs = draw(st.lists(st.lists(entry, min_size=lanes, max_size=lanes), min_size=inputs, max_size=inputs))
    return q, matrix, slabs


@settings(max_examples=200, deadline=None)
@given(_prime_cases())
def test_packed_lanes_match_matmul(case):
    """Over GF(p) the packed kernel equals ``matmul``, on one-, two-,
    four- and eight-byte lanes, with zero rows, no rows and empty slabs."""
    q, matrix, slabs = case
    f = prime_field(q)
    assert ListSlabKernel(f).apply(matrix, slabs) == matmul(f, matrix, slabs)


@pytest.mark.parametrize("lanes", [0, 1, 9])
@pytest.mark.parametrize(
    "q, inputs, width",
    [(3, 63, 1), (3, 64, 2), (13, 1, 1), (13, 455, 2), (13, 456, 4), (257, 1, 4), (65537, 3, 8)],
)
def test_packed_lanes_at_their_borders(q, inputs, width, lanes):
    """The kernel packs in the narrowest lane that holds (q-1)**2 times the
    input count: over GF(13), 455 inputs fill two-byte lanes (65,520) and
    456 need four. Entries and symbols of q-1 make every lane sum reach
    that bound, so a lane one size too narrow would carry into the next."""
    f = prime_field(q)
    top = q - 1
    slabs = [[top] * lanes for _ in range(inputs)]
    if lanes:
        slabs[0][0] = 1
    matrix = [[top] * inputs, [0] * inputs, [1] * inputs, [top] + [0] * (inputs - 1)]
    with mock.patch.object(slab, "array", wraps=array) as packs:
        got = ListSlabKernel(f).apply(matrix, slabs)
    formats = {call.args[0] for call in packs.call_args_list}
    assert formats == ({dict(slab._LANES)[width]} if inputs else set())
    assert got == matmul(f, matrix, slabs)
    assert got[0][1:] == [top * top * inputs % q] * (lanes - 1)
    assert got[1] == [0] * lanes


class _LargePrimeStandIn:
    """GF(2**61 - 1) as far as ``matmul``'s prime branch reads it: ``q``."""

    q = characteristic = 2**61 - 1
    exp = log = None


@pytest.mark.parametrize(
    "field", [_LargePrimeStandIn(), binary_field(4), binary_field(8)], ids=["large-prime", "4", "8"]
)
def test_rows_outside_packed_lanes_run_matmul(field):
    """Only a row whose lane sums 8-byte lanes cannot hold (no field
    ``make_params`` picks has one) runs ``matmul``; binary fields run on
    packed lanes, with the exact product."""
    rng = random.Random(640)
    top = field.q - 1
    slabs = [[rng.choice([0, 1, top, rng.randrange(field.q)]) for _ in range(7)] for _ in range(5)]
    matrix = [[top] * 5, [rng.randrange(field.q) for _ in range(5)], [0] * 5]
    with mock.patch.object(slab, "matmul", wraps=slab.matmul) as products:
        got = ListSlabKernel(field).apply(matrix, slabs)
    assert products.call_count == (0 if field.characteristic == 2 else 1)
    if field.characteristic == 2:
        want = [[mat_vec(field, [row], list(col))[0] for col in zip(*slabs)] for row in matrix]
    else:
        want = [
            [sum(c * x for c, x in zip(row, col)) % field.q for col in zip(*slabs)] for row in matrix
        ]
    assert got == want


@st.composite
def _binary_cases(draw, m):
    q = 1 << m
    special = [0, 1, q - 1, 1 << (m - 1)] + ([_overflow_lane(m)] if m > 1 else [])
    entry = st.one_of(st.sampled_from(special), st.integers(0, q - 1))
    if draw(st.booleans()):
        entry = st.just(q - 1)  # every constant and symbol q - 1
    rows, inputs = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    lanes = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    matrix = draw(st.lists(st.lists(entry, min_size=inputs, max_size=inputs), min_size=rows, max_size=rows))
    if rows and draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = [0] * inputs  # an all-zero row
    slabs = draw(st.lists(st.lists(entry, min_size=lanes, max_size=lanes), min_size=inputs, max_size=inputs))
    return matrix, slabs


@pytest.mark.parametrize("m", range(1, 17))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_binary_list_slabs_match_matmul(m, data):
    """Over every GF(2^m) the list kernel equals ``matmul`` without calling
    it, on one-byte lanes up to m = 8 and two-byte lanes from m = 9, with
    constants and symbols of q-1, zero rows, and slabs of 0, 1 and many
    lanes."""
    matrix, slabs = data.draw(_binary_cases(m))
    f = binary_field(m)
    with mock.patch.object(slab, "matmul") as products, mock.patch.object(
        slab, "array", wraps=array
    ) as packs:
        got = ListSlabKernel(f).apply(matrix, slabs)
    assert not products.called
    assert {call.args[0] for call in packs.call_args_list} <= {"B" if m <= 8 else "H"}
    assert got == matmul(f, matrix, slabs)


# ---------------------------------------------------------------- maps


class ListKernel:
    """Reference kernel over any field: a slab is a tuple of field elements."""

    width = 1

    def __init__(self, field):
        self.field = field

    def apply(self, matrix, slabs):
        per_stripe = [mat_vec(self.field, matrix, list(vec)) for vec in zip(*slabs)]
        return [tuple(out[r] for out in per_stripe) for r in range(len(matrix))]


def helper_sent(p, target, helpers, messages):
    """What each helper rack must send toward rack ``target``, per stripe:
    phi_target . (M1 phi_e), the M1 symmetry identity, with phi_e the
    powers of rack e's point x_e."""
    f = p.field

    def phi(e):
        return [f.pow(rack_point(p, e), i) for i in range(p.dbar)]

    m1s = [M.m1() for M in messages]
    return {e: [dot(f, phi(target), mat_vec(f, m1, phi(e))) for m1 in m1s] for e in helpers}


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_slab_maps_in_every_field_kind(name):
    """The closed-form maps are field-generic: prime fields included."""
    p = params(name)
    rng = random.Random(610)
    kernel = ListKernel(p.field)
    vecs = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(4)]
    messages = [fill_message_matrix(p, vec) for vec in vecs]
    mats = [encode(M) for M in messages]
    nodes = list(all_nodes(p))
    columns = encode_slabs(kernel, p, list(zip(*vecs)))
    for node in nodes:
        assert columns[node] == list(zip(*(C.column(node) for C in mats)))
    ids = sorted(rng.sample(nodes, p.k))
    assert Decoder(p, ids).decode_slabs(kernel, columns) == list(zip(*vecs))
    for failed in nodes:
        rep = Repairer(p, failed)
        column, sent, _ = rep.repair_slabs(kernel, columns)
        assert column == columns[failed]
        want = helper_sent(p, failed.e, rep.helpers, messages)
        assert {e: list(slab) for e, slab in sent.items()} == want


# ---------------------------------------------------------------- property


@st.composite
def geometries(draw):
    """Admissible (n, k, u, dbar) whose u divides both 255 and 65535."""
    u = draw(st.sampled_from((3, 5)))
    nbar = draw(st.integers(2, 4 if u == 3 else 3))
    n = nbar * u
    k = draw(st.integers(u, n - 1))
    dbar = draw(st.integers(k // u, nbar - 1))
    return n, k, u, dbar


def per_stripe_messages(p, data, m, systematic, stripes):
    """Each stripe's message matrix; a systematic one from the elimination oracle."""
    symbols = bytes_to_symbols(data, m)
    symbols += [0] * (stripes * p.B - len(symbols))
    vecs = [symbols[s * p.B : (s + 1) * p.B] for s in range(stripes)]
    if systematic:
        return [systematic_message_matrix(p, vec) for vec in vecs]
    return [fill_message_matrix(p, vec) for vec in vecs]


def per_stripe_decode(p, ids, systematic, columns, stripes):
    """Per-stripe data from flat node columns through ``oracle_reconstruct``."""
    a = p.alpha
    out = []
    for s in range(stripes):
        obs = {n: columns[n][s * a : (s + 1) * a] for n in ids}
        M = oracle_reconstruct(p, obs)
        if systematic:
            out += read_systematic_data(p, encode(M).columns(systematic_nodes(p)))
        else:
            out += unfill_message_matrix(M)
    return out


@settings(max_examples=30, deadline=None)
@given(
    geo=geometries(),
    m=st.sampled_from((8, 16)),
    size=st.integers(1, 160),
    systematic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slab_paths_match_per_stripe_paths(geo, m, size, systematic, seed):
    rng = random.Random(seed)
    p = file_params(*geo, m)
    data = rng.randbytes(size)
    headers, payloads = encode_file(data, p, systematic)
    stripes = headers[0].stripe_count
    nodes = list(all_nodes(p))
    messages = per_stripe_messages(p, data, m, systematic, stripes)
    mats = [encode(M) for M in messages]
    flat = {node: [x for C in mats for x in C.column(node)] for node in nodes}
    for node, payload in zip(nodes, payloads):
        assert payload == symbols_to_bytes(flat[node], m)

    ids = sorted(rng.sample(nodes, p.k))
    loaded = {
        NodeId(h.e, h.g): (h, pl) for h, pl in zip(headers, payloads) if NodeId(h.e, h.g) in ids
    }
    want = per_stripe_decode(p, ids, systematic, flat, stripes)
    assert decode_shards(loaded) == symbols_to_bytes(want, m)[:size] == data

    failed = rng.choice(nodes)
    others = [e for e in range(p.nbar) if e != failed.e]
    helpers = sorted(rng.sample(others, p.dbar))
    kernel = SlabKernel(p.field)
    columns = {n: kernel.split(pl, p.alpha) for n, pl in zip(nodes, payloads) if n != failed}
    rep = Repairer(p, failed, helpers)
    column, sent, _ = rep.repair_slabs(kernel, columns)
    assert kernel.join(column) == payloads[nodes.index(failed)]
    want_sent = helper_sent(p, failed.e, helpers, messages)
    assert {e: bytes_to_symbols(slab, m) for e, slab in sent.items()} == want_sent


# ---------------------------------------------------------------- corruption


@pytest.mark.parametrize("systematic", [False, True])
def test_corrupt_symbol_outcome_matches_per_stripe_decoder(tmp_path, capsys, systematic):
    """Single flipped symbols in an exact-k set: the same error-or-bytes
    outcome as the elimination oracle."""
    p = file_params(12, 7, 3, 3)
    data = random.Random(605).randbytes(4 * p.B - 3)
    headers, payloads = encode_file(data, p, systematic)
    stripes = headers[0].stripe_count
    nodes = list(all_nodes(p))
    ids = nodes[1 : p.k] + nodes[-1:]  # a parity shard stands in for node (0, 0)
    paths = {}
    for h, payload in zip(headers, payloads):
        node = NodeId(h.e, h.g)
        if node in ids:
            paths[node] = tmp_path / shard_filename(*node)
            paths[node].write_bytes(h.pack() + payload)
    flat = {n: list(payloads[nodes.index(n)]) for n in ids}
    out = tmp_path / "out.bin"
    detected = 0
    for node in ids:
        clean = paths[node].read_bytes()
        for pos in range(len(flat[node])):
            bad = dict(flat)
            bad[node] = list(flat[node])
            bad[node][pos] ^= 0x5A
            try:
                want = bytes(per_stripe_decode(p, ids, systematic, bad, stripes))[: len(data)]
            except IntegrityError:
                want = None
            paths[node].write_bytes(clean[: -len(flat[node])] + bytes(bad[node]))
            rc = main(["decode", *map(str, paths.values()), "--out", str(out)])
            err = capsys.readouterr().err
            if want is None:
                assert rc == 2 and "error:" in err, (node, pos)
                detected += "symmetry violation" in err
            else:
                assert rc == 0 and out.read_bytes() == want, (node, pos)
        paths[node].write_bytes(clean)
    assert detected >= 1
