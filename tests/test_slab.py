"""The slab kernel and the slab forms of encode, decode and repair.

Each slab path is checked bit for bit against the per-stripe structured
path it stands in for: ``encode``/``systematic_encode``,
``Decoder.reconstruct`` and ``Repairer.repair``.
"""

import random

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
from mbrr.linalg import mat_vec
from mbrr.reconstruct import Decoder
from mbrr.repair import Repairer, helper_symbol, rack_leading_vector
from mbrr.slab import ListSlabKernel, SlabKernel
from mbrr.systematic import read_systematic_data, systematic_encode, systematic_nodes
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


# ---------------------------------------------------------------- maps


class ListKernel:
    """Reference kernel over any field: a slab is a tuple of field elements."""

    def __init__(self, field):
        self.field = field

    def apply(self, matrix, slabs):
        per_stripe = [mat_vec(self.field, matrix, list(vec)) for vec in zip(*slabs)]
        return [tuple(out[r] for out in per_stripe) for r in range(len(matrix))]


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_slab_maps_in_every_field_kind(name):
    """The closed-form maps are field-generic: prime fields included."""
    p = params(name)
    rng = random.Random(610)
    kernel = ListKernel(p.field)
    vecs = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(4)]
    mats = [encode(fill_message_matrix(p, vec)) for vec in vecs]
    nodes = list(all_nodes(p))
    columns = encode_slabs(kernel, p, list(zip(*vecs)))
    for node in nodes:
        assert columns[node] == list(zip(*(C.column(node) for C in mats)))
    ids = sorted(rng.sample(nodes, p.k))
    assert Decoder(p, ids).decode_slabs(kernel, columns) == list(zip(*vecs))
    for failed in nodes:
        rep = Repairer(p, failed)
        column, _ = rep.repair_slabs(kernel, columns)
        want = [rep.repair({n: C.column(n) for n in nodes if n != failed})[0] for C in mats]
        assert column == list(zip(*want))


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


def per_stripe_matrices(p, data, m, systematic, stripes):
    symbols = bytes_to_symbols(data, m)
    symbols += [0] * (stripes * p.B - len(symbols))
    vecs = [symbols[s * p.B : (s + 1) * p.B] for s in range(stripes)]
    if systematic:
        return [systematic_encode(p, vec) for vec in vecs]
    return [encode(fill_message_matrix(p, vec)) for vec in vecs]


def per_stripe_decode(p, dec, systematic, columns, stripes):
    """The per-stripe Decoder on flat node columns, as the CLI used to run it."""
    a = p.alpha
    out = []
    for s in range(stripes):
        obs = {n: columns[n][s * a : (s + 1) * a] for n in dec.ids}
        M = dec.reconstruct(obs)
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
    mats = per_stripe_matrices(p, data, m, systematic, stripes)
    flat = {node: [x for C in mats for x in C.column(node)] for node in nodes}
    for node, payload in zip(nodes, payloads):
        assert payload == symbols_to_bytes(flat[node], m)

    ids = sorted(rng.sample(nodes, p.k))
    loaded = {
        NodeId(h.e, h.g): (h, pl) for h, pl in zip(headers, payloads) if NodeId(h.e, h.g) in ids
    }
    want = per_stripe_decode(p, Decoder(p, ids), systematic, flat, stripes)
    assert decode_shards(loaded) == symbols_to_bytes(want, m)[:size] == data

    failed = rng.choice(nodes)
    others = [e for e in range(p.nbar) if e != failed.e]
    helpers = sorted(rng.sample(others, p.dbar))
    kernel = SlabKernel(p.field)
    columns = {n: kernel.split(pl, p.alpha) for n, pl in zip(nodes, payloads) if n != failed}
    rep = Repairer(p, failed, helpers)
    column, sent = rep.repair_slabs(kernel, columns)
    want_col = []
    want_sent = {e: [] for e in helpers}
    for C in mats:
        col, _ = rep.repair({n: C.column(n) for n in nodes if n != failed})
        want_col += col
        for e in helpers:
            rack = C.columns([NodeId(e, g) for g in range(p.u)])
            want_sent[e].append(helper_symbol(p, failed.e, rack_leading_vector(p, e, rack)).value)
    assert kernel.join(column) == symbols_to_bytes(want_col, m) == payloads[nodes.index(failed)]
    assert {e: bytes_to_symbols(slab, m) for e, slab in sent.items()} == want_sent


# ---------------------------------------------------------------- corruption


@pytest.mark.parametrize("systematic", [False, True])
def test_corrupt_symbol_outcome_matches_per_stripe_decoder(tmp_path, capsys, systematic):
    """Single flipped symbols in an exact-k set: same error-or-bytes outcome."""
    p = file_params(12, 7, 3, 3)
    data = random.Random(605).randbytes(4 * p.B - 3)
    headers, payloads = encode_file(data, p, systematic)
    stripes = headers[0].stripe_count
    nodes = list(all_nodes(p))
    ids = nodes[1 : p.k] + nodes[-1:]  # a parity shard stands in for node (0, 0)
    dec = Decoder(p, ids)
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
                want = bytes(per_stripe_decode(p, dec, systematic, bad, stripes))[: len(data)]
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
