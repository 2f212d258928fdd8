"""The slab kernel and the slab forms of encode, decode and repair.

Each slab path is checked bit for bit against a reference that shares
none of its maps: encoding against per-stripe ``encode`` of the message
matrix (the elimination oracle's, for systematic files), decoding against
the data and ``oracle_reconstruct``, a repaired column against the stored
one, and each helper rack's sent slab against the M1 symmetry identity.
"""

import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mbrr.cli import main
from mbrr.shardfile import (
    bytes_to_symbols,
    decode_shards,
    encode_file,
    file_params,
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
    make_params,
    unfill_message_matrix,
)
from mbrr.linalg import dot, mat_vec, matmul
from mbrr.reconstruct import Decoder, oracle_reconstruct
from mbrr.repair import Repairer, rack_point
from mbrr import slab
from mbrr.slab import SlabKernel
from mbrr.systematic import (
    read_slabs,
    read_systematic_data,
    systematic_encode_slabs,
    systematic_message_matrix,
    systematic_nodes,
)
from support import PARAM_SETS, params, reference_join, reference_split

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
def _apply_cases(draw, degrees=(8, 16), max_rows=5, max_inputs=6):
    """A GF(2^m) map of up to ``max_rows`` rows over up to ``max_inputs``
    inputs, with 1-6 lanes per input, m one of ``degrees``."""
    m = draw(st.sampled_from(degrees))
    q = 1 << m
    special = [0, 1, q - 1, 1 << (m - 1), _overflow_lane(m)]
    entry = st.one_of(st.sampled_from(special), st.integers(0, q - 1))
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_inputs))
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
    (want,) = matmul(p.field, [helper], [kernel.unpack(s) for s in slabs])
    assert got == kernel.pack(want)


@settings(max_examples=200, deadline=None)
@given(_apply_cases(degrees=(4, 8, 16), max_rows=8, max_inputs=8), st.integers(1, 6))
def test_doubled_inputs_equals_horner_and_matmul(case, chunk):
    """``_doubled_inputs`` gives ``_horner``'s rows bit for bit on maps of
    1-8 rows over 1-8 inputs, so both sides of the rule are drawn. In
    chunks of ``chunk`` symbols, ``apply`` runs ``_doubled_inputs`` once
    per chunk exactly when the map has more rows than inputs, ``_horner``
    otherwise (ties included), and equals ``matmul``."""
    m, matrix, syms = case
    f = binary_field(m)
    kernel = SlabKernel(f)
    slabs = [kernel.pack(col) for col in syms]
    ints = [int.from_bytes(s, "big") for s in slabs]
    masks = kernel._lanes(len(slabs[0]))
    assert slab._doubled_inputs(m, masks, matrix, ints) == slab._horner(m, masks, matrix, ints)
    with mock.patch.object(slab, "_CHUNK", chunk * kernel.width), mock.patch.object(
        slab, "_horner", wraps=slab._horner
    ) as serial, mock.patch.object(slab, "_doubled_inputs", wraps=slab._doubled_inputs) as doubled:
        got = kernel.apply(matrix, slabs)
    runs = -(-len(syms[0]) // chunk)
    want_calls = (runs, 0) if len(matrix) > len(syms) else (0, runs)
    assert (doubled.call_count, serial.call_count) == want_calls
    assert [kernel.unpack(v) for v in got] == matmul(f, matrix, syms)


def test_only_the_plain_encode_map_doubles_inputs():
    """At (12,7,3,3) over GF(2^8) with 13,108 lanes (the stream-gf8 shape)
    the plain encode map, 36 rows over B = 20 inputs, runs
    ``_doubled_inputs`` and not ``_horner``. The decoder's k x (k + dbar -
    kbar) maps, the repair maps, the systematic encode with its map build,
    and the systematic read's decode and re-encode of one node have no more
    rows than inputs and run ``_horner`` only."""
    p = file_params(12, 7, 3, 3, 8)
    rng = random.Random(2613)
    data = [rng.randbytes(13108) for _ in range(p.B)]
    nodes = list(all_nodes(p))
    ids = nodes[1 : p.k] + nodes[-1:]  # the read re-encodes node (0, 0)
    failed = NodeId(1, 1)

    def schedules(run):
        """What ``run()`` returns, and how often each schedule ran."""
        with mock.patch.object(slab, "_horner", wraps=slab._horner) as serial, mock.patch.object(
            slab, "_doubled_inputs", wraps=slab._doubled_inputs
        ) as doubled:
            out = run()
        return out, serial.call_count, doubled.call_count

    columns, serial, doubled = schedules(lambda: encode_slabs(p, data))
    assert (serial, doubled) == (0, 1)
    survivors = {node: columns[node] for node in ids}
    decoded, serial, doubled = schedules(lambda: Decoder(p, ids).decode_slabs(survivors))
    assert decoded == data and serial > 0 and doubled == 0
    others = {node: col for node, col in columns.items() if node != failed}
    (column, _, _), serial, doubled = schedules(lambda: Repairer(p, failed).repair_slabs(others))
    assert column == columns[failed] and serial > 0 and doubled == 0

    def systematic_round_trip():
        stored = systematic_encode_slabs(p, data)
        return read_slabs(p, {node: stored[node] for node in ids}, True)

    read, serial, doubled = schedules(systematic_round_trip)
    assert read == data and serial > 0 and doubled == 0


@st.composite
def _group_cases(draw):
    """A field, a map, and groups of symbol lists of different lengths, over
    GF(2^8), GF(2^16), GF(13) and GF(2^4)."""
    field = draw(st.sampled_from([binary_field(8), binary_field(16), prime_field(13), binary_field(4)]))
    q = field.q
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    rows, inputs = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    matrix = draw(st.lists(st.lists(entry, min_size=inputs, max_size=inputs), min_size=rows, max_size=rows))
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))
    groups = [
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=inputs, max_size=inputs))
        for n in lengths
    ]
    return field, matrix, groups


@settings(max_examples=200, deadline=None)
@given(_group_cases(), st.integers(1, 6))
def test_apply_groups_equals_per_group_apply(case, chunk):
    """``apply_groups`` equals one ``apply`` per group, and ``matmul``, bit
    for bit: with chunks of ``chunk`` symbols the groups split into several
    runs, share runs, and run longer than a chunk; one group is ``apply``."""
    field, matrix, groups = case
    kernel = SlabKernel(field)
    slab_groups = [[kernel.pack(col) for col in group] for group in groups]
    with mock.patch.object(slab, "_CHUNK", chunk * kernel.width):
        got = kernel.apply_groups(matrix, slab_groups)
        assert got == [kernel.apply(matrix, group) for group in slab_groups]
    assert [[kernel.unpack(v) for v in out] for out in got] == [
        matmul(field, matrix, group) for group in groups
    ]


def test_apply_groups_lays_pieces_end_to_end():
    """With 4-symbol chunks, groups of 3, 1, 2, 9, 0 and 4 GF(2^16) symbols
    (19 symbols, 38 bytes) run end to end as 4 | 4 | 4 | 4 | 3 symbols: a
    run ends at every chunk, wherever a group ends. Per-group applies
    would make 7 runs."""
    f = binary_field(16)
    kernel = SlabKernel(f)
    rng = random.Random(640)
    matrix = [[rng.randrange(f.q) for _ in range(3)] for _ in range(2)]
    groups = [[rng.randbytes(2 * n) for _ in range(3)] for n in (3, 1, 2, 9, 0, 4)]
    with mock.patch.object(slab, "_CHUNK", 8), mock.patch.object(
        kernel, "_lanes", wraps=kernel._lanes
    ) as masks:
        got = kernel.apply_groups(matrix, groups)
        runs = [call.args[0] for call in masks.call_args_list]
        assert got == [kernel.apply(matrix, group) for group in groups]
    assert runs == [8, 8, 8, 8, 6]
    assert got[4] == [b"", b""]
    assert kernel.apply_groups(matrix, []) == []


@st.composite
def _layout_cases(draw):
    """A field, a map, and groups of random slabs of 0-40 symbols."""
    field = draw(st.sampled_from([binary_field(8), binary_field(16), prime_field(13), prime_field(257)]))
    rows, inputs = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    matrix = [[draw(st.integers(0, field.q - 1)) for _ in range(inputs)] for _ in range(rows)]
    width = SlabKernel(field).width
    rng = random.Random(draw(st.integers(0, 2**32)))
    lengths = draw(st.lists(st.integers(0, 40), max_size=5))
    groups = [[rng.randbytes(width * n) for _ in range(inputs)] for n in lengths]
    return field, matrix, groups


@settings(max_examples=150, deadline=None)
@given(_layout_cases(), st.integers(1, 12))
def test_apply_groups_runs_whole_chunks_end_to_end(case, chunk):
    """Over GF(2^8), GF(2^16), GF(13) and GF(257), groups totalling T bytes
    run as whole chunks of C bytes and one last piece, wherever the groups
    end, and give what one ``apply`` per group gives."""
    field, matrix, groups = case
    kernel = SlabKernel(field)
    C = chunk * kernel.width
    T = sum(len(group[0]) for group in groups)
    with mock.patch.object(slab, "_CHUNK", C):
        with mock.patch.object(kernel, "_run", wraps=kernel._run) as runs:
            got = kernel.apply_groups(matrix, groups)
        assert got == [kernel.apply(matrix, group) for group in groups]
    assert [len(call.args[1][0]) for call in runs.call_args_list] == [
        min(C, T - lo) for lo in range(0, T, C)
    ]


def test_apply_groups_edge_cases():
    """No groups give no outputs, and zero-length groups and a zero-length
    GF(p) apply give empty rows, all without a run. Each group is checked
    alone: two groups of one byte, or of unequal slabs, are refused over
    GF(2^16) though their slabs joined would be two equal whole symbols."""
    for field in (binary_field(16), prime_field(13)):
        kernel = SlabKernel(field)
        with mock.patch.object(kernel, "_run") as runs:
            assert kernel.apply_groups([[1, 2]], []) == []
            assert kernel.apply_groups([[1, 2]], [[b"", b""]] * 3) == [[b""]] * 3
            assert kernel.apply([[1, 2], [3, 4]], [b"", b""]) == [b"", b""]
        assert runs.call_count == 0
    kernel = SlabKernel(binary_field(16))
    with pytest.raises(ValueError, match="whole symbols"):
        kernel.apply_groups([[1, 2]], [[b"a", b"b"], [b"c", b"d"]])
    with pytest.raises(ValueError, match="differ in length"):
        kernel.apply_groups([[1, 2]], [[b"ab", b"abcd"], [b"abcd", b"ab"]])


@pytest.mark.parametrize(
    "geo, m, lanes, runs",
    [
        ((50, 44, 5, 8), 16, 51, [816]),
        ((50, 44, 5, 8), 16, 1500, [16384, 7616]),
        ((12, 7, 3, 3), 8, 13108, [13108, 16384, 9832]),
    ],
    ids=["gf16-51", "gf16-1500", "gf8-13108"],
)
def test_decode_runs_each_map_once_per_chunk(geo, m, lanes, runs):
    """``decode_slabs`` applies its two maps once each over all their
    message rows, so the bit-serial loop runs once per 16 KiB of row
    groups, not once per row. At (50,44,5,8) over GF(2^16) the 8 top rows
    (dbar = kbar) of 102-byte slabs fit one run, where per-row applies made
    8, and 3,000-byte slabs (24,000 bytes) run as 16,384 + 7,616 bytes. At
    (12,7,3,3) over GF(2^8) (the stream-gf8 shape) the 1 bottom row of
    13,108 bytes is one run and the 2 top rows (26,216 bytes) make two."""
    p = file_params(*geo, m)
    kernel = p.kernel
    rng = random.Random(lanes)
    data = [rng.randbytes(lanes * kernel.width) for _ in range(p.B)]
    columns = encode_slabs(p, data)
    nodes = list(all_nodes(p))
    dec = Decoder(p, nodes[1 : p.k] + nodes[-1:])
    with mock.patch.object(slab, "_horner", wraps=slab._horner) as serial, mock.patch.object(
        kernel, "_lanes", wraps=kernel._lanes
    ) as masks:
        got = dec.decode_slabs(columns)
        lengths = [call.args[0] for call in masks.call_args_list]
    assert got == data
    assert serial.call_count == len(runs) and lengths == runs


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError, match="no lane of at most 8 bytes"):
        SlabKernel(_HugePrimeStandIn())
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
    # Slabs of unequal length have no interleaving that split inverts, and
    # a buffer splits into at least one slab.
    with pytest.raises(ValueError, match="do not interleave"):
        kernel.join([b"abcd", b"ef"])
    kernel = SlabKernel(binary_field(8))
    with pytest.raises(ValueError, match="do not interleave"):
        kernel.join([b"ab", b"c"])
    with pytest.raises(ValueError, match="0 slabs"):
        kernel.split(b"abc", 0)


class _HugePrimeStandIn:
    """A prime field too large for 8-byte lanes, as far as ``SlabKernel``
    reads it: ``q``."""

    q = characteristic = 2**64 + 13


def test_shard_files_refuse_fields_without_framing():
    """The kernel takes every field; shard format v1 frames only GF(2^8)
    and GF(2^16), so the file layer refuses the others."""
    for geo, field in (((12, 7, 3, 3), binary_field(4)), ((12, 8, 2, 4), prime_field(13))):
        p = make_params(*geo, field=field)
        with pytest.raises(ValueError, match="GF"):
            encode_file(b"data", p)
    with pytest.raises(ValueError, match="GF"):
        bytes_to_symbols(b"data", 4)
    with pytest.raises(ValueError, match="GF"):
        symbols_to_bytes([1, 2], 4)


@pytest.mark.parametrize(
    "field, width",
    [
        (binary_field(4), 1),
        (binary_field(10), 2),
        (prime_field(13), 1),
        (prime_field(257), 2),
        (prime_field(65537), 4),
    ],
    ids=repr,
)
def test_symbol_width_follows_the_field(field, width):
    """A symbol takes the narrowest of 1, 2, 4 and 8 bytes that holds q-1,
    big-endian; slabs of 0 and q-1 symbols survive pack, split, join and
    unpack."""
    kernel = SlabKernel(field)
    assert kernel.width == width
    top = field.q - 1
    symbols = [0, top, top, 0, 1, top]
    buf = kernel.pack(symbols)
    assert buf == b"".join(s.to_bytes(width, "big") for s in symbols)
    slabs = kernel.split(buf, 2)
    assert [kernel.unpack(s) for s in slabs] == [symbols[0::2], symbols[1::2]]
    assert kernel.join(slabs) == buf and kernel.unpack(buf) == symbols
    assert kernel.unpack(kernel.pack([])) == []


@pytest.mark.parametrize(
    "field, width",
    [
        (binary_field(8), 1),
        (binary_field(16), 2),
        (prime_field(13), 1),
        (prime_field(257), 2),
        (prime_field(65537), 4),
    ],
    ids=repr,
)
def test_unit_lanes_are_packed_unit_vectors(field, width):
    """Slab j of ``unit_lanes(count)`` is ``pack`` of the unit vector e_j,
    at every lane width the precoding build meets."""
    kernel = SlabKernel(field)
    assert kernel.width == width
    for count in (1, 2, 7, 324):
        want = [kernel.pack([int(i == j) for i in range(count)]) for j in range(count)]
        assert kernel.unit_lanes(count) == want
    assert kernel.unit_lanes(0) == []


@pytest.mark.parametrize(
    "field", [binary_field(4), binary_field(8), prime_field(13), prime_field(29)], ids=repr
)
def test_list_slab_kernel_matches_field_arithmetic(field):
    """The cases the list-slab kernel ran, through byte slabs of one-byte
    symbols: slabs of 0, 1 and 9 stripes, constants and symbols of 0, 1
    and q-1, and an all-zero row."""
    kernel = SlabKernel(field)
    assert kernel.width == 1
    rng = random.Random(620 + field.q)
    top = field.q - 1
    for stripes in (0, 1, 9):
        syms = [[rng.choice([0, 1, top, rng.randrange(field.q)]) for _ in range(stripes)] for _ in range(4)]
        matrix = [[rng.choice([0, 1, top, rng.randrange(field.q)]) for _ in range(4)] for _ in range(3)]
        matrix.append([0] * 4)
        got = [kernel.unpack(v) for v in kernel.apply(matrix, [kernel.pack(s) for s in syms])]
        want = [[mat_vec(field, [row], list(col))[0] for col in zip(*syms)] for row in matrix]
        if not stripes:
            want = [[] for _ in matrix]
        assert got == want
    assert kernel.apply([[]], []) == [b""]
    with pytest.raises(ValueError, match="length"):
        kernel.apply([[1, 1]], [kernel.pack([1, 2]), kernel.pack([1])])
    with pytest.raises(ValueError, match="entries"):
        kernel.apply([[1]], [kernel.pack([1]), kernel.pack([2])])


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
    """Over GF(p) the packed kernel equals ``matmul``, on one-, two- and
    four-byte symbols, with zero rows, no rows and empty slabs."""
    q, matrix, syms = case
    f = prime_field(q)
    kernel = SlabKernel(f)
    got = kernel.apply(matrix, [kernel.pack(s) for s in syms])
    assert [kernel.unpack(v) for v in got] == matmul(f, matrix, syms)


def _apply_recording_lanes(kernel, matrix, slabs):
    """(output slabs, the accumulation lane width of each run) of one apply."""
    widths = []
    lane_width = slab._lane_width

    def record(top):
        widths.append(lane_width(top))
        return widths[-1]

    with mock.patch.object(slab, "_lane_width", record):
        return kernel.apply(matrix, slabs), widths


@pytest.mark.parametrize("lanes", [0, 1, 9])
@pytest.mark.parametrize(
    "q, inputs, width",
    [(3, 63, 1), (3, 64, 2), (13, 1, 1), (13, 455, 2), (13, 456, 4), (257, 1, 4), (65537, 3, 8)],
)
def test_packed_lanes_at_their_borders(q, inputs, width, lanes):
    """The cases sit at the borders of the lane a sum of field elements
    needs, ``width``, the narrowest that holds (q-1)**2 times the input
    count: over GF(13), 455 inputs fill two-byte lanes (65,520) and 456
    need four. The kernel sums in the narrowest lane that holds any byte
    content of its w-byte symbol lanes, (q-1) * (256**w - 1) times the
    input count, which is never narrower. Entries and symbols of q-1 make
    every lane sum reach the field-element bound, so a lane too narrow
    for it would carry into the next."""
    f = prime_field(q)
    kernel = SlabKernel(f)
    top = q - 1
    syms = [[top] * lanes for _ in range(inputs)]
    if lanes:
        syms[0][0] = 1
    matrix = [[top] * inputs, [0] * inputs, [1] * inputs, [top] + [0] * (inputs - 1)]
    got, widths = _apply_recording_lanes(kernel, matrix, [kernel.pack(s) for s in syms])
    framing = (q - 1) * (256**kernel.width - 1) * inputs
    lane = min(w for w in (1, 2, 4, 8) if framing < 256**w)
    assert lane >= width
    assert widths == ([lane] if lanes else [])
    got = [kernel.unpack(v) for v in got]
    assert got == matmul(f, matrix, syms)
    assert got[0][1:] == [top * top * inputs % q] * (lanes - 1)
    assert got[1] == [0] * lanes


@pytest.mark.parametrize(
    "q, inputs, lane",
    [(3, 128, 2), (3, 129, 4), (13, 21, 2), (13, 22, 4), (257, 256, 4), (257, 257, 8)],
)
def test_accumulation_lanes_hold_any_symbol_bytes(q, inputs, lane):
    """At the borders of (q-1) * (256**w - 1) times the input count, with
    every symbol lane at its largest byte content (not a field element),
    each lane's sum stays in its lane: the output is the sum reduced mod
    q, as ``matmul`` gives it for the same ints."""
    f = prime_field(q)
    kernel = SlabKernel(f)
    full = 256**kernel.width - 1
    syms = [[full, 1, full] for _ in range(inputs)]
    slabs = [b"".join(s.to_bytes(kernel.width, "big") for s in col) for col in syms]
    matrix = [[q - 1] * inputs, [1] * inputs]
    got, widths = _apply_recording_lanes(kernel, matrix, slabs)
    assert widths == [lane]
    assert [kernel.unpack(v) for v in got] == matmul(f, matrix, syms)


def test_non_field_symbol_stays_in_its_stripe():
    """A symbol that is not a field element changes only its own stripe's
    output. Over GF(13), 22 inputs of 255 under constant 12 sum to 67,320
    in the last lane (the least significant): a two-byte lane, enough for
    field elements ((q-1)**2 * 22 = 3,168), would carry into the lane
    before it. Over GF(2^4), high bits in a one-byte lane stay there."""
    f = prime_field(13)
    kernel = SlabKernel(f)
    rng = random.Random(650)
    syms = [[rng.randrange(13) for _ in range(5)] for _ in range(22)]
    slabs = [kernel.pack(col) + b"\xff" for col in syms]
    (got,) = kernel.apply([[12] * 22], slabs)
    assert kernel.unpack(got)[:5] == matmul(f, [[12] * 22], syms)[0]

    f = binary_field(4)
    kernel = SlabKernel(f)
    syms = [[rng.randrange(16) for _ in range(6)] for _ in range(4)]
    matrix = [[rng.randrange(1, 16) for _ in range(4)] for _ in range(3)]
    slabs = [kernel.pack(col) for col in syms]
    slabs[2] = slabs[2][:3] + bytes([slabs[2][3] | 0xF0]) + slabs[2][4:]
    want = matmul(f, matrix, syms)
    for row, out in zip(want, kernel.apply(matrix, slabs)):
        got = kernel.unpack(out)
        assert got[:3] + got[4:] == row[:3] + row[4:]


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
    kernel = SlabKernel(field)
    with mock.patch.object(slab, "matmul", wraps=slab.matmul) as products:
        got = [kernel.unpack(v) for v in kernel.apply(matrix, [kernel.pack(s) for s in slabs])]
    assert products.call_count == (0 if field.characteristic == 2 else 1)
    if field.characteristic == 2:
        want = [[mat_vec(field, [row], list(col))[0] for col in zip(*slabs)] for row in matrix]
    else:
        want = [
            [sum(c * x for c, x in zip(row, col)) % field.q for col in zip(*slabs)] for row in matrix
        ]
    assert got == want


# A field of each symbol width; the copies move lanes whatever their bytes.
_FIELD_OF_WIDTH = {
    1: binary_field(8),
    2: binary_field(16),
    4: prime_field(65537),
    8: _LargePrimeStandIn(),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_FIELD_OF_WIDTH)), st.integers(1, 6), st.integers(0, 9), st.data())
def test_split_join_match_the_reference(width, count, lanes, data):
    """``split`` and ``join`` give the bytes of the ``memoryview`` reference
    at every symbol width, with one slab and with empty slabs."""
    kernel = SlabKernel(_FIELD_OF_WIDTH[width])
    assert kernel.width == width
    size = width * count * lanes
    buf = data.draw(st.binary(min_size=size, max_size=size))
    slabs = kernel.split(buf, count)
    assert slabs == reference_split(kernel, buf, count)
    assert all(type(s) is bytes and len(s) == width * lanes for s in slabs)
    assert kernel.join(slabs) == reference_join(kernel, slabs) == buf
    assert kernel.join([]) == reference_join(kernel, []) == b""


# q, input counts, accumulation lane, narrowed by translate: acc * (q - 1)
# < 256 for GF(13) and for GF(127) on two-byte lanes (2 * 126 = 252), not
# for GF(131) on two-byte lanes (2 * 130 = 260), GF(127) on four, GF(257).
_NARROWING_CASES = [
    (13, (1, 21), 2, True),
    (13, (22, 30), 4, True),
    (127, (1, 2), 2, True),
    (131, (1, 1), 2, False),
    (127, (3, 8), 4, False),
    (257, (1, 6), 4, False),
]


@st.composite
def _narrowing_cases(draw):
    q, (lo, hi), lane, translate = draw(st.sampled_from(_NARROWING_CASES))
    inputs, rows, lanes = draw(st.integers(lo, hi)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    top = 256 ** (1 if q < 256 else 2) - 1  # the largest lane, not a field element
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    symbol = st.one_of(st.sampled_from([0, 1, q - 1, top]), st.integers(0, top))
    matrix = draw(st.lists(st.lists(entry, min_size=inputs, max_size=inputs), min_size=rows, max_size=rows))
    syms = draw(st.lists(st.lists(symbol, min_size=lanes, max_size=lanes), min_size=inputs, max_size=inputs))
    return q, lane, translate, matrix, syms


@settings(max_examples=300, deadline=None)
@given(_narrowing_cases())
def test_narrowing_sides_match_matmul(case):
    """Both sides of the narrowing rule equal ``matmul`` over the symbols'
    ints, with symbols that are not field elements (up to 0xFF in a
    one-byte lane): ``bytes.translate`` where acc * (q - 1) < 256 on
    one-byte symbols, ``% q`` (which reads the lanes with ``_lanes_of``)
    otherwise. Each case runs the side it names and builds tables only there."""
    q, lane, translate, matrix, syms = case
    f = prime_field(q)
    kernel = SlabKernel(f)
    slabs = [b"".join(x.to_bytes(kernel.width, "big") for x in col) for col in syms]
    with mock.patch.object(slab, "_lanes_of", wraps=slab._lanes_of) as modulo:
        got, widths = _apply_recording_lanes(kernel, matrix, slabs)
    assert widths == [lane] and modulo.called is not translate
    assert list(kernel._tables) == ([lane] if translate else [])
    assert [kernel.unpack(v) for v in got] == matmul(f, matrix, syms)


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
    """Over every GF(2^m) the kernel equals ``matmul`` without calling it,
    on one-byte lanes up to m = 8 and two-byte lanes from m = 9, with
    constants and symbols of q-1, zero rows, and slabs of 0, 1 and many
    lanes. These are the cases the list-slab kernel ran."""
    matrix, syms = data.draw(_binary_cases(m))
    kernel = SlabKernel(binary_field(m))
    assert kernel.width == (1 if m <= 8 else 2)
    slabs = [kernel.pack(s) for s in syms]
    with mock.patch.object(slab, "matmul") as products:
        got = [kernel.unpack(v) for v in kernel.apply(matrix, slabs)]
    assert not products.called
    assert got == matmul(kernel.field, matrix, syms)


# ---------------------------------------------------------------- maps


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
    kernel = p.kernel
    vecs = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(4)]
    messages = [fill_message_matrix(p, vec) for vec in vecs]
    mats = [encode(M) for M in messages]
    nodes = list(all_nodes(p))
    data = [kernel.pack(col) for col in zip(*vecs)]
    columns = encode_slabs(p, data)
    for node in nodes:
        assert columns[node] == [kernel.pack(row) for row in zip(*(C.column(node) for C in mats))]
    ids = sorted(rng.sample(nodes, p.k))
    assert Decoder(p, ids).decode_slabs(columns) == data
    for failed in nodes:
        rep = Repairer(p, failed)
        column, sent, _ = rep.repair_slabs(columns)
        assert column == columns[failed]
        want = helper_sent(p, failed.e, rep.helpers, messages)
        assert {e: kernel.unpack(slab) for e, slab in sent.items()} == want


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
    kernel = p.kernel
    columns = {n: kernel.split(pl, p.alpha) for n, pl in zip(nodes, payloads) if n != failed}
    rep = Repairer(p, failed, helpers)
    column, sent, _ = rep.repair_slabs(columns)
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
