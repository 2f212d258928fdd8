import hashlib
import random
import sys
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import mbrr.repair
import mbrr.slab
import mbrr.systematic
from mbrr.check import check_code
from mbrr.cli import main
from mbrr.cluster import Cluster
from mbrr.encode import encode, encode_slabs
from mbrr.gf import binary_field, prime_field
from mbrr.layout import (
    NodeId,
    all_nodes,
    fill_message_matrix,
    make_params,
    unfill_message_matrix,
)
from mbrr.linalg import mat_vec, solve_linear
from mbrr.reconstruct import Decoder, reconstruct
from mbrr.repair import repair_node
from mbrr.shardfile import encode_file
from mbrr.systematic import (
    precoding_matrix,
    read_systematic_data,
    systematic_encode,
    systematic_encode_map,
    systematic_encode_slabs,
    systematic_layout,
    systematic_message_matrix,
    systematic_nodes,
    systematic_slabs,
)

from support import PARAM_SETS, SLAB_CASES, case_params, coded_columns, params, random_stripe


def test_layout_counts():
    for name in PARAM_SETS:
        p = params(name)
        lay = systematic_layout(p)
        assert len(lay.data_positions) == p.B
        assert len(lay.redundant_positions) == p.kbar * (p.kbar - 1) // 2
        cells = set(lay.data_positions) | set(lay.redundant_positions)
        assert len(cells) == p.k * p.dbar  # disjoint, covering the k columns
        assert len(systematic_nodes(p)) == p.k


def test_layout_reference_geometry():
    """kbar = 2 leaves exactly one derived cell: the middle row of the last
    node in rack 0."""
    p = params("reference")
    lay = systematic_layout(p)
    assert lay.redundant_positions == ((1, NodeId(0, 2)),)
    # column-major placement over the first k nodes, skipping that cell
    want = []
    for node in systematic_nodes(p):
        for i in range(p.dbar):
            if (i, node) != (1, NodeId(0, 2)):
                want.append((i, node))
    assert list(lay.data_positions) == want


def test_data_lands_uncoded():
    rng = random.Random(300)
    for name in PARAM_SETS:
        p = params(name)
        lay = systematic_layout(p)
        for _ in range(3):
            data = random_stripe(p, rng)
            C = systematic_encode(p, data)
            placed = [C.column(node)[i] for i, node in lay.data_positions]
            assert placed == data
            assert read_systematic_data(p, coded_columns(C)) == data


def test_read_requires_all_systematic_columns():
    p = params("reference")
    rng = random.Random(301)
    C = systematic_encode(p, random_stripe(p, rng))
    cols = coded_columns(C)
    del cols[NodeId(0, 0)]
    with pytest.raises(ValueError, match="missing"):
        read_systematic_data(p, cols)


def test_systematic_matrix_is_well_formed():
    rng = random.Random(302)
    for name in PARAM_SETS:
        p = params(name)
        data = random_stripe(p, rng)
        M = systematic_message_matrix(p, data)
        # round-trips through the plain fill layout like any message matrix
        assert fill_message_matrix(p, unfill_message_matrix(M)).rows == M.rows
    with pytest.raises(ValueError, match="symbols"):
        systematic_message_matrix(params("reference"), [0] * 3)
    with pytest.raises(ValueError, match="element"):
        systematic_message_matrix(params("reference"), [99] * 20)
    # The precoding fast path checks its input the same way.
    with pytest.raises(ValueError, match="symbols"):
        systematic_encode(params("reference"), [0] * 3)
    with pytest.raises(ValueError, match="element"):
        systematic_encode(params("reference"), [99] * 20)
    with pytest.raises(ValueError, match="element"):
        systematic_encode(params("reference"), [True] + [0] * 19)


def test_systematic_code_reconstructs_from_any_subset():
    rng = random.Random(303)
    p = params("pairs")
    data = random_stripe(p, rng)
    C = systematic_encode(p, data)
    cols = coded_columns(C)
    nodes = list(all_nodes(p))
    for picks in combinations(nodes, p.k):
        M = reconstruct(p, {x: cols[x] for x in picks})
        assert read_systematic_data(p, encode(M).columns(systematic_nodes(p))) == data


def test_systematic_code_repairs_every_node():
    rng = random.Random(304)
    for name in ("reference", "quads"):
        p = params(name)
        data = random_stripe(p, rng)
        C = systematic_encode(p, data)
        cols = coded_columns(C)
        for failed in all_nodes(p):
            column, ledger = repair_node(p, C, failed)
            assert column == cols[failed]
            assert ledger.cross_rack_symbols == p.dbar * p.beta


def test_data_to_matrix_map_is_linear():
    rng = random.Random(305)
    for name in ("reference", "quads"):
        p = params(name)
        f = p.field
        for _ in range(5):
            a = random_stripe(p, rng)
            b = random_stripe(p, rng)
            c = rng.randrange(1, f.q)
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(a, b)]
            Ma = unfill_message_matrix(systematic_message_matrix(p, a))
            Mb = unfill_message_matrix(systematic_message_matrix(p, b))
            Mc = unfill_message_matrix(systematic_message_matrix(p, combo))
            assert Mc == [f.add(x, f.mul(c, y)) for x, y in zip(Ma, Mb)]


def test_precoding_matrix_reproduces_transform():
    rng = random.Random(306)
    for name in ("reference", "pairs"):
        p = params(name)
        P = precoding_matrix(p)
        assert len(P) == p.B and all(len(row) == p.B for row in P)
        for _ in range(3):
            data = random_stripe(p, rng)
            slots = unfill_message_matrix(systematic_message_matrix(p, data))
            assert mat_vec(p.field, P, data) == slots
            # invertible: the data comes back out of the slot vector
            assert solve_linear(p.field, P, slots) == data


def test_precoded_encode_matches_systematic_encode():
    """The precoding fast path agrees with the structured transform."""
    rng = random.Random(307)
    for name in PARAM_SETS:
        p = params(name)
        for _ in range(3):
            data = random_stripe(p, rng)
            want = encode(systematic_message_matrix(p, data)).rows
            assert systematic_encode(p, data).rows == want


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(SLAB_CASES),
    lanes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_systematic_slabs_match_oracle_lane_by_lane(case, lanes, seed):
    geo, field = case
    p = make_params(*geo, field=field)
    rng = random.Random(seed)
    data = [random_stripe(p, rng) for _ in range(lanes)]
    want = [unfill_message_matrix(systematic_message_matrix(p, lane)) for lane in data]
    kernel = p.kernel
    slabs = [kernel.pack([lane[j] for lane in data]) for j in range(p.B)]
    slots = [kernel.unpack(slab) for slab in systematic_slabs(p, slabs)]
    assert [[slot[lane] for slot in slots] for lane in range(lanes)] == want
    # Encoding the slot slabs stores the data slabs verbatim.
    stored = encode_slabs(p, [kernel.pack(slot) for slot in slots], systematic_nodes(p))
    for slab, (i, node) in zip(slabs, systematic_layout(p).data_positions):
        assert stored[node][i] == slab


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(SLAB_CASES),
    stripes=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_systematic_encode_slabs_match_two_step_path(case, stripes, seed):
    """One map over the data slabs equals precoding then ``encode_slabs``,
    and the per-stripe ``systematic_encode`` of every stripe."""
    p = case_params(case)
    rng = random.Random(seed)
    data = [random_stripe(p, rng) for _ in range(stripes)]
    P = precoding_matrix(p)
    want = [systematic_encode(p, stripe) for stripe in data]
    kernel = p.kernel
    slabs = [kernel.pack([stripe[j] for stripe in data]) for j in range(p.B)]
    got = systematic_encode_slabs(p, slabs)
    assert got == encode_slabs(p, kernel.apply(P, slabs))
    for node, column in got.items():
        rows = [kernel.unpack(slab) for slab in column]
        assert [[row[s] for row in rows] for s in range(stripes)] == [C.column(node) for C in want]


def test_systematic_encode_map_covers_the_non_data_cells():
    for case in SLAB_CASES:
        p = case_params(case)
        cells, matrix = systematic_encode_map(p)
        data = set(systematic_layout(p).data_positions)
        assert len(cells) == len(set(cells)) == p.n * p.alpha - p.B
        assert not data & set(cells)
        assert len(matrix) == len(cells) and all(len(row) == p.B for row in matrix)
    p = params("reference")
    with pytest.raises(ValueError, match="expected 20 data slabs"):
        systematic_encode_slabs(p, [b"\0"] * 19)


def kernel_applies(p, run):
    """``run()`` and the (rows, nonzero entries, slabs) of every apply it
    made on the params' kernel."""
    with mock.patch.object(p.kernel, "apply", wraps=p.kernel.apply) as spy:
        got = run()
    calls = [call.args for call in spy.call_args_list]
    return got, [(len(m), sum(1 for row in m for c in row if c), slabs) for m, slabs in calls]


def test_encode_file_systematic_runs_one_map_over_non_data_cells():
    """At (50,44,5,8) over GF(2^16) the systematic encode builds its map by
    one apply of the 76 non-data cells' generator rows (3,344 nonzero
    coefficients), then applies that 76 x 324 map, with 10,484 nonzero
    coefficients, to the data slabs, where precoding then encoding every
    row applied 45,654 + 17,600; every data cell's slab is the input slab
    itself."""
    p = make_params(50, 44, 5, 8, field=binary_field(16))
    precoding_matrix(p)
    data = random.Random(310).randbytes(2 * p.B * 3)
    slabs = p.kernel.split(data, p.B)
    columns, applied = kernel_applies(p, lambda: systematic_encode_slabs(p, slabs))
    assert [(rows, products) for rows, products, _ in applied] == [(76, 3344), (76, 10484)]
    assert applied[1][2] is slabs
    for slab, (i, node) in zip(slabs, systematic_layout(p).data_positions):
        assert columns[node][i] is slab

    two_step, applied = kernel_applies(
        p, lambda: encode_slabs(p, p.kernel.apply(precoding_matrix(p), slabs))
    )
    assert two_step == columns
    assert sum(products for _, products, _ in applied) == 45654 + 17600

    # encode_file builds the map (one apply over slabs of B two-byte lanes),
    # then makes the same single apply over the data.
    (headers, payloads), applied = kernel_applies(p, lambda: encode_file(data, p, systematic=True))
    assert [(rows, len(slabs[0])) for rows, _, slabs in applied] == [(76, 2 * p.B), (76, 6)]
    assert applied[1][1] == 10484
    assert dict(zip(((h.e, h.g) for h in headers), payloads)) == {
        node: p.kernel.join(column) for node, column in columns.items()
    }


def test_systematic_encode_map_is_one_apply():
    """At (50,44,5,8) over GF(2^16) the map build is one apply of the 76
    non-data cells' generator rows over the 324 precoding rows as slabs."""
    p = make_params(50, 44, 5, 8, field=binary_field(16))
    precoding_matrix(p)
    (cells, matrix), applied = kernel_applies(p, lambda: systematic_encode_map(p))
    shapes = [(rows, len(slabs)) for rows, _, slabs in applied]
    assert shapes == [(p.n * p.alpha - p.B, p.B)] == [(76, 324)]
    assert len(cells) == len(matrix) == 76


def test_only_encode_file_calls_precoding_matrix(monkeypatch):
    """The systematic encode builds its map from the params alone: a
    systematic ``Cluster.store_data`` and ``check_code`` call
    ``precoding_matrix`` in no module that binds it, and
    ``encode_file(..., systematic=True)`` calls it once, before the map."""
    events = []
    original = mbrr.systematic.precoding_matrix
    build_map = mbrr.systematic.systematic_encode_map

    def counted(p):
        events.append("precoding")
        return original(p)

    def logged(p):
        events.append("map")
        return build_map(p)

    for name, module in list(sys.modules.items()):
        if (name == "mbrr" or name.startswith("mbrr.")) and hasattr(module, "precoding_matrix"):
            monkeypatch.setattr(module, "precoding_matrix", counted)
    monkeypatch.setattr(mbrr.systematic, "systematic_encode_map", logged)
    rng = random.Random(311)

    p = make_params(12, 7, 3, 3, field=binary_field(8))
    cluster = Cluster(p, systematic=True)
    data = [random_stripe(p, rng) for _ in range(4)]
    cluster.store_data(data)
    assert cluster.read_data() == data
    assert events == ["map"]

    events.clear()
    assert check_code(make_params(12, 7, 3, 3, field=binary_field(8)), rng) is None
    assert events == ["map"]

    events.clear()
    encode_file(rng.randbytes(300), make_params(12, 7, 3, 3, field=binary_field(8)), systematic=True)
    assert events == ["precoding", "map"]


def test_precoding_build_runs_each_grouped_map_once_per_chunk():
    """At (50,44,5,8) over GF(2^16) the precoding build (324-lane slabs,
    648 bytes) runs the bit-serial loop 24 times: one run per rack in step
    1 (36 rows), none in step 2 (dbar = kbar), one per row in step 3 (8),
    one per rack e in step 4 (28 rows) and one for the decoder's 8 top
    rows. One apply per row made 36 + 8 + 28 + 8 = 80 runs."""
    p = make_params(50, 44, 5, 8, field=binary_field(16))
    with mock.patch.object(mbrr.slab, "_horner", wraps=mbrr.slab._horner) as serial:
        P = precoding_matrix.__wrapped__(p)
    assert serial.call_count == 24
    assert P == precoding_matrix(p)


def test_precoding_and_encode_map_build_pack_no_rows():
    """On fresh params at (50,44,5,8) over GF(2^16) building the precoding
    map and then the encode map runs ``systematic_slabs`` once, over unit
    lanes made as bytes, and packs nothing: the encode map is composed from
    the slot slabs of that run, not from the matrix's rows."""
    p = make_params(50, 44, 5, 8, field=binary_field(16))
    pack = mbrr.slab.SlabKernel.pack
    with (
        mock.patch.object(mbrr.slab.SlabKernel, "pack", autospec=True, side_effect=pack) as packed,
        mock.patch.object(mbrr.systematic, "systematic_slabs", wraps=systematic_slabs) as runs,
    ):
        encode_map = systematic_encode_map(p)
        assert systematic_encode_map(p) == encode_map
    assert (packed.call_count, runs.call_count) == (0, 1)
    assert runs.call_args.args[1] == p.kernel.unit_lanes(p.B)
    digest = ENCODE_MAP_DIGESTS[6]  # the (50,44,5,8) GF(2^16) entry
    assert hashlib.sha256(repr(encode_map).encode()).hexdigest() == digest


def test_systematic_slabs_across_a_chunk_border():
    """At (50,44,5,8) over GF(2^16), 1,500 stripes make 3,000-byte slabs,
    so up to five row groups of one map share a 16 KiB run and the rest
    open the next (the decoder's 8 top rows run as 5 + 3). Every stripe
    stores its data verbatim, matches the precoding map, and sampled
    stripes match the structure-blind oracle."""
    p = make_params(50, 44, 5, 8, field=binary_field(16))
    kernel = p.kernel
    rng = random.Random(318)
    lanes = 1500
    slabs = [rng.randbytes(2 * lanes) for _ in range(p.B)]
    with mock.patch.object(mbrr.slab, "_horner", wraps=mbrr.slab._horner) as serial:
        slots = systematic_slabs(p, slabs)
    assert serial.call_count == 11 + 8 + 9 + 2  # steps 1, 3, 4 and 5; 80 one row at a time
    assert slots == kernel.apply(precoding_matrix(p), slabs)
    stored = encode_slabs(p, slots, systematic_nodes(p))
    for slab, (i, node) in zip(slabs, systematic_layout(p).data_positions):
        assert stored[node][i] == slab
    data, got = [kernel.unpack(s) for s in slabs], [kernel.unpack(s) for s in slots]
    for lane in (0, rng.randrange(1, lanes - 1), lanes - 1):
        want = unfill_message_matrix(systematic_message_matrix(p, [col[lane] for col in data]))
        assert [slot[lane] for slot in got] == want


def test_systematic_oracle_runs_none_of_the_slab_steps(monkeypatch):
    """``systematic_message_matrix`` solves the data cells' generator rows
    and uses none of the five steps' interpolators, finish weights or
    decoder, so checking ``systematic_slabs`` against it is independent."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a step of the structured transform")

    for attr in ("rack_lagrange", "rack_points_lagrange", "local_finish", "Decoder"):
        monkeypatch.setattr(mbrr.systematic, attr, refuse)
    monkeypatch.setattr(mbrr.repair.Repairer, "repair_slabs", refuse)
    rng = random.Random(311)
    for name in PARAM_SETS:
        p = params(name)
        data = random_stripe(p, rng)
        C = encode(systematic_message_matrix(p, data))
        assert [C.column(node)[i] for i, node in systematic_layout(p).data_positions] == data


def test_systematic_slabs_refuses_wrong_slab_count():
    p = params("reference")
    with pytest.raises(ValueError, match="expected 20 data slabs"):
        systematic_slabs(p, [b"\0"] * 19)


# SHA-256 of repr(precoding_matrix(p)), pinned from the construction that
# probed systematic_message_matrix with B unit vectors.
PRECODING_DIGESTS = [
    ((12, 7, 3, 3), None, "5813b19829fefd951c97c619883dc1bc02b2e45408b1d42559bf3a11a8e7f602"),
    ((15, 7, 3, 3), None, "5813b19829fefd951c97c619883dc1bc02b2e45408b1d42559bf3a11a8e7f602"),
    ((12, 6, 3, 3), None, "b194c61f36f2da93a20a090f768975104f55b42df45bc3d6fc47e493d90f04ea"),
    ((8, 5, 2, 3), None, "793cdab5446e87bea4d18cb8060d36eb3608237235d66d85554b827db72fa6f4"),
    ((20, 11, 4, 4), None, "509b9cc571adeaba6444d3eaa941ff3ea43cf3252e10da22f875df9c62ba5145"),
    (
        (12, 8, 2, 4),
        prime_field(13),
        "b0f89371c800e656728777f6774dcf98bf22226b7072c16098e767ca0b92ef44",
    ),
    (
        (50, 44, 5, 8),
        binary_field(16),
        "9871231956d56d81ff1ca1189a7db9a1ca08e00869889010c244cb3e8ed79873",
    ),
    (
        (12, 7, 3, 3),
        binary_field(8),
        "9987fe37c1606ecb4e55263a5cd114514839e55b5c27466aa8a3f315010d81ed",
    ),
]


@pytest.mark.parametrize(
    "geo, field, digest",
    PRECODING_DIGESTS,
    ids=["gf16-ref", "gf16-wide", "gf16-aligned", "gf11", "gf29", "gf13", "gf65536", "gf256"],
)
def test_precoding_matrix_matches_pinned_digest(geo, field, digest):
    P = precoding_matrix(make_params(*geo, field=field))
    assert hashlib.sha256(repr(P).encode()).hexdigest() == digest


# SHA-256 of repr(systematic_encode_map(p)) on the
# PRECODING_DIGESTS geometries, pinned from the build that ran
# encode_slabs over every row of the nodes holding a non-data cell.
ENCODE_MAP_DIGESTS = [
    "c9d16e280a74513dcb4076f1f58b1a810e87a5dce7ee4ec5f043ea44b6f2d87c",
    "d661b9702fe7aa3a8829386d3b29d172e4fdaa37e0c6a843a9d7118c2da232d6",
    "e9bf24e61e85ce297bcc073de00894eb3dd4ec597d07d6c3834bbb0730b3a4d4",
    "958bdd612f60068a56760019a5343a17804d35c51892ebf3e89be7d9e5fbd61d",
    "f254c3b230258f3c4a65739c032b9ffe09b765ecc37c0f2d316ad8a9157447d8",
    "bc15077e4a3ecdcdb6548f2774ee99b962997c801ffa6270f93f1765fb9a1f6c",
    "3e4fe6e6df8c684bf8f4109a553c71182222ea5e284653f6f2016461665ae1b9",
    "0f062c2a695db75e14a5590975a5adbaa80b5c87aa0bf56b26d1dbfbacc521ea",
]


@pytest.mark.parametrize(
    "geo, field, digest",
    [(geo, field, digest) for (geo, field, _), digest in zip(PRECODING_DIGESTS, ENCODE_MAP_DIGESTS)],
    ids=["gf16-ref", "gf16-wide", "gf16-aligned", "gf11", "gf29", "gf13", "gf65536", "gf256"],
)
def test_systematic_encode_map_matches_pinned_digest(geo, field, digest):
    p = make_params(*geo, field=field)
    encode_map = systematic_encode_map(p)
    assert hashlib.sha256(repr(encode_map).encode()).hexdigest() == digest


def test_production_paths_run_no_per_stripe_oracle(tmp_path, capsys, monkeypatch):
    """The precoding build and the systematic file commands run slab maps only."""

    def refuse(*args, **kwargs):
        raise AssertionError("a per-stripe oracle ran")

    for name, module in list(sys.modules.items()):
        if name == "mbrr" or name.startswith("mbrr."):
            for attr in ("systematic_message_matrix", "encode"):
                if callable(getattr(module, attr, None)):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(Decoder, "reconstruct", refuse)

    p = make_params(50, 44, 5, 8, field=binary_field(16))
    assert len(precoding_matrix(p)) == p.B
    p = make_params(12, 8, 2, 4, field=prime_field(13))
    assert len(precoding_matrix(p)) == p.B

    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(309).randbytes(3000))
    shards = tmp_path / "shards"
    argv = ["encode", str(src), "12", "7", "3", "3", "--systematic", "--out", str(shards)]
    assert main(argv) == 0
    (shards / "shard_e0_g2.mbrr").unlink()  # a systematic node: the read decodes
    out = tmp_path / "out.bin"
    assert main(["decode", str(shards), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert main(["repair", str(shards), "0", "2"]) == 0
