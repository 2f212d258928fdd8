import hashlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mbrr.cli import main
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
from mbrr.slab import ListSlabKernel, SlabKernel
from mbrr.systematic import (
    precoding_matrix,
    read_systematic_data,
    systematic_encode,
    systematic_layout,
    systematic_message_matrix,
    systematic_nodes,
    systematic_slabs,
)

from support import PARAM_SETS, params, random_stripe, coded_columns


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


# Every PARAM_SETS geometry (GF(2^4), GF(11), GF(29)), GF(13), and the two
# byte-framed fields, whose cases also run through SlabKernel. (25,13,5,4)
# has a two-column rectangle block; (12,6,3,3) has u0 = 0.
SLAB_CASES = [
    *((geo, None) for geo in PARAM_SETS.values()),
    ((12, 8, 2, 4), prime_field(13)),
    ((12, 7, 3, 3), binary_field(8)),
    ((25, 13, 5, 4), binary_field(8)),
    ((12, 6, 3, 3), binary_field(16)),
]


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
    kernels = [ListSlabKernel(p.field)]
    if p.field.q in (256, 65536):
        kernels.append(SlabKernel(p.field))
    for kernel in kernels:
        slabs = [kernel.pack([lane[j] for lane in data]) for j in range(p.B)]
        slots = [kernel.unpack(slab) for slab in systematic_slabs(kernel, p, slabs)]
        assert [[slot[lane] for slot in slots] for lane in range(lanes)] == want
        # Encoding the slot slabs stores the data slabs verbatim.
        stored = encode_slabs(
            kernel, p, [kernel.pack(slot) for slot in slots], systematic_nodes(p)
        )
        for slab, (i, node) in zip(slabs, systematic_layout(p).data_positions):
            assert stored[node][i] == slab


def test_systematic_slabs_refuses_wrong_slab_count():
    p = params("reference")
    with pytest.raises(ValueError, match="expected 20 data slabs"):
        systematic_slabs(ListSlabKernel(p.field), p, [[0]] * 19)


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
