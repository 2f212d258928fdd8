import random
from itertools import combinations

import pytest

from mbrr.encode import encode
from mbrr.layout import NodeId, all_nodes, fill_message_matrix, unfill_message_matrix
from mbrr.linalg import mat_vec, solve_linear
from mbrr.reconstruct import ObservedColumn, reconstruct
from mbrr.repair import repair_node
from mbrr.systematic import (
    precoding_matrix,
    read_systematic_data,
    systematic_encode,
    systematic_layout,
    systematic_message_matrix,
    systematic_nodes,
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
        M = reconstruct(p, [ObservedColumn(x, cols[x]) for x in picks])
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
