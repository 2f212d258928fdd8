import itertools
import random
from enum import IntEnum

import pytest

from mbrr.cli import admissible_geometries
from mbrr.cluster import overhead_report
from mbrr.gf import BinaryField, binary_field, prime_field
from mbrr.layout import (
    CodeParams,
    IntegrityError,
    NodeId,
    all_nodes,
    column_positions,
    evaluation_point,
    evaluation_points,
    fill_message_matrix,
    fill_plan,
    index_sets,
    make_params,
    node_index,
    unfill_message_matrix,
)

from support import PARAM_SETS, params, random_stripe


# ---------------------------------------------------------------- params


def test_reference_geometry_derivation():
    p = params("reference")
    assert (p.n, p.k, p.u, p.dbar) == (12, 7, 3, 3)
    assert (p.nbar, p.kbar, p.u0) == (4, 2, 1)
    assert p.alpha == 3 and p.beta == 1
    assert p.B == 20
    assert p.field.q == 16  # smallest GF(2^m) with q > n and u | q-1


def test_derived_sizes_across_sets():
    want = {
        "reference": (3, 20, 16),
        "wide": (3, 20, 16),
        "aligned": (3, 17, 16),
        "pairs": (3, 14, 11),
        "quads": (4, 43, 29),
    }
    for name, (alpha, B, q) in want.items():
        p = params(name)
        assert (p.alpha, p.B, p.field.q) == (alpha, B, q), name


def test_even_u_lands_in_prime_field():
    # 2^m - 1 is odd, so an even u can never divide it; the smallest prime
    # with u | q-1 and q > n steps in.
    assert params("pairs").field.q == 11
    assert params("quads").field.q == 29
    assert params("pairs").field.characteristic == 11


def test_large_overhead_geometries_fit_byte_field():
    p = make_params(50, 44, 5, 9, field=binary_field(8))
    assert p.B == 368 and p.n * p.alpha == 450
    p = make_params(200, 194, 5, 39, field=binary_field(8))
    assert p.B == 6863 and p.n * p.alpha == 7800


def test_explicit_m_override():
    """The field, not a separate m, overrides the automatic choice."""
    p = make_params(12, 7, 3, 3, field=binary_field(8))
    assert p.field.q == 256
    with pytest.raises(TypeError):
        make_params(12, 7, 3, 3, m=8)


def test_params_validation_errors():
    with pytest.raises(ValueError, match="divide"):
        make_params(13, 7, 3, 3)  # u does not divide n
    with pytest.raises(ValueError, match="k"):
        make_params(12, 12, 3, 3)  # k must leave redundancy
    with pytest.raises(ValueError, match="dbar"):
        make_params(12, 7, 3, 1)  # dbar below kbar
    with pytest.raises(ValueError, match="dbar"):
        make_params(12, 7, 3, 4)  # dbar beyond nbar - 1
    with pytest.raises(ValueError, match="u"):
        make_params(12, 2, 3, 3)  # k below u
    with pytest.raises(ValueError, match="divide"):
        make_params(8, 5, 2, 3, field=binary_field(4))  # even u cannot divide 2^4 - 1
    with pytest.raises(ValueError, match="more than"):
        make_params(20, 11, 4, 4, field=BinaryField(4))  # q = 16 < n + 1


def test_params_require_integers():
    with pytest.raises(ValueError):
        make_params(12.0, 7, 3, 3)
    with pytest.raises(ValueError):
        make_params(12, 7, True, 3)


def test_make_params_accepts_exactly_the_admissible_region():
    """Every (n, k, u, dbar) with n <= 16 and k, u, dbar in [0, n]: inside
    ``admissible_geometries`` the closed forms hold, outside it ValueError."""
    region = set(admissible_geometries(16))
    assert len(region) == 309
    for n in range(17):
        for k, u, dbar in itertools.product(range(n + 1), repeat=3):
            if (n, k, u, dbar) not in region:
                with pytest.raises(ValueError):
                    make_params(n, k, u, dbar)
                continue
            p = make_params(n, k, u, dbar)
            # B counts the free cells of the dbar-row message matrix: k - kbar
            # columns outside M1, and the upper triangle of the symmetric M1
            # less that of its zero (dbar - kbar)-square corner.
            kbar = k // u
            corner = dbar - kbar
            cells = dbar * (k - kbar) + dbar * (dbar + 1) // 2 - corner * (corner + 1) // 2
            assert (p.alpha, p.beta, p.B) == (dbar, 1, cells)
            assert overhead_report(p).bandwidth_to_storage == 1


def _policy_field(n, u):
    """(characteristic, q) of make_params's documented default field: when u
    is odd, the smallest GF(2^m) with m <= 16, q > n and u | q - 1; otherwise
    (or when none exists) the smallest such prime."""
    for m in range(1, 17) if u % 2 else ():
        if 2**m > n and (2**m - 1) % u == 0:
            return 2, 2**m
    q = n + 1
    while (q - 1) % u or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q, q


def test_default_field_follows_the_documented_policy():
    """The default field is the policy's, which is not always the smallest
    admissible field: (6,3,3,1) gets GF(2^4) although GF(7) admits it."""
    for n, k, u, dbar in admissible_geometries(24):
        f = make_params(n, k, u, dbar).field
        assert (f.characteristic, f.q) == _policy_field(n, u), (n, k, u, dbar)
    assert make_params(6, 3, 3, 1).field.q == 16
    assert make_params(6, 3, 3, 1, field=prime_field(7)).field.q == 7


# ---------------------------------------------------------------- geometry


def test_node_enumeration_and_index():
    p = params("reference")
    nodes = list(all_nodes(p))
    assert len(nodes) == p.n
    assert nodes[0] == NodeId(0, 0) and nodes[-1] == NodeId(3, 2)
    assert nodes == sorted(nodes)  # rack-major order
    for i, node in enumerate(nodes):
        assert node_index(p, node) == i
    with pytest.raises(ValueError):
        node_index(p, NodeId(4, 0))
    with pytest.raises(ValueError):
        node_index(p, NodeId(0, 3))
    with pytest.raises(ValueError):
        node_index(p, NodeId(-1, 0))


def test_evaluation_points_distinct():
    """Every node must get its own point or columns would collide."""
    for name in PARAM_SETS:
        p = params(name)
        pts = evaluation_points(p)
        assert len(pts) == p.n
        assert len(set(pts)) == p.n
        assert 0 not in pts


def test_evaluation_point_structure():
    p = params("reference")
    f = p.field
    for node in all_nodes(p):
        want = f.mul(f.pow(p.xi, node.e), f.pow(p.eta, node.g))
        assert evaluation_point(p, node) == want
    # eta generates the in-rack offsets: order exactly u
    assert f.pow(p.eta, p.u) == 1
    for j in range(1, p.u):
        assert f.pow(p.eta, j) != 1


def test_index_sets_reference():
    p = params("reference")
    j1, j2, j = index_sets(p)
    assert j1 == (2, 5, 8)
    assert j2 == (0, 1, 3, 4, 6)
    assert j == (0, 1, 2, 3, 4, 5, 6, 8)
    assert column_positions(p) == {deg: i for i, deg in enumerate(j)}


def test_index_sets_when_k_is_rack_aligned():
    p = params("aligned")  # k = 6 = 2 racks exactly, u0 = 0
    j1, j2, j = index_sets(p)
    assert j1 == (2, 5, 8)
    assert j2 == (0, 1, 3, 4)
    assert j == (0, 1, 2, 3, 4, 5, 8)


# ---------------------------------------------------------------- fill


def test_fill_layout_is_frozen():
    """The slot-to-cell assignment is a wire-format convention: changing it
    silently re-keys every stored stripe, so it is pinned cell by cell."""
    p = params("reference")
    slots, fresh = fill_plan(p)
    assert slots == [
        [0, 3, 6, 9, 12, 7, 17, 8],
        [1, 4, 7, 10, 13, 15, 18, 16],
        [2, 5, 8, 11, 14, 16, 19, None],
    ]
    # column-major fill: row 0 meets both of its mirrored slots (7 at column
    # 5, 8 at column 7) after their first appearance, rows 1 and 2 one each
    assert [row.count(True) for row in fresh] == [6, 7, 7]
    assert sum(row.count(True) for row in fresh) == p.B


def test_fill_reuses_symmetric_cells():
    p = params("reference")
    data = list(range(16)) + [3, 1, 4, 1]  # B = 20 values over GF(16)
    M = fill_message_matrix(p, data)
    m1 = M.m1()
    for i in range(p.dbar):
        for t in range(p.dbar):
            assert m1[i][t] == m1[t][i]
    assert m1[2][2] == 0  # structural zero corner
    assert unfill_message_matrix(M) == data


def test_fill_unfill_round_trip():
    rng = random.Random(2)
    for name in PARAM_SETS:
        p = params(name)
        for _ in range(20):
            data = random_stripe(p, rng)
            assert unfill_message_matrix(fill_message_matrix(p, data)) == data


def test_fill_validates_symbols():
    p = params("reference")
    with pytest.raises(ValueError, match="20"):
        fill_message_matrix(p, [0] * 19)
    with pytest.raises(ValueError, match="element"):
        fill_message_matrix(p, [16] + [0] * 19)
    with pytest.raises(ValueError, match="element"):
        fill_message_matrix(p, [-1] + [0] * 19)
    # Only plain ints are symbols: bools, floats and int subclasses are not.
    for bad in (True, 1.0, IntEnum("Sym", "ONE")["ONE"]):
        with pytest.raises(ValueError, match="element"):
            fill_message_matrix(p, [bad] + [0] * 19)


def test_unfill_detects_tampering():
    p = params("reference")
    rng = random.Random(8)
    M = fill_message_matrix(p, random_stripe(p, rng))
    pos8 = column_positions(p)[8]
    keep = M.rows[2][pos8]
    M.rows[2][pos8] = keep ^ 1  # structural zero must stay zero
    with pytest.raises(IntegrityError, match="structural zero"):
        unfill_message_matrix(M)
    M.rows[2][pos8] = keep
    pos5 = column_positions(p)[5]
    M.rows[2][pos5] ^= 1  # breaks symmetry with the mirrored cell
    with pytest.raises(IntegrityError, match="symmetry"):
        unfill_message_matrix(M)
    M.rows[1].append(0)
    with pytest.raises(ValueError, match="shape"):
        unfill_message_matrix(M)


def test_message_matrix_entry_lookup():
    p = params("reference")
    data = list(range(16)) + [0, 0, 0, 0]
    M = fill_message_matrix(p, data)
    cp = column_positions(p)
    assert M.rows[0][cp[0]] == data[0]
    assert M.rows[2][cp[8]] == 0
    assert 7 not in cp  # degree 7 is outside J


def test_caches_are_per_instance():
    a = make_params(12, 7, 3, 3)
    b = make_params(12, 7, 3, 3)
    assert a is not b
    assert fill_plan(a) == fill_plan(b)
    assert fill_plan(a) is fill_plan(a)  # cached on the instance
