import random
from itertools import combinations

import pytest

from mbrr.layout import NodeId, all_nodes, fill_message_matrix
from mbrr.linalg import mat_vec, poly_eval
from mbrr.repair import (
    HelperSymbol,
    LeadingVector,
    RepairModelError,
    Repairer,
    helper_symbol,
    local_polynomial_coeffs,
    rack_leading_vector,
    rack_point,
    recover_leading_vector,
    repair_local,
    repair_node,
)
from mbrr.reconstruct import Decoder, oracle_reconstruct

from support import PARAM_SETS, params, random_stripe, encoded


def rack_columns(cols, p, e):
    return {NodeId(e, g): cols[NodeId(e, g)] for g in range(p.u)}


# ---------------------------------------------------------------- locality


def test_local_polynomials_match_stored_symbols():
    """Row i of a rack is a degree-< u polynomial in the node points: the
    whole repair machinery rests on this identity, so it is checked at
    every (node, row) pair."""
    rng = random.Random(200)
    for name in PARAM_SETS:
        p = params(name)
        f = p.field
        for _ in range(3):
            data, C, cols = encoded(p, rng)
            M = fill_message_matrix(p, data)
            for e in range(p.nbar):
                coeffs = local_polynomial_coeffs(M, e)
                assert len(coeffs) == p.alpha
                for i in range(p.alpha):
                    assert len(coeffs[i]) == p.u
                    for g in range(p.u):
                        node = NodeId(e, g)
                        lam = f.mul(f.pow(p.xi, e), f.pow(p.eta, g))
                        got = poly_eval(f, coeffs[i], lam)
                        assert got == cols[node][i]


def test_leading_vectors_factor_through_m1():
    """The per-rack leading coefficients are M1 times the rack moment
    vector (1, x_e, x_e^2, ...): racks form a smaller regenerating code."""
    rng = random.Random(201)
    for name in PARAM_SETS:
        p = params(name)
        f = p.field
        for _ in range(3):
            data, C, cols = encoded(p, rng)
            M = fill_message_matrix(p, data)
            m1 = M.m1()
            for e in range(p.nbar):
                hv = rack_leading_vector(p, e, rack_columns(cols, p, e))
                assert hv.e == e
                phi = [f.pow(rack_point(p, e), t) for t in range(p.dbar)]
                assert list(hv.h) == mat_vec(f, m1, phi)


def test_rack_points_are_distinct():
    for name in PARAM_SETS:
        p = params(name)
        pts = [rack_point(p, e) for e in range(p.nbar)]
        assert len(set(pts)) == p.nbar


def test_helper_symbol_evaluates_leading_polynomial():
    p = params("reference")
    rng = random.Random(202)
    data, C, cols = encoded(p, rng)
    hv = rack_leading_vector(p, 1, rack_columns(cols, p, 1))
    sym = helper_symbol(p, 3, hv)
    assert isinstance(sym, HelperSymbol)
    assert sym.helper_rack == 1 and sym.target_rack == 3
    assert sym.value == poly_eval(p.field, list(hv.h), rack_point(p, 3))
    with pytest.raises(ValueError):
        helper_symbol(p, 1, hv)  # a rack cannot help itself


def test_recover_leading_vector_round_trip():
    """dbar helper evaluations pin down the failed rack's leading vector."""
    rng = random.Random(203)
    for name in PARAM_SETS:
        p = params(name)
        data, C, cols = encoded(p, rng)
        M = fill_message_matrix(p, data)
        for e_star in range(p.nbar):
            helpers = [e for e in range(p.nbar) if e != e_star][: p.dbar]
            received = [
                helper_symbol(
                    p, e_star, rack_leading_vector(p, e, rack_columns(cols, p, e))
                )
                for e in helpers
            ]
            hv = recover_leading_vector(p, e_star, received)
            want = rack_leading_vector(p, e_star, rack_columns(cols, p, e_star))
            assert hv.h == want.h


def test_recover_leading_vector_validates():
    p = params("reference")
    rng = random.Random(204)
    data, C, cols = encoded(p, rng)
    hv = rack_leading_vector(p, 0, rack_columns(cols, p, 0))
    sym = helper_symbol(p, 2, hv)
    with pytest.raises(ValueError, match="dbar"):
        recover_leading_vector(p, 2, [sym])
    with pytest.raises(ValueError, match="duplicate"):
        recover_leading_vector(p, 2, [sym, sym, sym])


def test_repair_local_rebuilds_any_column():
    rng = random.Random(205)
    for name in PARAM_SETS:
        p = params(name)
        data, C, cols = encoded(p, rng)
        M = fill_message_matrix(p, data)
        for e in range(p.nbar):
            hv = rack_leading_vector(p, e, rack_columns(cols, p, e))
            for g_star in range(p.u):
                surviving = {
                    NodeId(e, g): cols[NodeId(e, g)] for g in range(p.u) if g != g_star
                }
                got = repair_local(p, e, g_star, surviving, hv)
                assert got == cols[NodeId(e, g_star)]


# ---------------------------------------------------------------- repairs


def test_full_repair_every_node():
    rng = random.Random(206)
    for name in PARAM_SETS:
        p = params(name)
        data, C, cols = encoded(p, rng)
        for failed in all_nodes(p):
            column, ledger = repair_node(p, C, failed)
            assert column == cols[failed]
            assert ledger.cross_rack_symbols == p.dbar * p.beta
            assert ledger.intra_rack_symbols == (p.u - 1) * p.alpha
            assert sorted(ledger.per_helper) == sorted(
                set(ledger.per_helper)
            )
            assert all(v == p.beta for v in ledger.per_helper.values())
            assert failed.e not in ledger.per_helper


def test_repair_under_every_helper_choice():
    """With five racks and dbar = 3 there are four helper sets per failure;
    each must regenerate the same column."""
    p = params("wide")
    rng = random.Random(207)
    data, C, cols = encoded(p, rng)
    for failed in all_nodes(p):
        others = [e for e in range(p.nbar) if e != failed.e]
        seen = 0
        for helpers in combinations(others, p.dbar):
            column, ledger = repair_node(p, C, failed, helpers=list(helpers))
            assert column == cols[failed]
            assert set(ledger.per_helper) == set(helpers)
            seen += 1
        assert seen == 4


def test_repairer_reuse_across_stripes():
    p = params("reference")
    rng = random.Random(208)
    rep = Repairer(p, NodeId(2, 1))
    for _ in range(10):
        data, C, cols = encoded(p, rng)
        survivors = {n: c for n, c in cols.items() if n != NodeId(2, 1)}
        column, ledger = rep.repair(survivors)
        assert column == cols[NodeId(2, 1)]


def test_repair_model_validation():
    p = params("reference")
    rng = random.Random(209)
    data, C, cols = encoded(p, rng)
    failed = NodeId(1, 0)
    with pytest.raises(ValueError, match="dbar"):
        Repairer(p, failed, helpers=[0, 2])
    with pytest.raises(ValueError, match="duplicate"):
        Repairer(p, failed, helpers=[0, 0, 2])
    with pytest.raises(ValueError, match="own rack"):
        Repairer(p, failed, helpers=[0, 1, 2])
    with pytest.raises(ValueError, match="outside"):
        Repairer(p, failed, helpers=[0, 2, 9])
    rep = Repairer(p, failed, helpers=[0, 2, 3])
    incomplete = {n: c for n, c in cols.items() if n not in (failed, NodeId(2, 2))}
    with pytest.raises(RepairModelError, match="helper rack 2"):
        rep.repair(incomplete)
    no_survivor = {n: c for n, c in cols.items() if n.e != 1}
    with pytest.raises(RepairModelError, match="survivor"):
        rep.repair(no_survivor)


def test_repair_node_accepts_mapping_with_failed_entry():
    p = params("reference")
    rng = random.Random(210)
    data, C, cols = encoded(p, rng)
    failed = NodeId(0, 1)
    column, _ = repair_node(p, dict(cols), failed)  # failed column ignored
    assert column == cols[failed]


def test_column_maps_are_order_free():
    """Every per-stripe step takes {node: column}, and the map's insertion
    order changes no result. A rack step refuses a column from another rack
    and a column one symbol short."""
    rng = random.Random(211)
    for name in PARAM_SETS:
        p = params(name)
        data, C, cols = encoded(p, rng)
        nodes = list(all_nodes(p))

        def shuffled(ids):
            ids = list(ids)
            rng.shuffle(ids)
            return {n: cols[n] for n in ids}

        ids = sorted(rng.sample(nodes, p.k))
        e = rng.randrange(p.nbar)
        rack = [NodeId(e, g) for g in range(p.u)]
        failed = NodeId(e, rng.randrange(p.u))
        mates = [n for n in rack if n != failed]
        others = [n for n in nodes if n != failed]
        dec = Decoder(p, ids)
        rep = Repairer(p, failed)
        hv = rack_leading_vector(p, e, C.columns(rack))
        want = (
            dec.reconstruct(C.columns(ids)).rows,
            oracle_reconstruct(p, C.columns(ids)).rows,
            hv,
            repair_local(p, e, failed.g, C.columns(mates), hv),
            rep.repair(C.columns(others)),
        )
        assert want[0] == want[1] == fill_message_matrix(p, data).rows
        assert want[3] == want[4][0] == cols[failed]
        for _ in range(3):
            got = (
                dec.reconstruct(shuffled(ids)).rows,
                oracle_reconstruct(p, shuffled(ids)).rows,
                rack_leading_vector(p, e, shuffled(rack)),
                repair_local(p, e, failed.g, shuffled(mates), hv),
                rep.repair(shuffled(others)),
            )
            assert got == want

        stranger = NodeId((e + 1) % p.nbar, failed.g)
        with pytest.raises(ValueError, match="does not belong"):
            rack_leading_vector(p, e, {**C.columns(rack[1:]), stranger: cols[stranger]})
        with pytest.raises(ValueError, match="does not belong"):
            repair_local(p, e, failed.g, {**C.columns(mates[1:]), stranger: cols[stranger]}, hv)
        with pytest.raises(ValueError, match="alpha"):
            rack_leading_vector(p, e, {**C.columns(rack), rack[0]: cols[rack[0]][:-1]})


def test_leading_vector_is_frozen():
    hv = LeadingVector(0, (1, 2, 3))
    with pytest.raises(AttributeError):
        hv.e = 1
