import random
import re
from itertools import combinations

import pytest

from mbrr.layout import NodeId, all_nodes, fill_message_matrix, make_params
from mbrr.linalg import BatchInterpolator, dot, mat_vec, poly_eval
from mbrr.repair import (
    RepairModelError,
    Repairer,
    local_finish,
    local_polynomial_coeffs,
    rack_point,
    rack_points_lagrange,
    repair_node,
)
from mbrr.reconstruct import Decoder, oracle_reconstruct
from mbrr.slab import SlabKernel

from support import PARAM_SETS, params, random_stripe, encoded, leading_vector


def one_lane(kernel, cols):
    """Node-keyed columns as one-lane byte slabs, one per symbol."""
    return {node: [kernel.pack([s]) for s in col] for node, col in cols.items()}


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
                phi = [f.pow(rack_point(p, e), t) for t in range(p.dbar)]
                assert leading_vector(p, cols, e) == mat_vec(f, m1, phi)


def test_rack_points_are_distinct():
    for name in PARAM_SETS:
        p = params(name)
        pts = [rack_point(p, e) for e in range(p.nbar)]
        assert len(set(pts)) == p.nbar


def test_helper_symbol_evaluates_leading_polynomial():
    """The one symbol rack 1 sends toward rack 3 is rack 1's leading vector,
    as a polynomial, evaluated at rack 3's point."""
    p = params("reference")
    rng = random.Random(202)
    data, C, cols = encoded(p, rng)
    failed = NodeId(3, 0)
    kernel = SlabKernel(p.field)
    rep = Repairer(p, failed, helpers=[0, 1, 2])
    _, sent, _ = rep.repair_slabs(kernel, one_lane(kernel, cols))
    want = poly_eval(p.field, leading_vector(p, cols, 1), rack_point(p, 3))
    assert kernel.unpack(sent[1]) == [want]
    with pytest.raises(ValueError, match="own rack"):
        Repairer(p, failed, helpers=[1, 2, 3])  # a rack cannot help itself


def test_recover_leading_vector_round_trip():
    """dbar helper evaluations pin down the failed rack's leading vector:
    the sent symbols, interpolated on the helpers' rack points, give it."""
    rng = random.Random(203)
    for name in PARAM_SETS:
        p = params(name)
        data, C, cols = encoded(p, rng)
        kernel = SlabKernel(p.field)
        for e_star in range(p.nbar):
            rep = Repairer(p, NodeId(e_star, 0))
            _, sent, _ = rep.repair_slabs(kernel, one_lane(kernel, cols))
            interp = rack_points_lagrange(p, rep.helpers)
            got = interp.interpolate([kernel.unpack(sent[e])[0] for e in rep.helpers])
            assert got == leading_vector(p, cols, e_star)


def test_repair_local_rebuilds_any_column():
    """The in-rack finish: the weights of ``local_finish`` rebuild any column
    from its u-1 rack mates and the rack's leading vector."""
    rng = random.Random(205)
    for name in PARAM_SETS:
        p = params(name)
        f = p.field
        data, C, cols = encoded(p, rng)
        for e in range(p.nbar):
            h = leading_vector(p, cols, e)
            for g_star in range(p.u):
                weights, kappa = local_finish(p, NodeId(e, g_star))
                mates = [cols[NodeId(e, g)] for g in range(p.u) if g != g_star]
                got = [
                    f.add(dot(f, weights, [col[i] for col in mates]), f.mul(kappa, h[i]))
                    for i in range(p.alpha)
                ]
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


def test_repairer_builds_no_interpolator_after_first_stripe(monkeypatch):
    """The interpolators on rack points and node points are cached on the
    params, so the per-stripe oracle builds none after its first stripe."""
    p = make_params(*PARAM_SETS["reference"])  # fresh params, empty cache
    rng = random.Random(209)
    rep = Repairer(p, NodeId(2, 1))
    _, _, cols = encoded(p, rng)
    assert rep.repair(cols)[0] == cols[NodeId(2, 1)]
    built = []
    real = BatchInterpolator.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(BatchInterpolator, "__init__", counting)
    for _ in range(3):
        _, _, cols = encoded(p, rng)
        assert rep.repair(cols)[0] == cols[NodeId(2, 1)]
    assert built == []
    interp = rack_points_lagrange(p, rep.helpers)
    assert interp is rack_points_lagrange(p, rep.helpers)
    assert list(interp.points) == [rack_point(p, e) for e in rep.helpers]


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


@pytest.mark.parametrize("name", ["reference", "pairs"])  # GF(2^4), GF(11)
def test_repair_refuses_non_field_symbols(name):
    """A symbol the repair reads, from a helper rack or an in-rack
    survivor, must be a plain int in [0, q); the failed node's own
    column is never read, so it is not checked."""
    p = params(name)
    data, C, cols = encoded(p, random.Random(212))
    failed = NodeId(1, 0)
    rep = Repairer(p, failed)
    for node in (NodeId(1, 1), NodeId(rep.helpers[-1], 0)):
        for bad in (cols[node][0] + p.field.q, -1, "7", True, 1.0):
            bad_cols = {**cols, node: [bad, *cols[node][1:]]}
            with pytest.raises(ValueError, match=re.escape(f"node {node!r} symbol {bad!r} is not")):
                rep.repair(bad_cols)
            with pytest.raises(ValueError, match="is not an element"):
                repair_node(p, bad_cols, failed)
    column, _ = rep.repair({**cols, failed: ["junk"] * p.alpha})
    assert column == cols[failed]


def test_repair_node_accepts_mapping_with_failed_entry():
    p = params("reference")
    rng = random.Random(210)
    data, C, cols = encoded(p, rng)
    failed = NodeId(0, 1)
    column, _ = repair_node(p, dict(cols), failed)  # failed column ignored
    assert column == cols[failed]


def test_column_maps_are_order_free():
    """Every per-stripe entry point takes {node: column}, and the map's
    insertion order changes no result. The decoder and the repairer refuse
    a column one symbol short."""
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
        failed = NodeId(rng.randrange(p.nbar), rng.randrange(p.u))
        others = [n for n in nodes if n != failed]
        dec = Decoder(p, ids)
        rep = Repairer(p, failed)
        want = (
            dec.reconstruct(C.columns(ids)).rows,
            oracle_reconstruct(p, C.columns(ids)).rows,
            rep.repair(C.columns(others)),
        )
        assert want[0] == want[1] == fill_message_matrix(p, data).rows
        assert want[2][0] == cols[failed]
        for _ in range(3):
            got = (
                dec.reconstruct(shuffled(ids)).rows,
                oracle_reconstruct(p, shuffled(ids)).rows,
                rep.repair(shuffled(others)),
            )
            assert got == want

        with pytest.raises(ValueError, match="alpha"):
            dec.reconstruct({**C.columns(ids), ids[0]: cols[ids[0]][:-1]})
        for short in (rep.survivors[0], NodeId(rep.helpers[0], 0)):
            with pytest.raises(ValueError, match="alpha"):
                rep.repair({**C.columns(others), short: cols[short][:-1]})
