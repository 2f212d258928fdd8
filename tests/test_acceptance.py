"""Release gate: numbered acceptance criteria, one PASS/FAIL line each.

Run with `python3 -m pytest -s tests/test_acceptance.py` to see the lines.
Each criterion states its own tolerance (bit-exact unless noted) and the
timed ones assert their runtime budget as part of the pass condition.
"""

import hashlib
import math
import os
import random
from fractions import Fraction
from itertools import combinations
from time import perf_counter

from mbrr.cli import main, shard_filename
from mbrr.cluster import overhead_report
from mbrr.encode import encode
from mbrr.gf import binary_field
from mbrr.layout import (
    NodeId,
    all_nodes,
    evaluation_point,
    fill_message_matrix,
    make_params,
    unfill_message_matrix,
)
from mbrr.linalg import mat_vec, poly_eval
from mbrr.reconstruct import Decoder, oracle_reconstruct, reconstruct
from mbrr.repair import Repairer, local_polynomial_coeffs, rack_point
from mbrr.systematic import (
    read_systematic_data,
    systematic_encode,
    systematic_layout,
    systematic_message_matrix,
)

from support import encoded, leading_vector, random_stripe


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ------------------------------------------------------------ criterion 1


def test_criterion_1_derived_parameters():
    p = make_params(12, 7, 3, 3)
    ok = (
        p.alpha == 3
        and p.B == 20
        and p.beta == 1
        and p.nbar == 4
        and p.kbar == 2
        and p.u0 == 1
    )
    _report(1, ok, f"(n=12,k=7,u=3,dbar=3) derives alpha={p.alpha}, B={p.B} (exact)")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_exhaustive_reconstruction():
    p = make_params(12, 7, 3, 3)
    rng = random.Random(1002)
    stripes = [encoded(p, rng)[:2] for _ in range(100)]
    nodes = list(all_nodes(p))
    t0 = perf_counter()
    bad = done = 0
    for ids in combinations(nodes, p.k):
        dec = Decoder(p, ids)
        for data, C in stripes:
            M = dec.reconstruct(C.columns(ids))
            if unfill_message_matrix(M) != data:
                bad += 1
            done += 1
    dt = perf_counter() - t0
    ok = bad == 0 and done == 792 * 100 and dt < 60.0
    _report(
        2,
        ok,
        f"all 792 k-subsets x 100 stripes bit-exact "
        f"({done} decodes, {bad} mismatches, {dt:.1f}s < 60s)",
    )


# ------------------------------------------------------------ criterion 3


def _repair_sweep(p, stripes, helper_choices, bad, count):
    for node in all_nodes(p):
        choices = helper_choices(node)
        for helpers in choices:
            rep = Repairer(p, node, helpers)
            for cols in stripes:
                survivors = {nd: c for nd, c in cols.items() if nd != node}
                column, ledger = rep.repair(survivors)
                if column != cols[node]:
                    bad += 1
                if not (
                    ledger.cross_rack_symbols == p.dbar * p.beta == p.alpha
                    and all(v == p.beta for v in ledger.per_helper.values())
                ):
                    bad += 1
                count += 1
    return bad, count


def test_criterion_3_exhaustive_repair():
    rng = random.Random(1003)
    t0 = perf_counter()
    bad = count = 0

    p = make_params(12, 7, 3, 3)
    stripes = [encoded(p, rng)[2] for _ in range(100)]
    bad, count = _repair_sweep(p, stripes, lambda node: [None], bad, count)

    pw = make_params(15, 7, 3, 3)
    stripes_w = [encoded(pw, rng)[2] for _ in range(100)]

    def every_helper_set(node):
        others = [e for e in range(pw.nbar) if e != node.e]
        return list(combinations(others, pw.dbar))

    bad, count = _repair_sweep(pw, stripes_w, every_helper_set, bad, count)

    dt = perf_counter() - t0
    expected = 12 * 1 * 100 + 15 * 4 * 100
    ok = bad == 0 and count == expected and dt < 60.0
    _report(
        3,
        ok,
        f"every node, every helper set, ledger cross_rack == dbar*beta == alpha "
        f"({count} repairs, {bad} faults, {dt:.1f}s < 60s)",
    )


# ------------------------------------------------------------ criterion 4


def _identity_faults(p, data, cols):
    f = p.field
    M = fill_message_matrix(p, data)
    m1 = M.m1()
    bad = 0
    for e in range(p.nbar):
        coeffs = local_polynomial_coeffs(M, e)
        for g in range(p.u):
            node = NodeId(e, g)
            lam = evaluation_point(p, node)
            for i in range(p.dbar):
                if poly_eval(f, coeffs[i], lam) != cols[node][i]:
                    bad += 1
        phi = [f.pow(rack_point(p, e), t) for t in range(p.dbar)]
        if leading_vector(p, cols, e) != mat_vec(f, m1, phi):
            bad += 1
    return bad


def test_criterion_4_local_polynomial_identities():
    rng = random.Random(1004)
    sets = [
        make_params(12, 7, 3, 3),  # u0 = 1
        make_params(8, 5, 2, 3),  # u = 2
        make_params(12, 6, 3, 3),  # u0 = 0
    ]
    t0 = perf_counter()
    bad = pairs = 0
    for p in sets:
        for _ in range(100):
            data, _, cols = encoded(p, rng)
            bad += _identity_faults(p, data, cols)
            pairs += p.n * p.dbar
    dt = perf_counter() - t0
    ok = bad == 0
    _report(
        4,
        ok,
        f"stored symbols match local polynomials at all n*dbar pairs and "
        f"leading vectors factor through M1 "
        f"(3 parameter sets incl. u=2 and u0=0, 100 stripes each, "
        f"{pairs} pairs, {bad} faults, {dt:.1f}s)",
    )


# ------------------------------------------------------------ criterion 5


def test_criterion_5_oracle_equivalence():
    rng = random.Random(1005)
    sets = [
        make_params(12, 7, 3, 3),
        make_params(15, 7, 3, 3),
        make_params(12, 6, 3, 3),
        make_params(8, 5, 2, 3),
        make_params(20, 11, 4, 4),
    ]
    t0 = perf_counter()
    bad = done = 0
    for p in sets:
        nodes = list(all_nodes(p))
        for _ in range(200):
            data, C, _ = encoded(p, rng)
            ids = rng.sample(nodes, p.k)
            obs = C.columns(ids)
            fast = reconstruct(p, obs)
            slow = oracle_reconstruct(p, obs)
            if fast.rows != slow.rows or unfill_message_matrix(slow) != data:
                bad += 1
            done += 1
    dt = perf_counter() - t0
    ok = bad == 0 and done == 1000
    _report(
        5,
        ok,
        f"structured decoder equals elimination oracle on {done} random "
        f"(data, subset) instances across 5 parameter sets "
        f"({bad} mismatches, {dt:.1f}s)",
    )


# ------------------------------------------------------------ criterion 6


def _systematic_stripe(p, rng):
    data = random_stripe(p, rng)
    Mt = systematic_message_matrix(p, data)
    C = encode(Mt)
    cols = {node: C.column(node) for node in all_nodes(p)}
    return data, Mt, C, cols


def _systematic_placement_faults(p, rng, probes):
    lay = systematic_layout(p)
    bad = 0
    for _ in range(probes):
        data = random_stripe(p, rng)
        C = systematic_encode(p, data)
        for idx, (i, node) in enumerate(lay.data_positions):
            if C.column(node)[i] != data[idx]:
                bad += 1
        got = read_systematic_data(
            p, {node: C.column(node) for _, node in lay.data_positions}
        )
        if got != data:
            bad += 1
    return bad


def _linearity_faults(p, rng, probes):
    f = p.field
    bad = 0
    for _ in range(probes):
        x = random_stripe(p, rng)
        y = random_stripe(p, rng)
        a = rng.randrange(1, f.q)
        b = rng.randrange(1, f.q)
        z = [f.add(f.mul(a, xj), f.mul(b, yj)) for xj, yj in zip(x, y)]
        mx = systematic_message_matrix(p, x).rows
        my = systematic_message_matrix(p, y).rows
        mz = systematic_message_matrix(p, z).rows
        combo = [
            [f.add(f.mul(a, u_), f.mul(b, v_)) for u_, v_ in zip(ru, rv)]
            for ru, rv in zip(mx, my)
        ]
        if mz != combo:
            bad += 1
    return bad


def test_criterion_6_systematic_transform():
    t0 = perf_counter()
    rng = random.Random(1006)
    bad = 0

    p = make_params(12, 7, 3, 3)
    pq = make_params(20, 11, 4, 4)

    # data symbols land uncoded at the layout's designated cells
    bad += _systematic_placement_faults(p, rng, 10)
    bad += _systematic_placement_faults(pq, rng, 10)

    # reconstruction from every k-subset, unchanged
    stripes = [_systematic_stripe(p, rng) for _ in range(100)]
    nodes = list(all_nodes(p))
    decodes = 0
    for ids in combinations(nodes, p.k):
        dec = Decoder(p, ids)
        for data, Mt, C, cols in stripes:
            got = dec.reconstruct(C.columns(ids))
            if got.rows != Mt.rows:
                bad += 1
            decodes += 1

    # sampled subsets for the larger geometry (C(20,11) is out of reach)
    stripes_q = [_systematic_stripe(pq, rng) for _ in range(3)]
    nodes_q = list(all_nodes(pq))
    for _ in range(300):
        ids = rng.sample(nodes_q, pq.k)
        dec = Decoder(pq, ids)
        for data, Mt, C, cols in stripes_q:
            if dec.reconstruct(C.columns(ids)).rows != Mt.rows:
                bad += 1
            decodes += 1

    # repair of every node, unchanged, same ledger
    repairs = 0
    for pp, reps, per in ((p, stripes, 100), (pq, stripes_q, 3)):
        for node in all_nodes(pp):
            rep = Repairer(pp, node)
            for data, Mt, C, cols in reps[:per]:
                survivors = {nd: c for nd, c in cols.items() if nd != node}
                column, ledger = rep.repair(survivors)
                if column != cols[node]:
                    bad += 1
                if ledger.cross_rack_symbols != pp.dbar * pp.beta:
                    bad += 1
                repairs += 1

    # local polynomial and leading vector identities, unchanged
    for data, Mt, C, cols in stripes[:100]:
        f = p.field
        m1 = Mt.m1()
        for e in range(p.nbar):
            coeffs = local_polynomial_coeffs(Mt, e)
            for g in range(p.u):
                node = NodeId(e, g)
                lam = evaluation_point(p, node)
                for i in range(p.dbar):
                    if poly_eval(f, coeffs[i], lam) != cols[node][i]:
                        bad += 1
            phi = [f.pow(rack_point(p, e), t) for t in range(p.dbar)]
            if leading_vector(p, cols, e) != mat_vec(f, m1, phi):
                bad += 1

    # the data -> matrix map is linear over the field
    bad += _linearity_faults(p, rng, 5)
    bad += _linearity_faults(pq, rng, 5)

    dt = perf_counter() - t0
    ok = bad == 0
    _report(
        6,
        ok,
        f"systematic placement, reconstruction ({decodes} decodes), repair "
        f"({repairs} repairs), identities, and linearity all bit-exact "
        f"({bad} faults, {dt:.1f}s)",
    )


# ------------------------------------------------------------ criterion 7


def test_criterion_7_storage_overhead():
    f8 = binary_field(8)
    pa = make_params(50, 44, 5, 9, field=f8)
    pb = make_params(200, 194, 5, 39, field=f8)
    ra = overhead_report(pa)
    rb = overhead_report(pb)
    two_dec = lambda fr: math.floor(fr * 100) / 100
    ok = (
        ra.storage_overhead == Fraction(450, 368)
        and rb.storage_overhead == Fraction(7800, 6863)
        and two_dec(ra.storage_overhead) == 1.22
        and two_dec(rb.storage_overhead) == 1.13
        and ra.bandwidth_to_storage == 1
        and rb.bandwidth_to_storage == 1
        and ra.repair_bandwidth == pa.alpha == 9
        and rb.repair_bandwidth == pb.alpha == 39
    )
    _report(
        7,
        ok,
        f"overhead {pa.n * pa.alpha}/{pa.B} ~ {float(ra.storage_overhead):.4f} "
        f"(racks of 5 x 10) and {pb.n * pb.alpha}/{pb.B} ~ "
        f"{float(rb.storage_overhead):.4f} (racks of 5 x 40) over GF(2^8); "
        f"repair bandwidth equals storage in both",
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_8_cli_round_trip(tmp_path):
    t0 = perf_counter()
    src = tmp_path / "big.bin"
    src.write_bytes(random.Random(1008).randbytes(1 << 20))
    shard_dir = tmp_path / "shards"
    rc_enc = main(
        ["encode", str(src), "12", "7", "3", "3", "--out", str(shard_dir)]
    )

    rng = random.Random(88)
    subset = rng.sample(sorted(os.listdir(shard_dir)), 7)
    restored = tmp_path / "restored.bin"
    rc_dec = main(
        ["decode", *(str(shard_dir / n) for n in subset), "--out", str(restored)]
    )
    byte_exact = restored.read_bytes() == src.read_bytes()

    victim = shard_dir / shard_filename(1, 2)
    want = hashlib.sha256(victim.read_bytes()).hexdigest()
    victim.unlink()
    rc_rep = main(["repair", str(shard_dir), "1", "2"])
    got = hashlib.sha256(victim.read_bytes()).hexdigest()

    dt = perf_counter() - t0
    ok = (
        rc_enc == rc_dec == rc_rep == 0
        and byte_exact
        and got == want
        and dt < 30.0
    )
    _report(
        8,
        ok,
        f"1 MiB file: encode, decode from a random 7-subset byte-exact, "
        f"erased shard repaired hash-identical ({dt:.1f}s < 30s)",
    )
