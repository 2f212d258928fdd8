import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mbrr.cluster import Cluster, InsufficientSurvivorsError, overhead_report
from mbrr.encode import encode
from mbrr.gf import binary_field, prime_field
from mbrr.layout import (
    CodeMatrix,
    NodeId,
    all_nodes,
    fill_message_matrix,
    make_params,
    unfill_message_matrix,
)
from mbrr.reconstruct import Decoder, oracle_reconstruct
from mbrr.repair import RepairModelError, Repairer, helper_racks
from mbrr.systematic import read_systematic_data, systematic_encode, systematic_nodes

from support import PARAM_SETS, SLAB_CASES, case_params, count_kernel_builds, params, random_stripe


def per_stripe_encodes(p, data, systematic):
    """Each stripe's code matrix through the per-stripe encoders."""
    if systematic:
        return [systematic_encode(p, d) for d in data]
    return [encode(fill_message_matrix(p, d)) for d in data]


def loaded_cluster(p, rng, stripes=4, systematic=False):
    data = [random_stripe(p, rng) for _ in range(stripes)]
    c = Cluster(p, systematic=systematic)
    c.store_stripes(per_stripe_encodes(p, data, systematic))
    return data, c


# ---------------------------------------------------------------- basics


def test_store_and_read_round_trip():
    p = params("reference")
    rng = random.Random(400)
    data, c = loaded_cluster(p, rng)
    assert c.stripe_count == 4
    assert c.read_data() == data
    assert len(c.healthy_nodes()) == p.n


def test_node_shard_returns_stored_columns():
    p = params("reference")
    rng = random.Random(401)
    data, c = loaded_cluster(p, rng, stripes=2)
    mats = [encode(fill_message_matrix(p, d)) for d in data]
    shard = c.node_shard(NodeId(0, 0))
    assert shard == [m.column(NodeId(0, 0)) for m in mats]


def test_restore_replaces_content():
    p = params("reference")
    rng = random.Random(402)
    data1, c = loaded_cluster(p, rng, stripes=3)
    data2 = [random_stripe(p, rng) for _ in range(2)]
    c.store_stripes([encode(fill_message_matrix(p, d)) for d in data2])
    assert c.stripe_count == 2
    assert c.read_data() == data2


def test_store_validates():
    p = params("reference")
    q = params("wide")
    rng = random.Random(403)
    c = Cluster(p)
    with pytest.raises(ValueError, match="match"):
        c.store_stripes([encode(fill_message_matrix(q, random_stripe(q, rng)))])
    M = encode(fill_message_matrix(p, random_stripe(p, rng)))
    with pytest.raises(ValueError, match="12"):
        c.store_stripes([CodeMatrix(p, [row[:-1] for row in M.rows])])
    c.store_stripes([M])
    c.fail_node(NodeId(0, 0))
    with pytest.raises(RepairModelError, match="failed"):
        c.store_stripes([M])


@pytest.mark.parametrize("name", ["reference", "quads"])
def test_store_refuses_non_field_symbols(name):
    """Stored symbols follow the data-symbol rule: plain ints in [0, q)."""
    p = params(name)
    rng = random.Random(405)
    mats = [encode(fill_message_matrix(p, random_stripe(p, rng))) for _ in range(3)]
    col = list(all_nodes(p)).index(NodeId(1, 2))
    for bad in (p.field.q, -1, "7", True, 1.0):
        rows = [list(row) for row in mats[2].rows]
        rows[1][col] = bad
        c = Cluster(p)
        with pytest.raises(ValueError, match=r"stripe 2: node NodeId\(e=1, g=2\)"):
            c.store_stripes(mats[:2] + [CodeMatrix(p, rows)])
        assert c.stripe_count == 0


# ---------------------------------------------------------------- store_data


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(SLAB_CASES),
    systematic=st.booleans(),
    stripes=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    draw=st.data(),
)
def test_store_data_matches_store_stripes(case, systematic, stripes, seed, draw):
    """``store_data``'s one slab map stores what ``store_stripes`` stores
    of the per-stripe encodes, binary and prime fields, plain and
    systematic; reads, a degraded read and a repair then give it back."""
    p = case_params(case)
    rng = random.Random(seed)
    data = [random_stripe(p, rng) for _ in range(stripes)]
    want = Cluster(p, systematic)
    want.store_stripes(per_stripe_encodes(p, data, systematic))
    c = Cluster(p, systematic)
    c.store_data(data)
    nodes = list(all_nodes(p))
    assert c.stripe_count == stripes
    assert [c.node_shard(n) for n in nodes] == [want.node_shard(n) for n in nodes]
    assert c.read_data() == data

    victim = draw.draw(st.sampled_from(nodes))
    before = c.node_shard(victim)
    c.fail_node(victim)
    assert c.read_data() == data
    c.repair_failed(victim)
    assert c.node_shard(victim) == before
    assert c.read_data() == data


@pytest.mark.parametrize("name", ["reference", "quads"])
@pytest.mark.parametrize("systematic", [False, True])
def test_store_data_refuses_bad_stripes(name, systematic):
    """A stripe of the wrong length or with a symbol that is not a field
    element is refused by name and stores nothing; so is any store while
    a node is down."""
    p = params(name)
    rng = random.Random(418)
    data = [random_stripe(p, rng) for _ in range(3)]
    c = Cluster(p, systematic)
    c.store_data(data)
    other = [random_stripe(p, rng) for _ in range(3)]
    with pytest.raises(ValueError, match=f"stripe 1: expected {p.B} data symbols, got {p.B - 1}"):
        c.store_data([other[0], other[1][:-1], other[2]])
    for bad in (p.field.q, -1, "7", True, 1.0):
        stripe = list(other[2])
        stripe[5] = bad
        with pytest.raises(ValueError, match=f"stripe 2: data symbol {bad!r} is not an element"):
            c.store_data(other[:2] + [stripe])
    assert c.stripe_count == 3
    assert c.read_data() == data
    c.fail_node(NodeId(1, 1))
    with pytest.raises(RepairModelError, match="failed"):
        c.store_data(other)
    assert c.read_data() == data


# ---------------------------------------------------------------- failures


def test_fail_then_shard_access_errors():
    p = params("reference")
    rng = random.Random(404)
    data, c = loaded_cluster(p, rng)
    c.fail_node(NodeId(1, 2))
    assert not c.is_healthy(NodeId(1, 2))
    with pytest.raises(RepairModelError, match="unavailable"):
        c.node_shard(NodeId(1, 2))
    with pytest.raises(ValueError, match="already"):
        c.fail_node(NodeId(1, 2))
    assert c.failed_nodes() == [NodeId(1, 2)]


NODE_STATE_CASES = [((12, 8, 2, 4), prime_field(13)), ((12, 7, 3, 3), binary_field(4))]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(NODE_STATE_CASES),
    systematic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    draw=st.data(),
)
def test_node_state_matches_a_model(case, systematic, seed, draw):
    """Random store, fail, repair, read and shard calls against a model set
    of failed nodes: the cluster's node queries agree with the model after
    every call, each call raises exactly where the model says it must, and
    every read and shard gives back what was stored."""
    p = case_params(case)
    rng = random.Random(seed)
    nodes = list(all_nodes(p))
    c = Cluster(p, systematic)
    failed, data, shards = set(), [], {n: [] for n in nodes}
    for _ in range(draw.draw(st.integers(1, 16))):
        op = draw.draw(st.sampled_from(["store", "fail", "repair", "read", "shard"]))
        node = draw.draw(st.sampled_from(nodes))
        if op == "store":
            new = [random_stripe(p, rng) for _ in range(rng.randrange(4))]
            if failed:
                with pytest.raises(RepairModelError, match="cannot store stripes with failed nodes"):
                    c.store_data(new)
            else:
                c.store_data(new)
                data, shards = new, {n: c.node_shard(n) for n in nodes}
        elif op == "fail":
            if node in failed:
                with pytest.raises(ValueError, match="already failed"):
                    c.fail_node(node)
            else:
                c.fail_node(node)
                failed.add(node)
        elif op == "repair":
            mates = {NodeId(node.e, g) for g in range(p.u)} - {node}
            racks = [
                e for e in range(p.nbar)
                if e != node.e and not {NodeId(e, g) for g in range(p.u)} & failed
            ]
            if node not in failed:
                with pytest.raises(ValueError, match="is healthy: nothing to repair"):
                    c.repair_failed(node)
            elif mates & failed or len(racks) < p.dbar:
                with pytest.raises(RepairModelError):
                    c.repair_failed(node)
            else:
                c.repair_failed(node)
                failed.discard(node)
        elif op == "read":
            survivors = draw.draw(st.none() | st.permutations(nodes).map(lambda ns: ns[: p.k]))
            if len(failed) > p.n - p.k:
                with pytest.raises(InsufficientSurvivorsError):
                    c.read_data(survivors)
            elif survivors is not None and set(survivors) & failed:
                with pytest.raises(RepairModelError, match="has failed"):
                    c.read_data(survivors)
            else:
                assert c.read_data(survivors) == data
        elif node in failed:
            with pytest.raises(RepairModelError, match="has failed"):
                c.node_shard(node)
        else:
            assert c.node_shard(node) == shards[node]
        assert c.failed_nodes() == sorted(failed)
        assert c.healthy_nodes() == [n for n in nodes if n not in failed]
        assert [c.is_healthy(n) for n in nodes] == [n not in failed for n in nodes]


def test_reads_survive_n_minus_k_failures():
    p = params("reference")
    rng = random.Random(405)
    data, c = loaded_cluster(p, rng)
    for node in [NodeId(0, 0), NodeId(1, 1), NodeId(2, 2), NodeId(3, 0), NodeId(3, 2)]:
        c.fail_node(node)
    assert c.read_data() == data  # n - k = 5 failures is the design point


def test_read_beyond_redundancy_is_refused():
    p = params("reference")
    rng = random.Random(406)
    data, c = loaded_cluster(p, rng)
    victims = [NodeId(0, 0), NodeId(0, 1), NodeId(1, 0), NodeId(1, 1), NodeId(2, 0), NodeId(2, 1)]
    for node in victims:
        c.fail_node(node)
    with pytest.raises(InsufficientSurvivorsError, match="k=7"):
        c.read_data()


def test_read_with_explicit_survivors():
    p = params("reference")
    rng = random.Random(407)
    data, c = loaded_cluster(p, rng)
    nodes = list(all_nodes(p))
    assert c.read_data(survivors=nodes[-p.k :]) == data
    # The read takes its nodes from the column map it builds, where a
    # repeated survivor would collapse into fewer than k nodes: refused.
    for survivors in (nodes[-p.k : -1] + nodes[-2:-1], nodes[: p.k - 1] + nodes[:1]):
        with pytest.raises(ValueError, match="duplicate"):
            c.read_data(survivors=survivors)
    with pytest.raises(ValueError, match="outside"):
        c.read_data(survivors=nodes[: p.k - 1] + [NodeId(p.nbar, 0)])
    c.fail_node(NodeId(0, 0))
    with pytest.raises(RepairModelError, match="failed"):
        c.read_data(survivors=nodes[: p.k])


def test_cluster_cycle_builds_one_kernel(monkeypatch):
    """The params own the one slab kernel of a cluster's whole life: a
    store, read, fail, degraded read, repair, read cycle over GF(13) builds
    no other."""
    built = count_kernel_builds(monkeypatch)
    p = make_params(12, 8, 2, 4)
    data, c = loaded_cluster(p, random.Random(412))
    assert c.read_data() == data
    c.fail_node(NodeId(0, 0))
    assert c.read_data() == data
    c.repair_failed(NodeId(0, 0))
    assert c.read_data() == data
    assert built == [prime_field(13)]
    assert p.kernel.field is p.field


# ---------------------------------------------------------------- repair


def test_repair_restores_bit_exact_state():
    rng = random.Random(408)
    for name in ("reference", "pairs"):
        p = params(name)
        data, c = loaded_cluster(p, rng)
        victim = NodeId(1, 0)
        before = c.node_shard(victim)
        c.fail_node(victim)
        ledger = c.repair_failed(victim)
        assert c.node_shard(victim) == before
        assert c.is_healthy(victim)
        assert ledger.cross_rack_symbols == p.dbar * p.beta * c.stripe_count
        assert sum(ledger.per_helper.values()) == ledger.cross_rack_symbols
        assert c.read_data() == data


def _round_trip(p, seed):
    """A healthy read, a read with node (0,1) down and that node's repair
    give back what was stored, with a stripe of all q-1 among random ones."""
    rng = random.Random(seed)
    data = [random_stripe(p, rng) for _ in range(30)] + [[p.field.q - 1] * p.B]
    c = Cluster(p)
    c.store_stripes([encode(fill_message_matrix(p, d)) for d in data])
    assert c.read_data() == data
    victim = NodeId(0, 1)  # one of the k nodes a healthy read uses
    before = c.node_shard(victim)
    c.fail_node(victim)
    assert c.read_data() == data
    c.repair_failed(victim)
    assert c.node_shard(victim) == before


@pytest.mark.parametrize("q", [257, 65537])
def test_wide_prime_field_round_trips(q):
    """(12,8,2,4) over GF(257) and GF(65537) runs every map on four- and
    eight-byte packed lanes."""
    _round_trip(make_params(12, 8, 2, 4, prime_field(q)), q)


@pytest.mark.parametrize("m", [4, 10, 16])
def test_binary_field_round_trips(m):
    """(12,7,3,3) over GF(2^4), GF(2^10) and GF(2^16) runs every map
    bit-serial on one- and two-byte packed lanes, GF(2^10) filling only
    ten bits of its two bytes."""
    _round_trip(make_params(12, 7, 3, 3, binary_field(m)), m)


def test_repair_requires_failed_node():
    p = params("reference")
    rng = random.Random(409)
    data, c = loaded_cluster(p, rng)
    with pytest.raises(ValueError, match="healthy"):
        c.repair_failed(NodeId(0, 0))


def test_repair_rejects_second_failure_in_rack():
    p = params("reference")
    rng = random.Random(410)
    data, c = loaded_cluster(p, rng)
    c.fail_node(NodeId(2, 0))
    c.fail_node(NodeId(2, 1))
    with pytest.raises(RepairModelError, match="single"):
        c.repair_failed(NodeId(2, 0))


def test_default_helper_racks_skip_unhealthy_racks():
    """Failures elsewhere shrink the helper pool; the policy must choose
    only fully healthy racks."""
    p = params("wide")  # 5 racks, dbar = 3
    rng = random.Random(411)
    data, c = loaded_cluster(p, rng)
    c.fail_node(NodeId(0, 0))
    c.fail_node(NodeId(2, 0))
    ledger = c.repair_failed(NodeId(0, 0))
    assert sorted(ledger.per_helper) == [1, 3, 4]
    assert c.read_data() == data


def test_repair_without_enough_healthy_racks():
    p = params("reference")  # 4 racks, dbar = 3: no slack at all
    rng = random.Random(412)
    data, c = loaded_cluster(p, rng)
    c.fail_node(NodeId(0, 0))
    c.fail_node(NodeId(2, 0))
    with pytest.raises(RepairModelError, match="helper"):
        c.repair_failed(NodeId(0, 0))


def test_explicit_unhealthy_helper_rejected():
    p = params("wide")
    rng = random.Random(413)
    data, c = loaded_cluster(p, rng)
    c.fail_node(NodeId(0, 0))
    c.fail_node(NodeId(2, 0))
    with pytest.raises(RepairModelError, match="not fully healthy"):
        c.repair_failed(NodeId(0, 0), helpers=[1, 2, 3])
    with pytest.raises(ValueError, match="own rack"):
        c.repair_failed(NodeId(0, 0), helpers=[0, 1, 3])
    ledger = c.repair_failed(NodeId(0, 0), helpers=[1, 3, 4])
    assert sorted(ledger.per_helper) == [1, 3, 4]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PARAM_SETS)), seed=st.integers(0, 2**32 - 1), draw=st.data())
def test_helper_racks_is_the_one_default_policy(name, seed, draw):
    """``helper_racks`` is the least dbar-subset of fully healthy racks
    outside the host rack, and ``Cluster.repair_failed`` repairs with it."""
    p = params(name)
    nodes = list(all_nodes(p))
    failed = draw.draw(
        st.lists(st.sampled_from(nodes), unique=True, min_size=1, max_size=p.n - p.k)
    )
    target, healthy = failed[0], [n for n in nodes if n not in failed]
    assert helper_racks(p, target) == min(
        c for c in combinations(range(p.nbar), p.dbar) if target.e not in c
    )
    whole = [e for e in range(p.nbar) if e != target.e and not any(f.e == e for f in failed)]
    choices = list(combinations(whole, p.dbar))
    if choices:
        assert helper_racks(p, target, healthy) == min(choices)
    else:
        with pytest.raises(
            RepairModelError,
            match=f"only {len(whole)} fully healthy helper racks available, need dbar={p.dbar}",
        ):
            helper_racks(p, target, healthy)

    data, c = loaded_cluster(p, random.Random(seed), stripes=2)
    for node in failed:
        c.fail_node(node)
    if choices and not any(f.e == target.e for f in failed[1:]):
        ledger = c.repair_failed(target)
        assert tuple(sorted(ledger.per_helper)) == helper_racks(p, target, healthy)
        assert c.read_data() == data
    else:
        with pytest.raises(RepairModelError):
            c.repair_failed(target)


def test_deterministic_replay():
    """The same script on a fresh cluster reproduces ledgers and state."""
    p = params("reference")

    def run():
        rng = random.Random(414)
        data, c = loaded_cluster(p, rng, stripes=3)
        c.fail_node(NodeId(1, 1))
        led1 = c.repair_failed(NodeId(1, 1))
        c.fail_node(NodeId(3, 0))
        led2 = c.repair_failed(NodeId(3, 0))
        shards = {tuple(n): c.node_shard(n) for n in all_nodes(p)}
        return led1, led2, shards, c.read_data()

    a = run()
    b = run()
    assert a == b


# ---------------------------------------------------------------- systematic


def test_systematic_fast_path_equals_decode_path():
    p = params("reference")
    rng = random.Random(415)
    data, c = loaded_cluster(p, rng, systematic=True)
    fast = c.read_data()
    assert fast == data
    # force the decoding path by failing one systematic node
    c.fail_node(NodeId(0, 1))
    assert c.read_data() == fast


def test_systematic_cluster_repairs_systematic_node():
    p = params("quads")
    rng = random.Random(416)
    data, c = loaded_cluster(p, rng, stripes=2, systematic=True)
    victim = NodeId(0, 3)  # holds a derived cell plus data cells
    before = c.node_shard(victim)
    c.fail_node(victim)
    c.repair_failed(victim)
    assert c.node_shard(victim) == before
    assert c.read_data() == data


# ---------------------------------------------------------------- slab engine


def per_stripe_read(p, mats, survivors, systematic):
    """Per-stripe data through ``oracle_reconstruct``, the slab read's oracle."""
    out = []
    for C in mats:
        M = oracle_reconstruct(p, C.columns(survivors))
        if systematic:
            out.append(read_systematic_data(p, encode(M).columns(systematic_nodes(p))))
        else:
            out.append(unfill_message_matrix(M))
    return out


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PARAM_SETS)),
    systematic=st.booleans(),
    stripes=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    draw=st.data(),
)
def test_cluster_matches_per_stripe_oracles(name, systematic, stripes, seed, draw):
    p = params(name)
    rng = random.Random(seed)
    data, c = loaded_cluster(p, rng, stripes, systematic)
    mats = per_stripe_encodes(p, data, systematic)
    nodes = list(all_nodes(p))

    victim = draw.draw(st.sampled_from(nodes))
    helpers = sorted(rng.sample([e for e in range(p.nbar) if e != victim.e], p.dbar))
    before = c.node_shard(victim)
    assert before == [C.column(victim) for C in mats]
    c.fail_node(victim)
    ledger = c.repair_failed(victim, helpers)
    assert c.node_shard(victim) == before
    rep = Repairer(p, victim, helpers)
    assert [rep.repair({n: C.column(n) for n in nodes if n != victim})[0] for C in mats] == before
    assert ledger.cross_rack_symbols == p.dbar * p.beta * stripes
    assert ledger.per_helper == {e: stripes for e in helpers}
    assert ledger.intra_rack_symbols == (p.u - 1) * p.alpha * stripes

    failed = draw.draw(st.lists(st.sampled_from(nodes), unique=True, max_size=p.n - p.k))
    for node in failed:
        c.fail_node(node)
    healthy = [n for n in nodes if n not in failed]
    survivors = sorted(rng.sample(healthy, p.k))
    assert c.read_data() == data
    assert c.read_data(survivors) == data == per_stripe_read(p, mats, survivors, systematic)
    assert c.read_data(healthy[: p.k]) == per_stripe_read(p, mats, healthy[: p.k], systematic)


@pytest.mark.parametrize("systematic", [False, True])
def test_cluster_never_runs_the_per_stripe_engine(monkeypatch, systematic):
    def refuse(*args, **kwargs):
        raise AssertionError("Cluster ran a per-stripe path")

    monkeypatch.setattr(Decoder, "reconstruct", refuse)
    monkeypatch.setattr(Repairer, "repair", refuse)
    p = params("quads")
    data, c = loaded_cluster(p, random.Random(417), stripes=3, systematic=systematic)
    with monkeypatch.context() as patch:
        if systematic:  # intact systematic nodes are read, not decoded
            patch.setattr(Decoder, "decode_slabs", refuse)
        assert c.read_data() == data
    c.fail_node(NodeId(0, 1))  # a systematic node: the read decodes and re-encodes
    assert c.read_data() == data
    assert c.repair_failed(NodeId(0, 1)).cross_rack_symbols == p.dbar * 3
    assert c.read_data(list(all_nodes(p))[-p.k :]) == data


# ---------------------------------------------------------------- overhead


def test_overhead_report_reference_fractions():
    rep = overhead_report(make_params(50, 44, 5, 9, field=binary_field(8)))
    assert rep.storage_overhead == Fraction(450, 368)
    assert rep.repair_bandwidth == 9
    assert rep.bandwidth_to_storage == 1
    rep = overhead_report(make_params(200, 194, 5, 39, field=binary_field(8)))
    assert rep.storage_overhead == Fraction(7800, 6863)
    assert rep.repair_bandwidth == 39


def test_overhead_bandwidth_ratio_is_always_one():
    for name in ("reference", "wide", "aligned", "pairs", "quads"):
        rep = overhead_report(params(name))
        assert rep.bandwidth_to_storage == 1
        assert rep.repair_bandwidth == params(name).alpha
