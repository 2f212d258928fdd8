import random
import re
from itertools import combinations

import pytest

from mbrr.encode import encode
from mbrr.layout import IntegrityError, NodeId, all_nodes, fill_message_matrix
from mbrr.reconstruct import Decoder, oracle_reconstruct, reconstruct

from support import PARAM_SETS, params, random_stripe, encoded


def observe(cols, ids):
    return {n: cols[n] for n in ids}


def test_reconstruct_from_sampled_subsets():
    rng = random.Random(100)
    for name in PARAM_SETS:
        p = params(name)
        nodes = list(all_nodes(p))
        for _ in range(5):
            data, C, cols = encoded(p, rng)
            for _ in range(8):
                ids = sorted(rng.sample(nodes, p.k))
                M = reconstruct(p, observe(cols, ids))
                assert M.rows == fill_message_matrix(p, data).rows


def test_every_subset_small_geometry():
    """All C(8,5) = 56 subsets on the two-per-rack geometry."""
    p = params("pairs")
    rng = random.Random(101)
    data, C, cols = encoded(p, rng)
    nodes = list(all_nodes(p))
    for picks in combinations(nodes, p.k):
        M = reconstruct(p, observe(cols, list(picks)))
        assert M.rows == fill_message_matrix(p, data).rows


def test_decoder_reuse_across_stripes():
    p = params("reference")
    rng = random.Random(102)
    nodes = list(all_nodes(p))
    ids = sorted(rng.sample(nodes, p.k))
    dec = Decoder(p, ids)
    for _ in range(20):
        data, C, cols = encoded(p, rng)
        M = dec.reconstruct(observe(cols, ids))
        assert M.rows == fill_message_matrix(p, data).rows


def test_observation_validation():
    p = params("reference")
    rng = random.Random(103)
    data, C, cols = encoded(p, rng)
    nodes = list(all_nodes(p))
    good = observe(cols, nodes[: p.k])
    last = nodes[p.k - 1]
    with pytest.raises(ValueError, match="exactly k"):
        reconstruct(p, observe(cols, nodes[: p.k - 1]))
    short = {**good, last: good[last][:-1]}
    with pytest.raises(ValueError, match="alpha"):
        reconstruct(p, short)
    bad_node = observe(cols, nodes[: p.k - 1])
    bad_node[NodeId(7, 7)] = good[last]
    with pytest.raises(ValueError):
        reconstruct(p, bad_node)
    dec = Decoder(p, list(good))
    other = observe(cols, nodes[1 : p.k + 1])
    with pytest.raises(ValueError, match="do not match"):
        dec.reconstruct(other)


@pytest.mark.parametrize("name", ["reference", "pairs"])  # GF(2^4), GF(11)
def test_decoder_refuses_non_field_symbols(name):
    """A column symbol that is not a plain int in [0, q) is refused, not
    reduced: over a prime field, v + q would otherwise decode as v."""
    p = params(name)
    rng = random.Random(104)
    data, C, cols = encoded(p, rng)
    ids = list(all_nodes(p))[: p.k]
    node = ids[1]
    for bad in (cols[node][0] + p.field.q, p.field.q, -1, "7", True, 1.0):
        obs = observe(cols, ids)
        obs[node] = [bad, *obs[node][1:]]
        with pytest.raises(ValueError, match=re.escape(f"node {node!r} symbol {bad!r} is not")):
            reconstruct(p, obs)
        with pytest.raises(ValueError, match="is not an element"):
            Decoder(p, ids).reconstruct(obs)


# ---------------------------------------------------------------- oracle


def test_oracle_matches_structured_decoder():
    rng = random.Random(105)
    for name in PARAM_SETS:
        p = params(name)
        nodes = list(all_nodes(p))
        for _ in range(10):
            data, C, cols = encoded(p, rng)
            ids = sorted(rng.sample(nodes, p.k))
            obs = observe(cols, ids)
            assert oracle_reconstruct(p, obs).rows == reconstruct(p, obs).rows


def test_oracle_uses_extra_columns():
    p = params("reference")
    rng = random.Random(106)
    data, C, cols = encoded(p, rng)
    obs = observe(cols, list(all_nodes(p)))  # all n columns
    assert oracle_reconstruct(p, obs).rows == fill_message_matrix(p, data).rows
    with pytest.raises(ValueError, match="at least k"):
        oracle_reconstruct(p, observe(cols, list(all_nodes(p))[: p.k - 1]))


def test_oracle_detects_any_single_flip_given_redundancy():
    """With one spare column every symbol is cross-checked, so any single
    corrupted symbol leaves no consistent stripe at all."""
    p = params("pairs")
    rng = random.Random(107)
    data, C, cols = encoded(p, rng)
    nodes = list(all_nodes(p))
    ids = nodes[: p.k + 1]
    for victim in range(len(ids)):
        for row in range(p.alpha):
            tampered = {n: list(cols[n]) for n in ids}
            delta = rng.randrange(1, p.field.q)
            tampered[ids[victim]][row] = p.field.add(
                tampered[ids[victim]][row], delta
            )
            with pytest.raises(IntegrityError, match="inconsistent"):
                oracle_reconstruct(p, observe(tampered, ids))


def test_structured_decoder_flags_most_corruption():
    """Exactly k columns are still overdetermined; a flip either trips the
    structure checks or decodes to a different, self-consistent stripe."""
    p = params("reference")
    rng = random.Random(108)
    nodes = list(all_nodes(p))
    detected = 0
    trials = 40
    for _ in range(trials):
        data, C, cols = encoded(p, rng)
        ids = sorted(rng.sample(nodes, p.k))
        victim = rng.choice(ids)
        row = rng.randrange(p.alpha)
        tampered = {n: list(cols[n]) for n in ids}
        tampered[victim][row] ^= rng.randrange(1, p.field.q)
        try:
            M = reconstruct(p, observe(tampered, ids))
        except IntegrityError:
            detected += 1
        else:
            assert M.rows != fill_message_matrix(p, data).rows
    assert detected >= trials // 2
