"""Shared helpers for the test suite."""

import random

from mbrr import NodeId, all_nodes, encode, fill_message_matrix, make_params
from mbrr.gf import binary_field, prime_field
from mbrr.repair import rack_lagrange
from mbrr.slab import SlabKernel

# Geometry of every set: n nodes in racks of u, any k readable, dbar helper
# racks per repair. "pairs" and "quads" have even u and land in prime fields;
# "aligned" has k an exact multiple of u (u0 = 0).
PARAM_SETS = {
    "reference": (12, 7, 3, 3),
    "wide": (15, 7, 3, 3),
    "aligned": (12, 6, 3, 3),
    "pairs": (8, 5, 2, 3),
    "quads": (20, 11, 4, 4),
}

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

_cache = {}


def params(name):
    got = _cache.get(name)
    if got is None:
        got = _cache.setdefault(name, make_params(*PARAM_SETS[name]))
    return got


def random_stripe(p, rng):
    return [rng.randrange(p.field.q) for _ in range(p.B)]


def coded_columns(C):
    """Node-keyed columns of a code matrix."""
    return {node: C.column(node) for node in all_nodes(C.params)}


def encoded(p, rng):
    """(data, CodeMatrix, columns) for one random stripe."""
    data = random_stripe(p, rng)
    C = encode(fill_message_matrix(p, data))
    return data, C, coded_columns(C)


def leading_vector(p, cols, e):
    """h_e by definition: row i's degree-(u-1) coefficient through rack e's
    u stored symbols of that row."""
    interp = rack_lagrange(p, e)
    return [
        interp.interpolate([cols[NodeId(e, g)][i] for g in range(p.u)])[p.u - 1]
        for i in range(p.dbar)
    ]


def count_kernel_builds(monkeypatch):
    """A list that records the field of every ``SlabKernel`` built from now on."""
    built = []
    real = SlabKernel.__init__

    def counting(self, field):
        built.append(field)
        real(self, field)

    monkeypatch.setattr(SlabKernel, "__init__", counting)
    return built
