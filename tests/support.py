"""Shared helpers for the test suite."""

import random

from mbrr import Decoder, NodeId, all_nodes, encode, fill_message_matrix, make_params
from mbrr.encode import encode_slabs
from mbrr.gf import binary_field, prime_field
from mbrr.repair import rack_lagrange
from mbrr.slab import SlabKernel
from mbrr.systematic import read_systematic_data, systematic_nodes

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


def case_params(case):
    """Params of a SLAB_CASES entry, made once, so its precoding map is
    built once per test session."""
    got = _cache.get(case)
    if got is None:
        geo, field = case
        got = _cache.setdefault(case, make_params(*geo, field=field))
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


def reference_split(kernel, buf, count):
    """The reference definition of ``kernel.split``: slab r is lanes r,
    r + count, ... of a ``memoryview`` cast to the kernel's symbol lanes."""
    view = memoryview(buf).cast(kernel._format)
    return [view[r::count].tobytes() for r in range(count)]


def reference_join(kernel, slabs):
    """The reference definition of ``kernel.join``: equal slabs interleaved
    lane by lane through ``memoryview`` casts; the inverse of
    ``reference_split``."""
    count = len(slabs)
    out = bytearray(sum(map(len, slabs)))
    view = memoryview(out).cast(kernel._format)
    for r, slab in enumerate(slabs):
        view[r::count] = memoryview(slab).cast(kernel._format)
    return bytes(out)


def reference_systematic_read(p, columns):
    """The systematic read by composition, the reference for
    ``Decoder.rebuild_slabs``: decode all B slots from the k nodes that
    ``columns`` maps to their slabs, then encode the systematic nodes that
    were not read, and take the data cells of the systematic columns."""
    dec = Decoder(p, list(columns))
    data = dec.decode_slabs(columns)
    front = systematic_nodes(p)
    front_cols = {node: columns[node] for node in front if node in dec.ids}
    front_cols.update(encode_slabs(p, data, [node for node in front if node not in dec.ids]))
    return read_systematic_data(p, front_cols)
