"""Code geometry: parameters, node labels, column index sets, evaluation
points, and the message-matrix fill conventions.

A code instance spreads n = nbar * u nodes over nbar racks of u nodes each.
Any k nodes suffice to recover a stripe; writing k = kbar * u + u0 with
0 <= u0 < u, a repair contacts dbar helper racks, kbar <= dbar <= nbar - 1.
Each node stores alpha = dbar symbols per stripe and a stripe carries

    B = k * dbar - kbar * (kbar - 1) / 2

data symbols.

The message matrix M has dbar rows and one column for each degree in the
set J = J1 | J2, kept in ascending degree order:

    J1 = { t*u + u-1 : 0 <= t < dbar }          (one degree per helper rack)
    J2 = [0, k-1] \\ J1

Every degree below k is in J and every other one is t*u + u-1, t >= kbar,
so matrix columns 0..k-1 hold degrees 0..k-1. The columns indexed by J1
form the square block M1, which is symmetric with a zero lower-right
(dbar-kbar) x (dbar-kbar) corner. Row i of M, read as polynomial
coefficients, is the row polynomial evaluated at the node points

    lambda(e, g) = xi**e * eta**g

where xi generates the multiplicative group and eta = xi**((q-1)/u) has
order exactly u. Requiring q > n makes all n points distinct.

Fill convention (load-bearing, do not reorder): data symbols are assigned to
matrix cells by walking columns in ascending degree order and rows top-down
inside each column, skipping cells that are structural zeros of M1 and cells
whose value is already forced by M1's symmetry. Exactly B cells receive a
symbol. ``unfill_message_matrix`` walks the same order in reverse and checks
the symmetry and zero constraints as it goes.

What the geometry alone fixes, here and in other modules, is built once per
``CodeParams`` by functions wrapped in ``cached_on_params``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import gf
from .gf import Field
from .slab import SlabKernel

__all__ = [
    "IntegrityError",
    "NodeId",
    "CodeParams",
    "make_params",
    "cached_on_params",
    "index_sets",
    "column_positions",
    "evaluation_points",
    "evaluation_point",
    "node_index",
    "all_nodes",
    "fill_plan",
    "fill_message_matrix",
    "unfill_message_matrix",
    "check_square_block",
    "check_columns",
    "MessageMatrix",
    "validate_symbols",
    "validate_data",
    "CodeMatrix",
]


class IntegrityError(ValueError):
    """Stored structure violates a required symmetry or zero constraint."""


class NodeId(NamedTuple):
    """Node label: rack index e and in-rack position g."""

    e: int
    g: int


@dataclass(frozen=True, eq=False)
class CodeParams:
    """Validated parameter bundle for one code instance.

    Instances are immutable and compare by identity; derived artifacts
    (index sets, evaluation points, fill plans, the encoding matrix) are
    cached on the instance after first use, by ``cached_on_params``.
    ``kernel``, the ``slab.SlabKernel`` of the field, runs every slab map of
    the code; its lane masks live as long as the params.
    """

    n: int
    k: int
    u: int
    nbar: int
    kbar: int
    u0: int
    dbar: int
    alpha: int
    beta: int
    B: int
    field: Field
    xi: int
    eta: int
    kernel: SlabKernel = dc_field(repr=False)
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __str__(self):
        return (
            f"(n={self.n}, k={self.k}, u={self.u}, dbar={self.dbar}) over {self.field!r}"
        )


def _check_field(field: Field, n: int, u: int) -> None:
    if field.q <= n:
        raise ValueError(
            f"{field!r} has only {field.q} elements; need more than n={n} "
            f"for distinct evaluation points"
        )
    if (field.q - 1) % u:
        raise ValueError(
            f"{field!r} has no element of multiplicative order u={u}: "
            f"{u} does not divide q-1={field.q - 1}"
        )


def make_params(
    n: int,
    k: int,
    u: int,
    dbar: int,
    field: Field | None = None,
) -> CodeParams:
    """Validate raw code parameters and derive the full bundle.

    ``field`` fixes the field, e.g. ``gf.binary_field(8)`` for GF(2^8) or
    ``gf.prime_field(13)``; it must have more than n elements and an element
    of order u. Without it, the smallest such GF(2^m) with m <= 16 is
    chosen when one exists (``gf.binary_field_for``; never for even u), even
    where a smaller prime field would fit; else the smallest such prime field.
    """
    for name, v in (("n", n), ("k", k), ("u", u), ("dbar", dbar)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name}={v!r} is not an integer")
    if u < 2:
        raise ValueError(f"u={u}: at least two nodes per rack required")
    if n % u:
        raise ValueError(f"rack size u={u} does not divide n={n}")
    nbar = n // u
    if k < u:
        raise ValueError(f"k={k} must be at least the rack size u={u}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    kbar, u0 = divmod(k, u)
    if dbar < kbar:
        raise ValueError(f"dbar={dbar} is below the admissible minimum kbar={kbar}")
    if dbar > nbar - 1:
        raise ValueError(
            f"dbar={dbar} exceeds the available helper racks nbar-1={nbar - 1}"
        )
    if field is None:
        field = gf.binary_field_for(n, u, range(1, 17)) or gf.prime_field_for(n, u)
    _check_field(field, n, u)
    B = k * dbar - kbar * (kbar - 1) // 2
    return CodeParams(
        n=n,
        k=k,
        u=u,
        nbar=nbar,
        kbar=kbar,
        u0=u0,
        dbar=dbar,
        alpha=dbar,
        beta=1,
        B=B,
        field=field,
        xi=field.primitive_element(),
        eta=field.element_of_order(u),
        kernel=SlabKernel(field),
    )


def cached_on_params(fn):
    """Decorator: cache ``fn(p, *args)`` on the params ``p``, one entry per
    positional ``args``. Every caller gets the same object, so results must
    be treated as read-only."""

    @functools.wraps(fn)
    def cached(p: CodeParams, *args):
        key = (fn, *args)
        got = p._cache.get(key)
        if got is None:
            got = p._cache.setdefault(key, fn(p, *args))
        return got

    return cached


@cached_on_params
def index_sets(p: CodeParams) -> tuple:
    """Column degree sets (J1, J2, J), each ascending."""
    j1 = tuple(t * p.u + p.u - 1 for t in range(p.dbar))
    j2 = tuple(j for j in range(p.k) if j % p.u != p.u - 1)
    return j1, j2, tuple(sorted(set(j1) | set(j2)))


@cached_on_params
def column_positions(p: CodeParams) -> dict:
    """Map from degree j in J to its column position in the message matrix."""
    return {v: i for i, v in enumerate(index_sets(p)[2])}


@cached_on_params
def evaluation_points(p: CodeParams) -> tuple:
    """All n node evaluation points, indexed by e * u + g."""
    f = p.field
    pts = []
    for e in range(p.nbar):
        xe = f.pow(p.xi, e)
        for g in range(p.u):
            pts.append(f.mul(xe, f.pow(p.eta, g)))
    return tuple(pts)


def node_index(p: CodeParams, node: NodeId) -> int:
    """Flat column index of a node, validating its label."""
    e, g = node
    if not (0 <= e < p.nbar and 0 <= g < p.u):
        raise ValueError(f"node {tuple(node)} outside the {p.nbar} x {p.u} rack grid")
    return e * p.u + g


def all_nodes(p: CodeParams) -> Iterator[NodeId]:
    """All node labels in flat (rack-major) order."""
    for e in range(p.nbar):
        for g in range(p.u):
            yield NodeId(e, g)


def evaluation_point(p: CodeParams, node: NodeId) -> int:
    """Evaluation point lambda(e, g) = xi**e * eta**g of one node."""
    return evaluation_points(p)[node_index(p, node)]


@cached_on_params
def fill_plan(p: CodeParams) -> tuple:
    """Per-cell data-slot assignment for the message matrix.

    Returns ``(slots, fresh)``, both dbar x len(J) grids. ``slots[i][pos]``
    is the index into the data vector feeding that cell, or None for the
    structural zeros of M1. ``fresh`` marks the cell where each slot is
    assigned for the first time in fill order (columns ascending, rows
    top-down); a non-fresh cell repeats the value of its symmetric partner
    inside M1 and must agree with it.
    """
    j1, _, j = index_sets(p)
    j1set = set(j1)
    slots: list = [[None] * len(j) for _ in range(p.dbar)]
    fresh = [[False] * len(j) for _ in range(p.dbar)]
    assigned: dict = {}
    nxt = 0
    for pos, deg in enumerate(j):
        if deg in j1set:
            t = deg // p.u
            for i in range(p.dbar):
                if i >= p.kbar and t >= p.kbar:
                    continue  # zero corner of M1
                if i < t:
                    slots[i][pos] = assigned[(t, i)]
                else:
                    assigned[(i, t)] = nxt
                    slots[i][pos] = nxt
                    fresh[i][pos] = True
                    nxt += 1
        else:
            for i in range(p.dbar):
                slots[i][pos] = nxt
                fresh[i][pos] = True
                nxt += 1
    if nxt != p.B:  # arithmetic identity; cannot fail for validated params
        raise AssertionError(f"fill plan consumed {nxt} slots, expected B={p.B}")
    return slots, fresh


@dataclass
class MessageMatrix:
    """dbar x len(J) data matrix; column order follows ascending degrees J."""

    params: CodeParams
    rows: list

    def m1(self) -> list:
        """The square symmetric block: columns of degree t*u + u-1."""
        p = self.params
        cp = column_positions(p)
        pos = [cp[t * p.u + p.u - 1] for t in range(p.dbar)]
        return [[row[c] for c in pos] for row in self.rows]


def validate_symbols(p: CodeParams, symbols: Sequence[int], node: NodeId | None = None) -> None:
    """Raise ValueError unless every one of ``symbols`` is a field element: a
    plain int in [0, q). The error names ``node`` as their holder, or calls
    them data symbols.

    ``bool`` and other int subclasses are refused along with everything else
    that is not exactly ``int``.
    """
    q = p.field.q
    for v in symbols:
        if type(v) is not int or not 0 <= v < q:
            holder = "data" if node is None else f"node {node!r}"
            raise ValueError(f"{holder} symbol {v!r} is not an element of {p.field!r}")


def validate_data(p: CodeParams, data: Sequence[int]) -> None:
    """Raise ValueError unless ``data`` is B field elements (``validate_symbols``)."""
    if len(data) != p.B:
        raise ValueError(f"expected {p.B} data symbols, got {len(data)}")
    validate_symbols(p, data)


def fill_message_matrix(p: CodeParams, data: Sequence[int]) -> MessageMatrix:
    """Spread B data symbols into a message matrix along the fill order."""
    validate_data(p, data)
    slots, _ = fill_plan(p)
    rows = [
        [0 if s is None else data[s] for s in slot_row]
        for slot_row in slots
    ]
    return MessageMatrix(p, rows)


def _first_difference(p: CodeParams, a, b) -> str:
    """'stripe t: x != y' where cells a and b first differ. A cell is a field
    int (the same in every stripe) or a byte slab (see ``slab``), so the
    text stays short."""
    cells = []
    for cell in (a, b):
        if isinstance(cell, bytes):
            cell = p.kernel.unpack(cell)
        cells.append(itertools.repeat(cell) if isinstance(cell, int) else cell)
    for t, (x, y) in enumerate(zip(*cells)):
        if x != y:
            return f"stripe {t}: {x!r} != {y!r}"
    return "cells differ in length or type"


def unfill_message_matrix(M: MessageMatrix) -> list:
    """Recover the data vector from a message matrix, verifying structure.

    Walks cells in the same column-major order as the fill so that every
    repeated cell is compared against the first occurrence of its slot.
    Cells may also be byte slabs spanning many stripes (see ``slab``), with
    the int 0 at structural zeros; a repeated cell must then equal its first
    occurrence in every stripe.
    """
    p = M.params
    slots, fresh = fill_plan(p)
    cols = len(slots[0])
    if len(M.rows) != p.dbar or any(len(r) != cols for r in M.rows):
        raise ValueError("message matrix has the wrong shape")
    out: list = [None] * p.B
    for pos in range(cols):
        for i in range(p.dbar):
            s = slots[i][pos]
            v = M.rows[i][pos]
            if s is None:
                if v != 0:
                    raise IntegrityError(
                        f"structural zero at row {i}, column {pos}, "
                        f"{_first_difference(p, v, 0)}"
                    )
            elif fresh[i][pos]:
                out[s] = v
            elif v != out[s]:
                raise _mirror_error(p, i, pos, v, out[s])
    return out


def _mirror_error(p: CodeParams, i: int, pos: int, v, first) -> IntegrityError:
    """The error for repeated cell (i, pos) of M1, unequal to ``first``, its partner."""
    return IntegrityError(f"symmetry violation at row {i}, column {pos}, {_first_difference(p, v, first)}")


def check_square_block(p: CodeParams, cells) -> None:
    """Raise what ``unfill_message_matrix`` raises on the first pair i < t
    < kbar, in fill order (t, then i), where ``cells[i][t]``, row i's cell
    of degree t*u + u-1, differs from ``cells[t][i]``. A decoded matrix
    takes its other repeated cells from their partners."""
    cp = column_positions(p)
    for t in range(1, p.kbar):
        for i in range(t):
            if cells[i][t] != cells[t][i]:
                raise _mirror_error(p, i, cp[t * p.u + p.u - 1], cells[i][t], cells[t][i])


def check_columns(p: CodeParams, columns: Mapping) -> None:
    """Raise ValueError unless ``columns`` maps each node to alpha slabs (see
    ``slab``), all of one length: the check of every slab read and repair."""
    size = None
    for node, col in columns.items():
        if len(col) != p.alpha:
            raise ValueError(f"node {node!r} has {len(col)} slabs, expected alpha={p.alpha}")
        for slab in col:
            size = len(slab) if size is None else size
            if len(slab) != size:
                raise ValueError(f"node {node!r} has a slab of {len(slab)} bytes, expected {size}")


@dataclass
class CodeMatrix:
    """dbar x n stored-symbol matrix; column e*u + g belongs to node (e, g)."""

    params: CodeParams
    rows: list

    def column(self, node: NodeId) -> list:
        idx = node_index(self.params, node)
        return [row[idx] for row in self.rows]

    def columns(self, ids: Sequence[NodeId] | None = None) -> dict:
        """Columns as a node-keyed mapping (all nodes when ids is None)."""
        if ids is None:
            ids = list(all_nodes(self.params))
        return {node: self.column(node) for node in ids}
