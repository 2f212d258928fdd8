"""Encoder: message matrix in, per-node stored columns out.

Node (e, g) stores the dbar values f_i(lambda(e, g)), one per message-matrix
row polynomial f_i. The whole code matrix is the product of the message
matrix with a fixed evaluation-power matrix. ``encode`` computes that
product with ``linalg.matmul`` and ``encoding_matrix`` (cached on the
params); Horner evaluation of each ``row_polynomial`` at the node points
is the reference it must agree with.

Every stored symbol is thus a fixed linear combination of the B data
symbols. ``encode_rows`` writes those combinations out: the generator row
of a (row, node) cell maps the fill-order data vector to that cell.
``encode_slabs`` is one apply of the generator rows, on the params'
kernel (``CodeParams.kernel``), over slabs that span every stripe; the
elimination oracles of ``reconstruct`` and ``systematic`` solve systems of
them. All routes agree exactly.
"""

from __future__ import annotations

from .layout import (
    CodeMatrix,
    CodeParams,
    MessageMatrix,
    all_nodes,
    cached_on_params,
    evaluation_points,
    fill_plan,
    index_sets,
    node_index,
)
from .linalg import matmul

__all__ = [
    "row_polynomial",
    "encoding_matrix",
    "encode",
    "encode_rows",
    "encode_slabs",
]


def row_polynomial(M: MessageMatrix, i: int) -> list:
    """Dense coefficient list of row i; degrees outside J are zero."""
    p = M.params
    if not 0 <= i < p.dbar:
        raise ValueError(f"row {i} outside [0, {p.dbar - 1}]")
    j = index_sets(p)[2]
    coeffs = [0] * (j[-1] + 1)
    for pos, deg in enumerate(j):
        coeffs[deg] = M.rows[i][pos]
    return coeffs


@cached_on_params
def encoding_matrix(p: CodeParams) -> list:
    """len(J) x n matrix of point powers lambda(e, g)**j, cached per params."""
    f = p.field
    pts = evaluation_points(p)
    return [[f.pow(lam, deg) for lam in pts] for deg in index_sets(p)[2]]


def encode(M: MessageMatrix) -> CodeMatrix:
    """Evaluate every row polynomial at every node point."""
    p = M.params
    return CodeMatrix(p, matmul(p.field, M.rows, encoding_matrix(p)))


def encode_rows(p: CodeParams, cells) -> list:
    """The generator rows of the (row, node) ``cells``, one B-entry row each.

    Row c maps the B data symbols, in fill order, to the symbol that cell
    c stores: the encoding-matrix entry of every filled cell of message
    row i, at the data slot the fill plan gives it. A slot never repeats
    within one message row (a mirrored M1 cell sits in another row), so
    each entry is a single power of the node's point.
    """
    emat = encoding_matrix(p)
    slots = fill_plan(p)[0]
    rows = []
    for i, node in cells:
        c = node_index(p, node)
        row = [0] * p.B
        for pos, s in enumerate(slots[i]):
            if s is not None:
                row[s] = emat[pos][c]
        rows.append(row)
    return rows


def encode_slabs(p: CodeParams, slots, nodes=None) -> dict:
    """Slab form of ``encode(fill_message_matrix(p, data))``, for many stripes at once.

    ``slots`` are B equal-length slabs (see ``slab``), slab s holding data
    symbol s of every stripe. Returns ``{node: [alpha slabs]}`` for
    ``nodes`` (default: all, in rack-major order), from one ``p.kernel.apply``
    of the nodes' generator rows.
    """
    if len(slots) != p.B:
        raise ValueError(f"expected {p.B} slot slabs, got {len(slots)}")
    nodes = list(all_nodes(p) if nodes is None else nodes)
    cells = [(i, node) for node in nodes for i in range(p.alpha)]
    out = iter(p.kernel.apply(encode_rows(p, cells), slots))
    return {node: [next(out) for _ in range(p.alpha)] for node in nodes}
