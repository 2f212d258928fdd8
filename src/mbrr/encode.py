"""Encoder: message matrix in, per-node stored columns out.

Node (e, g) stores the dbar values f_i(lambda(e, g)), one per message-matrix
row polynomial f_i. The whole code matrix is the product of the message
matrix with a fixed evaluation-power matrix. ``encode`` computes that
product with ``linalg.matmul`` and ``encoding_matrix`` (cached on the
params); Horner evaluation of each ``row_polynomial`` at the node points
is the reference it must agree with. ``encode_slabs`` runs the same
product once over slabs that span every stripe. All routes agree exactly.
"""

from __future__ import annotations

from .layout import (
    CodeMatrix,
    CodeParams,
    MessageMatrix,
    all_nodes,
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


def encoding_matrix(p: CodeParams) -> list:
    """len(J) x n matrix of point powers lambda(e, g)**j, cached per params."""
    got = p._cache.get("encoding_matrix")
    if got is None:
        f = p.field
        j = index_sets(p)[2]
        pts = evaluation_points(p)
        rows = [[f.pow(lam, deg) for lam in pts] for deg in j]
        got = p._cache.setdefault("encoding_matrix", rows)
    return got


def encode(M: MessageMatrix) -> CodeMatrix:
    """Evaluate every row polynomial at every node point."""
    p = M.params
    return CodeMatrix(p, matmul(p.field, M.rows, encoding_matrix(p)))


def encode_slabs(kernel, p: CodeParams, slots, nodes=None) -> dict:
    """Slab form of ``encode(fill_message_matrix(p, data))``, for many stripes at once.

    ``slots`` are B equal-length slabs (see ``slab``), slab s holding data
    symbol s of every stripe. Returns ``{node: [alpha slabs]}`` for
    ``nodes`` (default: all, in rack-major order). Row i of the code matrix
    is one map per message row: the encoding-matrix entries of the row's
    cells that the fill plan gives a slot, applied by ``kernel``.
    """
    if len(slots) != p.B:
        raise ValueError(f"expected {p.B} slot slabs, got {len(slots)}")
    nodes = list(all_nodes(p) if nodes is None else nodes)
    emat = encoding_matrix(p)
    idx = [node_index(p, node) for node in nodes]
    out = {node: [] for node in nodes}
    for slot_row in fill_plan(p)[0]:
        cells = [(pos, s) for pos, s in enumerate(slot_row) if s is not None]
        matrix = [[emat[pos][c] for pos, _ in cells] for c in idx]
        slabs = kernel.apply(matrix, [slots[s] for _, s in cells])
        for node, slab in zip(nodes, slabs):
            out[node].append(slab)
    return out
