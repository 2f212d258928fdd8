"""Stripe reconstruction from any k node columns.

The decoder exploits the message-matrix structure in two passes. Rows
kbar..dbar-1 carry no coefficient above degree k-1 (their high-degree slots
sit in the zero corner of M1), so k observed values pin each of them down by
plain interpolation. The symmetry of M1 then hands the top rows their
high-degree coefficients: the coefficient of degree t*u + u-1 in row i
equals the coefficient of degree i*u + u-1 in row t, which the first pass
already recovered. Subtracting those known terms leaves each top row a
polynomial of degree at most k-1, fixed by a second interpolation.

``Decoder.decode_slabs`` runs the same two passes over byte slabs that
span every stripe of a file: each interpolation is then one fixed k x k
Lagrange map, and the top rows' map also subtracts the transferred
high-degree terms.

``oracle_reconstruct`` ignores all of that structure: each observed symbol
is one equation, its cell's generator row (``encode.encode_rows``) in the
B data unknowns, and ``linalg.solve_linear`` eliminates the whole system.
It exists as an independent check on the structured decoder and must
agree with it bit for bit.

Both per-stripe decoders take a node-keyed map ``{node: column}``, as
``CodeMatrix.columns(ids)`` builds it, in any order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .encode import encode_rows
from .layout import (
    CodeParams,
    IntegrityError,
    MessageMatrix,
    NodeId,
    column_positions,
    evaluation_point,
    fill_message_matrix,
    index_sets,
    node_index,
    unfill_message_matrix,
)
from .linalg import BatchInterpolator, mat_vec, matmul, solve_linear

__all__ = ["Decoder", "reconstruct", "oracle_reconstruct"]


def _check_observation(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> None:
    for node, col in cols.items():
        node_index(p, node)  # range check
        if len(col) != p.alpha:
            raise ValueError(
                f"column for node {node!r} has {len(col)} symbols, "
                f"expected alpha={p.alpha}"
            )


class Decoder:
    """Reusable any-k decoder for one fixed set of surviving nodes.

    Construction performs all point-dependent precomputation, so decoding
    many stripes observed at the same nodes costs only the per-stripe
    interpolations.
    """

    def __init__(self, p: CodeParams, ids: Sequence[NodeId]):
        if len(ids) != p.k:
            raise ValueError(f"need exactly k={p.k} columns, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        self.p = p
        self.ids = tuple(sorted(NodeId(*i) for i in ids))
        for node in self.ids:
            node_index(p, node)
        points = [evaluation_point(p, node) for node in self.ids]
        self._interp = BatchInterpolator(p.field, points)
        f = p.field
        high_degrees = [t * p.u + p.u - 1 for t in range(p.kbar, p.dbar)]
        # lambda**(t*u + u-1) per observed column, for the symmetry transfer.
        self._high_pow = [[f.pow(lam, deg) for deg in high_degrees] for lam in points]
        cp = column_positions(p)
        self._j = index_sets(p)[2]
        # Column position of degree i*u + u-1 for each top row i < kbar.
        self._mirror_pos = [cp[i * p.u + p.u - 1] for i in range(p.kbar)]
        self._high_pos = [cp[deg] for deg in high_degrees]
        self._slab_maps = None  # built by the first decode_slabs call

    def reconstruct(self, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
        """Recover the message matrix from ``{node: column}`` for this decoder's nodes."""
        p = self.p
        _check_observation(p, cols)
        if tuple(sorted(cols)) != self.ids:
            raise ValueError("observed nodes do not match this decoder")
        ordered = [cols[node] for node in self.ids]

        sub = p.field.sub
        interp = self._interp
        j = self._j
        k = p.k
        rows = [[0] * len(j) for _ in range(p.dbar)]

        # Bottom rows: degree at most k-1, one interpolation each.
        for i in range(p.kbar, p.dbar):
            coeffs = interp.interpolate([sym[i] for sym in ordered])
            row = rows[i]
            for pos, deg in enumerate(j):
                if deg < k:
                    row[pos] = coeffs[deg]

        # Top rows: high-degree coefficients come across the M1 symmetry
        # from the bottom rows; subtract them and interpolate the rest.
        for i in range(p.kbar):
            mirror = self._mirror_pos[i]
            high = [rows[t][mirror] for t in range(p.kbar, p.dbar)]
            moved = mat_vec(p.field, self._high_pow, high)
            coeffs = interp.interpolate([sub(sym[i], v) for sym, v in zip(ordered, moved)])
            row = rows[i]
            for pos, deg in enumerate(j):
                row[pos] = coeffs[deg] if deg < k else 0
            for t_idx, pos in enumerate(self._high_pos):
                row[pos] = high[t_idx]

        M = MessageMatrix(p, rows)
        # Cross-checks the recovered symmetric block; trips on corrupt input.
        unfill_message_matrix(M)
        return M

    def decode_slabs(self, kernel, columns: Mapping[NodeId, Sequence[bytes]]) -> list:
        """Slab form of ``unfill_message_matrix(self.reconstruct(...))``.

        ``columns`` maps each of this decoder's nodes to its alpha slabs
        (see ``slab``); other entries are ignored. Returns the B data slabs
        in fill order. Bottom rows are the Lagrange map L applied to the
        observed slabs; a top row is [L | -L H] applied to its observed
        slabs followed by the high-degree slabs moved across the M1
        symmetry, H holding each node's powers lambda**(t*u + u-1). The
        symmetry checks of ``unfill_message_matrix`` compare whole slabs
        and raise IntegrityError if any stripe is inconsistent.
        """
        p = self.p
        ordered = []
        for node in self.ids:
            col = columns.get(node)
            if col is None:
                raise ValueError(f"no slabs for decoder node {node!r}")
            if len(col) != p.alpha:
                raise ValueError(
                    f"node {node!r} has {len(col)} slabs, expected alpha={p.alpha}"
                )
            ordered.append(col)
        if self._slab_maps is None:
            f = p.field
            lagrange = self._interp.matrix()
            transfer = matmul(f, lagrange, self._high_pow)
            top = [
                lrow + [f.neg(v) for v in trow]
                for lrow, trow in zip(lagrange, transfer)
            ]
            self._slab_maps = (lagrange, top)
        lagrange, top = self._slab_maps

        k = p.k
        low = [(pos, deg) for pos, deg in enumerate(self._j) if deg < k]
        rows = [[0] * len(self._j) for _ in range(p.dbar)]
        for i in range(p.kbar, p.dbar):
            coeffs = kernel.apply(lagrange, [col[i] for col in ordered])
            for pos, deg in low:
                rows[i][pos] = coeffs[deg]
        for i in range(p.kbar):
            high = [rows[t][self._mirror_pos[i]] for t in range(p.kbar, p.dbar)]
            coeffs = kernel.apply(top, [col[i] for col in ordered] + high)
            for pos, deg in low:
                rows[i][pos] = coeffs[deg]
            for pos, slab in zip(self._high_pos, high):
                rows[i][pos] = slab
        return unfill_message_matrix(MessageMatrix(p, rows))


def reconstruct(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
    """Recover the message matrix from ``{node: column}`` for exactly k nodes."""
    return Decoder(p, list(cols)).reconstruct(cols)


def oracle_reconstruct(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
    """Structure-blind reference decoder over the raw linear system.

    Takes one equation per observed symbol, the generator row of its cell,
    solves the whole (tall) system by elimination, and verifies every
    observation against the solution. Slow (0.2 to 1.6 s a stripe at
    (50,44,5,8), by the nodes given, with CPython 3.11 on a 2-core Xeon)
    but independent of every decoding trick the structured path uses.
    """
    _check_observation(p, cols)
    if len(cols) < p.k:
        raise ValueError(f"need at least k={p.k} columns, got {len(cols)}")
    cells = [(i, node) for node in sorted(cols) for i in range(p.dbar)]
    rows = encode_rows(p, cells)
    rhs = [cols[node][i] for i, node in cells]
    x = solve_linear(p.field, rows, rhs)
    if mat_vec(p.field, rows, x) != rhs:
        raise IntegrityError("observed symbols are inconsistent with any stripe")
    return fill_message_matrix(p, x)
