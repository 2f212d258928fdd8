"""Stripe reconstruction from any k node columns.

Row i of the message matrix is a polynomial whose coefficients sit at the
degrees in J, and node (e, g) stores its value at lambda(e, g). Fix the k
observed points and let L be their k x k Lagrange matrix: L times a vector
of k values is the coefficient vector of the unique polynomial of degree
less than k through them. The decoder needs two maps built from L.

* Bottom rows kbar..dbar-1 carry no coefficient above degree k-1 (their
  high-degree slots sit in the zero corner of M1), so each is L applied to
  its k observed values.
* A top row i < kbar also has the high-degree coefficients at
  t*u + u-1 for t in kbar..dbar-1. By the symmetry of M1, the one at
  t*u + u-1 equals the one at i*u + u-1 in bottom row t, which the first
  map already gave. With H holding each observed point's powers
  lambda**(t*u + u-1), those terms contribute H times the moved values,
  and subtracting them leaves degree at most k-1. So the top row's
  coefficients below k are [L | -L H] applied to its k observed values
  followed by the moved values.

Both maps are fixed by the node set, so ``Decoder`` builds them once and
``Decoder.decode_slabs`` runs them on the params' kernel
(``CodeParams.kernel``) over byte slabs that span every stripe of a file
or cluster (see ``slab``), each map in one ``apply_groups`` over all its
message rows: two applies per decode. The repeated cells of the recovered
matrix are then compared (``unfill_message_matrix``); on corrupt input
they disagree and IntegrityError is raised. ``Decoder.reconstruct`` and
``reconstruct`` decode one stripe by running the same maps on one-lane slabs.

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
    validate_symbols,
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
        validate_symbols(p, col, node)


class Decoder:
    """Reusable any-k decoder for one fixed set of surviving nodes.

    Construction builds both maps (the bottom rows' L and the top rows'
    [L | -L H]), so decoding many stripes observed at the same nodes costs
    only the map applications.
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
        f = p.field
        points = [evaluation_point(p, node) for node in self.ids]
        high_degrees = [t * p.u + p.u - 1 for t in range(p.kbar, p.dbar)]
        high_pow = [[f.pow(lam, deg) for deg in high_degrees] for lam in points]
        self._bottom = BatchInterpolator(f, points).matrix()
        transfer = matmul(f, self._bottom, high_pow)
        self._top = [
            lrow + [f.neg(v) for v in trow] for lrow, trow in zip(self._bottom, transfer)
        ]
        cp = column_positions(p)
        self._j = index_sets(p)[2]
        self._low = [(pos, deg) for pos, deg in enumerate(self._j) if deg < p.k]
        # Column position of degree i*u + u-1 for each top row i < kbar.
        self._mirror_pos = [cp[i * p.u + p.u - 1] for i in range(p.kbar)]
        self._high_pos = [cp[deg] for deg in high_degrees]

    def reconstruct(self, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
        """Recover the message matrix from ``{node: column}`` for this decoder's nodes.

        Every symbol must be a field element (``validate_symbols``). Runs
        ``decode_slabs``, which checks the columns' lengths, on one-lane
        slabs, one per symbol.
        """
        if tuple(sorted(cols)) != self.ids:
            raise ValueError("observed nodes do not match this decoder")
        for node, col in cols.items():
            validate_symbols(self.p, col, node)
        kernel = self.p.kernel
        slabs = {node: [kernel.pack((s,)) for s in col] for node, col in cols.items()}
        data = self.decode_slabs(slabs)
        return fill_message_matrix(self.p, kernel.unpack(b"".join(data)))

    def decode_slabs(self, columns: Mapping[NodeId, Sequence[bytes]]) -> list:
        """The B data slabs, in fill order, from this decoder's nodes' slabs.

        ``columns`` maps each of this decoder's nodes to its alpha slabs
        (see ``slab``); other entries are ignored. The symmetry checks of
        ``unfill_message_matrix`` compare whole slabs and raise
        IntegrityError if any stripe is inconsistent.
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

        rows = [[0] * len(self._j) for _ in range(p.dbar)]
        bottom = range(p.kbar, p.dbar)
        groups = [[col[i] for col in ordered] for i in bottom]
        for i, coeffs in zip(bottom, p.kernel.apply_groups(self._bottom, groups)):
            for pos, deg in self._low:
                rows[i][pos] = coeffs[deg]
        highs = [[rows[t][self._mirror_pos[i]] for t in bottom] for i in range(p.kbar)]
        groups = [[col[i] for col in ordered] + high for i, high in enumerate(highs)]
        for i, coeffs in enumerate(p.kernel.apply_groups(self._top, groups)):
            for pos, deg in self._low:
                rows[i][pos] = coeffs[deg]
            for pos, slab in zip(self._high_pos, highs[i]):
                rows[i][pos] = slab
        return unfill_message_matrix(MessageMatrix(p, rows))


def reconstruct(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
    """Recover the message matrix from ``{node: column}`` for exactly k nodes."""
    return Decoder(p, list(cols)).reconstruct(cols)


def oracle_reconstruct(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
    """Structure-blind reference decoder over the raw linear system.

    Every symbol must be a field element (``validate_symbols``), as for
    ``Decoder.reconstruct``. Takes one equation per observed symbol, the
    generator row of its cell, solves the whole (tall) system by
    elimination, and verifies every observation against the solution. Slow (0.3 s a stripe at (50,44,5,8)
    over GF(2^16), with CPython 3.11 on a 2-core Xeon) but independent of
    every decoding trick the structured path uses.
    """
    _check_observation(p, cols)
    if len(cols) < p.k:
        raise ValueError(f"need at least k={p.k} columns, got {len(cols)}")
    # Message-row order, as ``systematic_message_matrix`` takes its cells. In
    # node-major order the fill-in, and so the cost, varied 5x with the node set.
    cells = [(i, node) for i in range(p.dbar) for node in sorted(cols)]
    rows = encode_rows(p, cells)
    rhs = [cols[node][i] for i, node in cells]
    x = solve_linear(p.field, rows, rhs)
    if mat_vec(p.field, rows, x) != rhs:
        raise IntegrityError("observed symbols are inconsistent with any stripe")
    return fill_message_matrix(p, x)
