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

Both maps are fixed by the node set, so ``Decoder`` builds them once. Both
routes run one two-pass routine on the params' kernel (``CodeParams.kernel``)
over byte slabs that span every stripe of a file or cluster (see ``slab``):
a bottom map over rows kbar..dbar-1, then a top map over each row i < kbar
with its moved values, one ``apply_groups`` a pass. A route picks the rows.

``Decoder.decode_slabs`` takes L and [L | -L H] whole. As matrix columns
0..k-1 hold degrees 0..k-1 (``layout``), a top row is its k outputs and
moved values, a bottom row its k outputs and zeros; ``unfill_message_matrix``
compares the repeated cells, raising IntegrityError on corrupt input.

``Decoder.rebuild_slabs`` gives m other nodes' columns, not the B slots,
from kbar + m rows a map, where decoding then encoding runs k and then
m * alpha. With pow_low(x) = [x**j for j < k] and pow_high(x) the powers
x**(t*u + u-1), kbar <= t < dbar, node z at point x has row pow_low(x) L
in the bottom map and pow_low(x) [L | -L H] + [0 | pow_high(x)] in the top
map. The first kbar rows are the full maps' rows of degree t*u + u-1,
t < kbar: the moved values and M1's square block, whose mirrored cells the
decode compares (``check_square_block``).

``oracle_reconstruct`` ignores all of that structure: each observed symbol
is one equation, its cell's generator row (``encode.encode_rows``) in the
B data unknowns, and ``linalg.solve_linear`` eliminates the whole system.
It exists as an independent check on the structured decoder and must
agree with it bit for bit.

``Decoder.reconstruct`` (one-lane slabs) and the oracle take a node-keyed
map ``{node: column}``, as ``CodeMatrix.columns(ids)`` builds it, in any order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .encode import encode_rows
from .layout import (
    CodeParams,
    IntegrityError,
    MessageMatrix,
    NodeId,
    check_columns,
    check_square_block,
    evaluation_point,
    fill_message_matrix,
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
        self._high_degrees = [t * p.u + p.u - 1 for t in range(p.kbar, p.dbar)]
        self._square = [t * p.u + p.u - 1 for t in range(p.kbar)]
        high_pow = [[f.pow(lam, deg) for deg in self._high_degrees] for lam in points]
        self._bottom = BatchInterpolator(f, points).matrix()
        transfer = matmul(f, self._bottom, high_pow)
        self._top = [
            lrow + [f.neg(v) for v in trow] for lrow, trow in zip(self._bottom, transfer)
        ]

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
        (see ``slab``); other entries are ignored. Both passes run the full
        maps, moving degree i*u + u-1 of each bottom row to top row i; the
        symmetry checks of ``unfill_message_matrix`` compare whole slabs and
        raise IntegrityError if any stripe is inconsistent.
        """
        p = self.p
        bottom, top = self._two_passes(columns, self._bottom, self._top, self._square)
        rows = [coeffs + [row[deg] for row in bottom] for coeffs, deg in zip(top, self._square)]
        rows += [coeffs + [0] * (p.dbar - p.kbar) for coeffs in bottom]
        return unfill_message_matrix(MessageMatrix(p, rows))

    def rebuild_slabs(self, columns: Mapping[NodeId, Sequence[bytes]], nodes: Sequence) -> dict:
        """``{node: [alpha slabs]}`` for ``nodes``, the slabs that
        ``encode_slabs`` of ``decode_slabs(columns)`` gives them, with the
        same checks and the same IntegrityError, from both passes over maps
        of kbar + len(nodes) rows, moving rows 0..kbar-1 (module docstring)."""
        p, f = self.p, self.p.field
        points = [evaluation_point(p, node) for node in nodes]
        low = [[f.pow(x, deg) for deg in range(p.k)] for x in points]
        # The first k columns of [L | -L H] are L, so one product serves both maps.
        composed = matmul(f, low, self._top)
        bottom_map = [self._bottom[deg] for deg in self._square] + [row[: p.k] for row in composed]
        top_map = [self._top[deg] for deg in self._square] + [
            row[: p.k] + [f.add(a, f.pow(x, deg)) for a, deg in zip(row[p.k :], self._high_degrees)]
            for row, x in zip(composed, points)
        ]
        bottom, top = self._two_passes(columns, bottom_map, top_map, range(p.kbar))
        check_square_block(p, top)
        return {node: [row[p.kbar + z] for row in top + bottom] for z, node in enumerate(nodes)}

    def _two_passes(self, columns: Mapping, bottom_map, top_map, moved: Sequence[int]) -> tuple:
        """(bottom, top) slabs: ``bottom_map`` over rows kbar..dbar-1 of this
        decoder's nodes in ``columns``, then ``top_map`` over each row i < kbar
        followed by output ``moved[i]`` of every bottom group."""
        p = self.p
        for node in self.ids:
            if columns.get(node) is None:
                raise ValueError(f"no slabs for decoder node {node!r}")
        ordered = {node: columns[node] for node in self.ids}
        check_columns(p, ordered)
        rows = [[col[i] for col in ordered.values()] for i in range(p.dbar)]
        bottom = p.kernel.apply_groups(bottom_map, rows[p.kbar :])
        groups = [rows[i] + [out[j] for out in bottom] for i, j in enumerate(moved)]
        return bottom, p.kernel.apply_groups(top_map, groups)


def reconstruct(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
    """Recover the message matrix from ``{node: column}`` for exactly k nodes."""
    return Decoder(p, list(cols)).reconstruct(cols)


def oracle_reconstruct(p: CodeParams, cols: Mapping[NodeId, Sequence[int]]) -> MessageMatrix:
    """Structure-blind reference decoder over the raw linear system.

    Every symbol must be a field element (``validate_symbols``), as for
    ``Decoder.reconstruct``. Takes one equation per observed symbol, the
    generator row of its cell, solves the whole (tall) system by elimination,
    and verifies every observation against the solution. Slow (0.3 s a stripe
    at (50,44,5,8) over GF(2^16), with CPython 3.11 on a 2-core Xeon) but
    independent of every decoding trick the structured path uses.
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
