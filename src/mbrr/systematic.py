"""Systematic form: the first k nodes store the data symbols verbatim.

The first k nodes in rack-major order are the systematic nodes: racks
0..kbar-1 in full plus the first u0 nodes of rack kbar. Their k columns
cannot all be free, because the symmetric block M1 removes
kbar*(kbar-1)/2 degrees of freedom from a stripe; exactly that many cells
are designated redundant:

    rows e+1 .. kbar-1 of column (e, u-1),  for e in 0 .. kbar-2.

Data placement (load-bearing convention): the B data symbols run
column-major through the systematic columns, node (0,0) rows 0..dbar-1
first, then (0,1) and so on, skipping the redundant cells.

``systematic_slabs`` finds the unique message matrix consistent with such
a placement in five linear steps, run once over slabs (see ``slab``) that
span many stripes, each step as the fixed map named in brackets, on the
params' kernel (``CodeParams.kernel``) like every map here. Steps 1, 2
and 4 apply each map once over all the rows it serves (``apply_groups``);
step 3 stays one apply per row, because row r reads S[r][:r]:

1. Within racks 0..kbar-1, every row that avoids the redundant cells is
   fully known, so its local polynomial and hence its leading coefficient
   follows by interpolation [the degree-(u-1) row of the rack's Lagrange
   matrix].
2. The leading coefficients satisfy H = M1 * Phi with Phi the moment matrix
   of the rack points x_e = xi**(e*u). The bottom dbar-kbar rows of M1 hold
   the transposed rectangle block next to zeros, so each bottom row of H
   yields that block row via a kbar-point Vandermonde solve [the Lagrange
   matrix on the kbar rack points].
3. The top kbar rows are recovered one at a time: row r of H is known at
   racks e >= r; moving the already-known terms (symmetric entries from
   earlier rows plus the rectangle block) to the right leaves a square
   system in the unknown tail of row r of the symmetric core [its matrix
   is the Vandermonde matrix on x_r .. x_{kbar-1} with row e scaled by
   x_e**r, so its inverse is a Lagrange matrix with columns scaled back,
   composed with the map that forms the right-hand side].
4. With M1 complete, each redundant cell follows the same local step a
   repair uses: leading coefficient plus u-1 known in-rack values pin the
   local polynomial down [the weights of ``repair.local_finish``].
5. The completed k columns feed the ordinary any-k decoder
   [``Decoder.decode_slabs``].

``precoding_matrix`` runs ``systematic_slabs`` once on B unit-lane slabs,
made as bytes (``SlabKernel.unit_lanes``): lane j of output slab r is slot
r of the message matrix that the unit data vector e_j produces, so output
slab r is row r of the B x B map. The params keep those B slot slabs, and
the matrix is their lanes. ``systematic_encode`` applies that matrix to
one stripe.

A systematic code matrix holds the B data symbols verbatim, so only its
n*alpha - B other cells need arithmetic. ``systematic_encode_map(p)``
composes the encoding map with the precoding map for just those cells:
one apply of their generator rows (``encode.encode_rows``) over the
precoding's kept slot slabs, with no row of the matrix packed again.
``systematic_encode_slabs`` builds that map itself and encodes many
stripes with no per-cell work for data cells and one map for the rest.

``systematic_message_matrix`` is the oracle the five steps are checked
against, and shares none of them: like ``reconstruct.oracle_reconstruct``
it eliminates over the generator rows, here those of the B data cells. No
production path runs it.

``read_nodes`` and ``read_slabs`` are the one read policy of the file
commands and the cluster simulator: read the systematic nodes directly
when a systematic code has them all, else decode the k lowest node ids.
``read_slabs`` reads the nodes its column map holds; a systematic code that
lacks m systematic nodes rebuilds just those, by maps of kbar + m rows
(``Decoder.rebuild_slabs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from .encode import encode, encode_rows
from .layout import (
    CodeMatrix,
    CodeParams,
    NodeId,
    all_nodes,
    cached_on_params,
    fill_message_matrix,
    validate_data,
)
from .linalg import mat_vec, matmul, solve_linear
from .reconstruct import Decoder
from .repair import local_finish, rack_lagrange, rack_point, rack_points_lagrange

__all__ = [
    "SystematicLayout",
    "systematic_nodes",
    "systematic_layout",
    "read_systematic_data",
    "systematic_message_matrix",
    "systematic_encode",
    "systematic_slabs",
    "precoding_matrix",
    "systematic_encode_map",
    "systematic_encode_slabs",
    "read_nodes",
    "read_slabs",
]


@dataclass(frozen=True)
class SystematicLayout:
    """Cell map of the systematic columns: where data lives and what is derived."""

    data_positions: tuple  # ((row, NodeId), ...), length B, placement order
    redundant_positions: tuple  # ((row, NodeId), ...), kbar*(kbar-1)/2 cells


def systematic_nodes(p: CodeParams) -> list:
    """The first k nodes in rack-major order."""
    return [node for _, node in zip(range(p.k), all_nodes(p))]


@cached_on_params
def systematic_layout(p: CodeParams) -> SystematicLayout:
    redundant = set()
    for e in range(p.kbar - 1):
        for i in range(e + 1, p.kbar):
            redundant.add((i, NodeId(e, p.u - 1)))
    data = []
    for node in systematic_nodes(p):
        for i in range(p.dbar):
            if (i, node) not in redundant:
                data.append((i, node))
    if len(data) != p.B:  # counting identity; cannot fail for valid params
        raise AssertionError(f"{len(data)} data cells, expected B={p.B}")
    return SystematicLayout(tuple(data), tuple(sorted(redundant)))


def read_systematic_data(p: CodeParams, columns: Mapping[NodeId, Sequence[int]]) -> list:
    """Data symbols straight out of the systematic columns, placement order."""
    for node in systematic_nodes(p):
        if node not in columns:
            raise ValueError(f"systematic node {node!r} missing from the column map")
    return [columns[node][i] for i, node in systematic_layout(p).data_positions]


def systematic_message_matrix(p: CodeParams, data: Sequence[int]):
    """The unique message matrix whose encoding stores ``data`` verbatim.

    Structure-blind: solves the generator rows of the B data cells for
    the fill-order data vector by elimination, O(B**3) field operations.
    The cells go in message-row order, which keeps the elimination sparse:
    0.7 s a stripe at (50,44,5,8) with CPython 3.11 on a 2-core Xeon,
    against 2.7 s in placement order. The solution is unique, so the order
    changes only the cost. ``systematic_encode`` is the fast per-stripe
    path.
    """
    validate_data(p, data)
    cells, values = zip(*sorted(zip(systematic_layout(p).data_positions, data)))
    return fill_message_matrix(p, solve_linear(p.field, encode_rows(p, cells), values))


def systematic_encode(p: CodeParams, data: Sequence[int]) -> CodeMatrix:
    """Encode so the first k node columns carry ``data`` uncoded.

    Fills the message matrix with the precoding map applied to ``data``;
    the result equals ``encode(systematic_message_matrix(p, data))``.
    """
    validate_data(p, data)
    return encode(fill_message_matrix(p, mat_vec(p.field, precoding_matrix(p), data)))


def systematic_slabs(p: CodeParams, data_slabs: Sequence) -> list:
    """Slab form of ``unfill_message_matrix(systematic_message_matrix(...))``.

    ``data_slabs`` are B equal-length slabs in placement order, slab j
    holding data symbol j of every stripe; returns the B slot slabs in fill
    order. The numbered steps are those of the module docstring, each one
    fixed map run by ``p.kernel`` over whole slabs. Step 5's M1 symmetry
    checks compare whole slabs.
    """
    if len(data_slabs) != p.B:
        raise ValueError(f"expected {p.B} data slabs, got {len(data_slabs)}")
    f, kernel = p.field, p.kernel
    kbar, dbar, u = p.kbar, p.dbar, p.u
    grid = dict(zip(systematic_layout(p).data_positions, data_slabs))
    phis = [[f.pow(rack_point(p, e), t) for t in range(dbar)] for e in range(kbar)]

    # 1. Leading coefficient of every fully known row of each full rack.
    lead = {}
    for e in range(kbar):
        top = [rack_lagrange(p, e).matrix()[u - 1]]
        known = [*range(e + 1), *range(kbar, dbar)]
        groups = [[grid[(i, NodeId(e, g))] for g in range(u)] for i in known]
        lead.update(((i, e), slab) for i, (slab,) in zip(known, kernel.apply_groups(top, groups)))

    # 2. Rectangle block T, from every bottom row of H in one grouped apply.
    T = [[None] * (dbar - kbar) for _ in range(kbar)]
    vand = rack_points_lagrange(p, tuple(range(kbar))).matrix()
    groups = [[lead[(i, e)] for e in range(kbar)] for i in range(kbar, dbar)]
    for i, block in enumerate(kernel.apply_groups(vand, groups)):
        for t in range(kbar):
            T[t][i] = block[t]

    # 3. Square block S, row r from inputs lead[(r, e >= r)], S[r][:r], T[r]:
    # the right-hand side lead[(r, e)] - (S[r] + T[r]) . phi_e over the known
    # entries, scaled by x_e**-r, then the Lagrange matrix on x_r .. x_{kbar-1}.
    S = [[None] * kbar for _ in range(kbar)]
    for r in range(kbar):
        rhs = []
        for e in range(r, kbar):
            inv = f.inv(phis[e][r])
            rhs.append(
                [inv if e2 == e else 0 for e2 in range(r, kbar)]
                + [f.neg(f.mul(inv, v)) for v in phis[e][:r] + phis[e][kbar:]]
            )
        solve = matmul(f, rack_points_lagrange(p, tuple(range(r, kbar))).matrix(), rhs)
        known = [lead[(r, e)] for e in range(r, kbar)] + S[r][:r] + T[r]
        for t, slab in zip(range(r, kbar), kernel.apply(solve, known)):
            S[r][t] = S[t][r] = slab

    # 4. Redundant cells (i, (e, u-1)), e < i < kbar: the repair finish of
    # node (e, u-1) from its rack mates, with leading vector entry
    # h_e[i] = M1[i] . phi_e and M1[i] = S[i] + T[i].
    for e in range(kbar - 1):
        weights, kappa = local_finish(p, NodeId(e, u - 1))
        finish = [[f.mul(kappa, v) for v in phis[e]] + weights]
        rows = range(e + 1, kbar)
        groups = [S[i] + T[i] + [grid[(i, NodeId(e, g))] for g in range(u - 1)] for i in rows]
        for i, (slab,) in zip(rows, kernel.apply_groups(finish, groups)):
            grid[(i, NodeId(e, u - 1))] = slab

    # 5. Any-k decode of the completed systematic columns.
    front = systematic_nodes(p)
    columns = {node: [grid[(i, node)] for i in range(dbar)] for node in front}
    return Decoder(p, front).decode_slabs(columns)


@cached_on_params
def _precoding_slabs(p: CodeParams) -> list:
    """The B slot slabs of one ``systematic_slabs`` run over B unit-lane
    slabs (``SlabKernel.unit_lanes``): slab r is row r of the precoding map."""
    return systematic_slabs(p, p.kernel.unit_lanes(p.B))


@cached_on_params
def precoding_matrix(p: CodeParams) -> list:
    """B x B matrix mapping placement-order data to fill-order matrix slots.

    Row r, column j is slot r of the message matrix that the unit data
    vector e_j produces. One ``systematic_slabs`` run over B unit-lane
    slabs (slab j is 1 in lane j) builds it: output slab r, kept on the
    params as a slab, is row r. The map is invertible; filling a message
    matrix with the product of this matrix and a data vector is the fast
    equivalent of ``systematic_message_matrix``.
    """
    return [p.kernel.unpack(slab) for slab in _precoding_slabs(p)]


def systematic_encode_map(p: CodeParams) -> tuple:
    """(cells, matrix): the systematic encode as one map over the data.

    ``cells`` are the n*alpha - B (row, node) cells of the code matrix that
    hold no data symbol verbatim, node by node in rack-major order: every
    row of the n - k parity nodes and the redundant cells of the kbar - 1
    nodes (e, u-1). Row c of ``matrix`` maps the B data symbols, in
    placement order, to cell c. The map is the encoding map composed with
    the precoding map: one apply of the cells' generator rows over the B
    slot slabs kept on the params (lane j is the unit data vector e_j),
    read back one row per cell; no row of ``precoding_matrix`` is packed.
    """
    data = set(systematic_layout(p).data_positions)
    cells = [(i, node) for node in all_nodes(p) for i in range(p.dbar) if (i, node) not in data]
    slabs = p.kernel.apply(encode_rows(p, cells), _precoding_slabs(p))
    return cells, [p.kernel.unpack(slab) for slab in slabs]


def systematic_encode_slabs(p: CodeParams, data_slabs: Sequence) -> dict:
    """Slab form of ``systematic_encode``, for many stripes at once.

    ``data_slabs`` are B equal-length slabs (see ``slab``) in placement
    order. Returns ``{node: [alpha slabs]}`` for every node in rack-major
    order. A data cell's slab is its data slab itself; the other cells come
    from one ``p.kernel.apply`` of ``systematic_encode_map(p)``.
    """
    if len(data_slabs) != p.B:
        raise ValueError(f"expected {p.B} data slabs, got {len(data_slabs)}")
    cells, matrix = systematic_encode_map(p)
    grid = dict(zip(systematic_layout(p).data_positions, data_slabs))
    grid.update(zip(cells, p.kernel.apply(matrix, data_slabs)))
    return {node: [grid[(i, node)] for i in range(p.dbar)] for node in all_nodes(p)}


def read_nodes(p: CodeParams, available: Collection[NodeId]) -> list:
    """The k nodes a read uses: the k lowest ``available`` ids. The
    systematic nodes are the k lowest ids, so they are read whenever all
    of them are available."""
    if len(available) < p.k:
        raise ValueError(f"got {len(available)} shards, need at least k={p.k}")
    return sorted(available)[: p.k]


def read_slabs(p: CodeParams, columns: Mapping, systematic: bool) -> list:
    """The B data slabs (see ``slab``) read from ``columns``, which maps
    each of the k nodes the read uses to its alpha slabs; in placement order
    for a systematic code and fill order otherwise.

    The systematic nodes are read directly. A plain code decodes the other
    nodes; a systematic code rebuilds only the m systematic nodes it does not
    read, decoding no slot (``Decoder.rebuild_slabs``, kbar + m rows per map).
    """
    front = systematic_nodes(p)
    if systematic and sorted(columns) == front:
        return read_systematic_data(p, columns)
    dec = Decoder(p, list(columns))
    if not systematic:
        return dec.decode_slabs(columns)
    missing = [node for node in front if node not in columns]
    return read_systematic_data(p, {**columns, **dec.rebuild_slabs(columns, missing)})
