"""Single-node repair with minimum cross-rack traffic.

The construction restricts every row polynomial, on the points of one rack,
to a local polynomial of degree less than u. Within rack e the points are
lambda(e, g) = xi**e * eta**g, and eta**u = 1, so x**(t*u) is the constant
xi**(e*t*u) across the whole rack. Folding those constants into the
coefficients gives the local coefficient of degree j in row i as a fixed
combination of message-matrix entries:

    j <  u0   : sum over t in [0, kbar]   of m[i][t*u + j] * xi**(e*t*u)
    u0 <= j < u-1 : sum over t in [0, kbar-1] of m[i][t*u + j] * xi**(e*t*u)
    j == u-1  : sum over t in [0, dbar-1] of m[i][t*u + u-1] * xi**(e*t*u)

Two facts give the repair maps. First, a rack's u stored columns determine
its local polynomials outright (u points, degree < u), so the leading
coefficient h_e[i] of row i at rack e is the degree-(u-1) row ``lead`` of
the rack's Lagrange matrix applied to the rack's u values of row i. By the
j == u-1 line above, h_e = M1 * phi_e with phi_e = (1, x_e, x_e**2, ...)
and x_e = xi**(e*u). Second, M1 is symmetric, so
phi_target . h_e = phi_e . h_target: the symbol a helper rack sends is an
evaluation of the target rack's own leading vector at the helper's x_e.

Repairing node (e*, g*) from dbar helper racks is therefore three fixed
linear maps:

1. Helper rack e sends phi_target . h_e. Over its u*alpha stored symbols
   this is one row, with entry lead[g] * x**i at input g*alpha + i, x
   being the target's rack point x_{e*}.
2. The dbar received symbols are h_target evaluated at dbar distinct rack
   points, so the Lagrange matrix on those points recovers h_target.
3. Subtracting the leading term h[i] * lambda**(u-1) from the u-1 surviving
   in-rack values of row i leaves a polynomial of degree at most u-2;
   interpolating it, evaluating at the lost point and adding the leading
   term back is a fixed weighting (``local_finish``).

``Repairer`` composes stages 2 and 3 into one host map, alpha x
(dbar + (u-1)*alpha), over the received symbols followed by the
survivors' columns. ``Repairer.repair_slabs`` runs the maps on the params'
kernel (``CodeParams.kernel``) over byte slabs that span every stripe of a
file or cluster (see ``slab``); ``Repairer.repair`` and ``repair_node``
repair one stripe by running the same maps on one-lane slabs. The
interpolators on a rack's node points and on the rack points of a set of
racks are fixed by the geometry: ``rack_lagrange`` and
``rack_points_lagrange`` build each once per ``CodeParams``.

Traffic per repair: dbar * beta symbols cross racks (one per helper) and
(u-1) * dbar symbols are read inside the target rack. ``repair_slabs``
counts both in a ``BandwidthLedger``; the cross-rack count is the quantity
the construction minimizes. ``helper_racks`` picks the default helper racks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from .layout import (
    CodeMatrix,
    CodeParams,
    MessageMatrix,
    NodeId,
    cached_on_params,
    check_columns,
    column_positions,
    evaluation_point,
    node_index,
    validate_symbols,
)
from .linalg import BatchInterpolator, dot, poly_eval

__all__ = [
    "RepairModelError",
    "BandwidthLedger",
    "rack_point",
    "rack_lagrange",
    "rack_points_lagrange",
    "local_polynomial_coeffs",
    "local_finish",
    "helper_racks",
    "Repairer",
    "repair_node",
]


class RepairModelError(RuntimeError):
    """Repair prerequisites are not met (missing survivors or helpers)."""


@dataclass
class BandwidthLedger:
    """Symbol-transfer counts observed during repair."""

    cross_rack_symbols: int = 0
    intra_rack_symbols: int = 0
    per_helper: dict = dc_field(default_factory=dict)


def rack_point(p: CodeParams, e: int) -> int:
    """The per-rack constant x_e = xi**(e*u)."""
    if not 0 <= e < p.nbar:
        raise ValueError(f"rack {e} outside [0, {p.nbar - 1}]")
    return p.field.pow(p.xi, e * p.u)


@cached_on_params
def rack_lagrange(p: CodeParams, e: int, lost: int | None = None) -> BatchInterpolator:
    """Lagrange interpolator on rack e's node points lambda(e, g), g ascending,
    without node (e, lost) when ``lost`` is given (positionally). Cached on
    ``p``, at most nbar * (u+1) per params, and shared: callers only read it."""
    if lost is not None:
        node_index(p, NodeId(e, lost))  # range check
    pts = [evaluation_point(p, NodeId(e, g)) for g in range(p.u) if g != lost]
    return BatchInterpolator(p.field, pts)


@cached_on_params
def rack_points_lagrange(p: CodeParams, racks: tuple) -> BatchInterpolator:
    """Lagrange interpolator on the rack points x_e of ``racks``, a tuple of
    rack indices, in its order. Cached on ``p`` per tuple and shared:
    callers only read it."""
    return BatchInterpolator(p.field, [rack_point(p, e) for e in racks])


def local_polynomial_coeffs(M: MessageMatrix, e: int) -> list:
    """Coefficients (length u) of every row's local polynomial at rack e."""
    p = M.params
    if not 0 <= e < p.nbar:
        raise ValueError(f"rack {e} outside [0, {p.nbar - 1}]")
    f = p.field
    cp = column_positions(p)
    xeu = rack_point(p, e)
    powers = [f.pow(xeu, t) for t in range(max(p.dbar, p.kbar + 1))]
    out = []
    for row in M.rows:
        coeffs = []
        for j in range(p.u):
            if j == p.u - 1:
                terms = p.dbar
            elif j < p.u0:
                terms = p.kbar + 1
            else:
                terms = p.kbar
            cells = [row[cp[t * p.u + j]] for t in range(terms)]
            coeffs.append(dot(f, cells, powers[:terms]))
        out.append(coeffs)
    return out


def local_finish(p: CodeParams, lost: NodeId) -> tuple:
    """(w, kappa): the in-rack finish of a repair as fixed weights.

    The lost node's u-1 rack mates sit at the points lambda_g, and row i
    of the lost column is sum_g w[g] * col_g[i] + kappa * h[i], where h is
    the rack's leading vector, w[g] is survivor g's Lagrange basis
    polynomial evaluated at the lost point lam, and
    kappa = lam**(u-1) - sum_g w[g] * lambda_g**(u-1) gathers the leading
    term subtracted at each survivor and added back at lam.
    """
    f = p.field
    local = rack_lagrange(p, *lost)
    lam = evaluation_point(p, lost)
    basis = local.matrix()
    weights = [poly_eval(f, [row[g] for row in basis], lam) for g in range(local.t)]
    kappa = f.pow(lam, p.u - 1)
    for w, pt in zip(weights, local.points):
        kappa = f.sub(kappa, f.mul(w, f.pow(pt, p.u - 1)))
    return weights, kappa


def helper_racks(p: CodeParams, failed: NodeId, available=None) -> tuple:
    """The dbar lowest racks, besides the failed node's, with all their nodes
    in ``available`` (all nodes when None); RepairModelError if fewer qualify."""
    racks = [e for e in range(p.nbar) if e != failed.e and (
        available is None or all(NodeId(e, g) in available for g in range(p.u)))]
    if len(racks) < p.dbar:
        raise RepairModelError(
            f"only {len(racks)} fully healthy helper racks available, need dbar={p.dbar}"
        )
    return tuple(racks[: p.dbar])


class Repairer:
    """Repair maps for one failed node and helper-rack set.

    ``helpers`` holds the sorted helper rack indices (by default
    ``helper_racks``) and ``survivors`` the failed node's u-1 rack mates.
    ``reads`` lists every node a repair reads: the helper racks' nodes, then
    the survivors. Construction builds the maps, so repairing many stripes
    costs only their application.
    """

    def __init__(
        self,
        p: CodeParams,
        failed: NodeId,
        helpers: Sequence[int] | None = None,
    ):
        failed = NodeId(*failed)
        node_index(p, failed)
        if helpers is None:
            helpers = helper_racks(p, failed)
        helpers = tuple(sorted(helpers))
        if len(set(helpers)) != len(helpers):
            raise ValueError("duplicate helper racks")
        if len(helpers) != p.dbar:
            raise ValueError(f"need exactly dbar={p.dbar} helper racks, got {len(helpers)}")
        for e in helpers:
            if not 0 <= e < p.nbar:
                raise ValueError(f"helper rack {e} outside [0, {p.nbar - 1}]")
            if e == failed.e:
                raise ValueError("the failed node's own rack cannot act as helper")
        self.p = p
        self.failed = failed
        self.helpers = helpers
        self.survivors = [NodeId(failed.e, g) for g in range(p.u) if g != failed.g]
        self.reads = [NodeId(e, g) for e in helpers for g in range(p.u)] + self.survivors
        self._helper_maps, self._host = self._build_maps()

    def _read(self, columns: Mapping[NodeId, Sequence], node: NodeId) -> Sequence:
        """``columns[node]``, or RepairModelError naming the role it plays."""
        col = columns.get(node)
        if col is None:
            raise RepairModelError(
                f"in-rack survivor {node!r} unavailable; cannot repair "
                f"{self.failed!r} (single-failure model)"
                if node.e == self.failed.e
                else f"helper rack {node.e} is not fully healthy: node {node!r} unavailable"
            )
        return col

    def repair(self, columns: Mapping[NodeId, Sequence[int]]):
        """Regenerate the failed column; returns (column, BandwidthLedger).

        Only the columns of ``reads`` are read, and every symbol of them
        must be a field element (``validate_symbols``). Runs
        ``repair_slabs``, which checks their presence and lengths, on
        one-lane slabs, one per symbol.
        """
        kernel = self.p.kernel
        slabs = {}
        for node in self.reads:
            if node in columns:
                validate_symbols(self.p, columns[node], node)
                slabs[node] = [kernel.pack((s,)) for s in columns[node]]
        column, _, ledger = self.repair_slabs(slabs)
        return kernel.unpack(b"".join(column)), ledger

    def _build_maps(self) -> tuple:
        """(helper maps by rack, host map): stage 1, and stages 2 and 3 composed.

        The host recovers h_target = V s from the received symbols s, V
        being the Lagrange matrix on the helpers' rack points, so row i of
        the lost column weights s by kappa * V[i] and survivor g's row i by
        w[g] (``local_finish``).
        """
        p = self.p
        f = p.field
        x = rack_point(p, self.failed.e)
        phi = [f.pow(x, i) for i in range(p.dbar)]
        helper_maps = {}
        for e in self.helpers:
            lead = rack_lagrange(p, e).matrix()[p.u - 1]
            helper_maps[e] = [[f.mul(w, v) for w in lead for v in phi]]

        weights, kappa = local_finish(p, self.failed)
        vand = rack_points_lagrange(p, self.helpers).matrix()
        host = []
        for i in range(p.dbar):
            row = [f.mul(kappa, v) for v in vand[i]]
            row += [w if r == i else 0 for w in weights for r in range(p.alpha)]
            host.append(row)
        return helper_maps, host

    def repair_slabs(self, columns: Mapping[NodeId, Sequence[bytes]]):
        """(column, sent, ledger): the lost node's alpha slabs, the slab each
        helper rack sent, and the BandwidthLedger of both.

        ``columns`` maps nodes to their alpha slabs (see ``slab``); only
        the nodes of ``reads`` are read, and all of them are checked before
        any map runs. Each helper rack's map runs over that rack's own slabs
        and yields the one slab it sends across racks; ``sent`` maps each
        helper rack to that slab. The host map then runs over the received
        slabs followed by the survivors' slabs. The ledger counts the sent
        slabs' symbols as cross-rack and the survivors' as intra-rack.
        """
        p, kernel = self.p, self.p.kernel
        read = {node: self._read(columns, node) for node in self.reads}
        check_columns(p, read)
        sent = {}
        for e in self.helpers:
            slabs = [slab for g in range(p.u) for slab in read[NodeId(e, g)]]
            sent[e] = kernel.apply(self._helper_maps[e], slabs)[0]
        inputs = [sent[e] for e in self.helpers]
        for node in self.survivors:
            inputs += read[node]
        per_helper = {e: len(slab) // kernel.width for e, slab in sent.items()}
        intra = sum(len(slab) for node in self.survivors for slab in read[node])
        ledger = BandwidthLedger(sum(per_helper.values()), intra // kernel.width, per_helper)
        return kernel.apply(self._host, inputs), sent, ledger


def repair_node(
    p: CodeParams,
    columns,
    failed: NodeId,
    helpers: Sequence[int] | None = None,
):
    """One-shot repair; ``columns`` is a CodeMatrix or a node-keyed mapping.

    The failed node's own column is never read, even if present. Returns
    the regenerated column and the bandwidth ledger, whose cross-rack count
    is dbar * beta by construction.
    """
    if isinstance(columns, CodeMatrix):
        columns = columns.columns()
    return Repairer(p, failed, helpers).repair(columns)
