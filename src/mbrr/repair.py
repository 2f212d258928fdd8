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

Two facts drive the repair protocol. First, a rack's u stored columns
determine its local polynomials outright (u points, degree < u). Second,
stacking the degree-(u-1) leading coefficients of all rows gives per-rack
vectors h_e = M1 * phi_e with phi_e = (1, x_e, x_e**2, ...) and
x_e = xi**(e*u); because M1 is symmetric, the single symbol a helper rack
sends, phi_target . h_helper, equals phi_helper . h_target. The dbar symbols
collected from the helper racks are therefore evaluations of the target
rack's own leading vector at dbar distinct points x_e, and one Vandermonde
solve recovers it. The replacement node then subtracts the leading term from
the u-1 surviving in-rack columns, interpolates the residual of degree at
most u-2, and evaluates at its own point.

The rack steps take columns as a node-keyed map ``{node: column}``, in any
order. The interpolators on a rack's node points are fixed by the geometry:
``rack_lagrange`` builds each once per ``CodeParams`` for every step.

``Repairer.repair_slabs`` runs the same protocol over byte slabs that span
every stripe of a file. Every step above is linear, so each helper rack's
contribution is one fixed 1 x (u*alpha) map over its own slabs, and the
host rack's finish is one fixed alpha x (dbar + (u-1)*alpha) map over the
dbar received slabs and its u-1 survivors' slabs.

Traffic per repair: dbar * beta symbols cross racks (one per helper) and
(u-1) * dbar symbols are read inside the target rack. ``BandwidthLedger``
records both; the cross-rack count is the quantity the construction
minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, NamedTuple, Sequence

from .layout import (
    CodeMatrix,
    CodeParams,
    MessageMatrix,
    NodeId,
    cached_on_params,
    column_positions,
    evaluation_point,
    node_index,
)
from .linalg import BatchInterpolator, dot, poly_eval
from .reconstruct import _check_observation

__all__ = [
    "RepairModelError",
    "BandwidthLedger",
    "LeadingVector",
    "HelperSymbol",
    "rack_point",
    "rack_lagrange",
    "local_polynomial_coeffs",
    "rack_leading_vector",
    "helper_symbol",
    "recover_leading_vector",
    "repair_local",
    "local_finish",
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


@dataclass(frozen=True)
class LeadingVector:
    """Degree-(u-1) local coefficients of all dbar rows at one rack."""

    e: int
    h: tuple


class HelperSymbol(NamedTuple):
    """The one symbol a helper rack contributes to a repair."""

    helper_rack: int
    target_rack: int
    value: int


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


def _rack_columns_in_order(
    p: CodeParams, e: int, cols: Mapping[NodeId, Sequence[int]], expect: int
) -> list:
    if len(cols) != expect:
        raise ValueError(f"expected {expect} columns of rack {e}, got {len(cols)}")
    _check_observation(p, cols)
    for node in cols:
        if node[0] != e:
            raise ValueError(f"column of node {node!r} does not belong to rack {e}")
    return [col for _, col in sorted(cols.items())]


def rack_leading_vector(
    p: CodeParams, e: int, rack_cols: Mapping[NodeId, Sequence[int]]
) -> LeadingVector:
    """Leading local coefficients of a fully surviving rack.

    Needs ``{node: column}`` for all u nodes of the rack.
    """
    ordered = _rack_columns_in_order(p, e, rack_cols, p.u)
    interp = rack_lagrange(p, e)
    h = tuple(
        interp.leading_coefficient([col[i] for col in ordered]) for i in range(p.dbar)
    )
    return LeadingVector(e, h)


def helper_symbol(p: CodeParams, target_rack: int, hv: LeadingVector) -> HelperSymbol:
    """The single cross-rack symbol rack hv.e sends toward target_rack."""
    if not 0 <= target_rack < p.nbar:
        raise ValueError(f"rack {target_rack} outside [0, {p.nbar - 1}]")
    if hv.e == target_rack:
        raise ValueError("a rack cannot act as its own helper")
    if len(hv.h) != p.dbar:
        raise ValueError(f"leading vector has length {len(hv.h)}, expected {p.dbar}")
    value = poly_eval(p.field, hv.h, rack_point(p, target_rack))
    return HelperSymbol(hv.e, target_rack, value)


def recover_leading_vector(
    p: CodeParams, e_star: int, symbols: Sequence[HelperSymbol]
) -> LeadingVector:
    """Target rack's own leading vector from dbar helper symbols.

    Symmetry of M1 makes each received value an evaluation of the target's
    leading vector at the sending rack's point x_e, so a Vandermonde solve
    on the dbar distinct points recovers the vector. Any dbar valid helper
    racks give the same answer.
    """
    if not 0 <= e_star < p.nbar:
        raise ValueError(f"rack {e_star} outside [0, {p.nbar - 1}]")
    if len(symbols) != p.dbar:
        raise ValueError(f"need dbar={p.dbar} helper symbols, got {len(symbols)}")
    seen = set()
    for s in symbols:
        if s.target_rack != e_star:
            raise ValueError(f"helper symbol targets rack {s.target_rack}, not {e_star}")
        if s.helper_rack == e_star or not 0 <= s.helper_rack < p.nbar:
            raise ValueError(f"invalid helper rack {s.helper_rack}")
        if s.helper_rack in seen:
            raise ValueError(f"duplicate helper rack {s.helper_rack}")
        seen.add(s.helper_rack)
    ordered = sorted(symbols, key=lambda s: s.helper_rack)
    pts = [rack_point(p, s.helper_rack) for s in ordered]
    coeffs = BatchInterpolator(p.field, pts).interpolate([s.value for s in ordered])
    return LeadingVector(e_star, tuple(coeffs))


def repair_local(
    p: CodeParams,
    e_star: int,
    g_star: int,
    surviving: Mapping[NodeId, Sequence[int]],
    hv: LeadingVector,
) -> list:
    """Rebuild the lost column from u-1 in-rack survivors and the leading vector.

    Per row: subtract the known degree-(u-1) term from every survivor value,
    interpolate the residual of degree at most u-2, and evaluate the local
    polynomial at the lost node's point.
    """
    node_index(p, NodeId(e_star, g_star))  # range check
    if hv.e != e_star:
        raise ValueError(f"leading vector belongs to rack {hv.e}, not {e_star}")
    if len(hv.h) != p.dbar:
        raise ValueError(f"leading vector has length {len(hv.h)}, expected {p.dbar}")
    ordered = _rack_columns_in_order(p, e_star, surviving, p.u - 1)
    if (e_star, g_star) in surviving:
        raise ValueError(f"node ({e_star}, {g_star}) cannot survive its own failure")
    f = p.field
    interp = rack_lagrange(p, e_star, g_star)
    lam_star = evaluation_point(p, NodeId(e_star, g_star))
    lead_pow_star = f.pow(lam_star, p.u - 1)
    lead_pows = [f.pow(x, p.u - 1) for x in interp.points]
    out = []
    for i in range(p.dbar):
        lead = hv.h[i]
        vals = [f.sub(col[i], f.mul(lead, w)) for col, w in zip(ordered, lead_pows)]
        v = poly_eval(f, interp.interpolate(vals), lam_star)
        out.append(f.add(v, f.mul(lead, lead_pow_star)))
    return out


def local_finish(p: CodeParams, lost: NodeId) -> tuple:
    """(w, kappa): the in-rack finish of ``repair_local`` as fixed weights.

    The lost node's u-1 rack mates sit at the points lambda_g, and row i
    of the lost column is sum_g w[g] * col_g[i] + kappa * h[i], where h is
    the rack's leading vector, w[g] is survivor g's Lagrange basis
    polynomial evaluated at the lost point lam, and
    kappa = lam**(u-1) - sum_g w[g] * lambda_g**(u-1) gathers the leading
    term that ``repair_local`` subtracts at each survivor and adds back at
    lam.
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


def _default_helpers(p: CodeParams, e_star: int) -> tuple:
    return tuple(e for e in range(p.nbar) if e != e_star)[: p.dbar]


class Repairer:
    """Repair pipeline for one failed node and helper-rack set.

    ``helpers`` (sorted rack indices) and ``survivors`` (the failed node's
    u-1 rack mates) name every node a repair reads. The slab maps are built
    on the first ``repair_slabs`` call and reused.
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
            helpers = _default_helpers(p, failed.e)
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
        self._slab_maps = None  # built by the first repair_slabs call

    def _read(self, columns: Mapping[NodeId, Sequence], node: NodeId) -> Sequence:
        """``columns[node]``, or RepairModelError naming the role it plays."""
        col = columns.get(node)
        if col is None:
            raise RepairModelError(
                f"in-rack survivor {node!r} unavailable; cannot repair "
                f"{self.failed!r} (single-failure model)"
                if node.e == self.failed.e
                else f"helper rack {node.e} is incomplete: node {node!r} unavailable"
            )
        return col

    def repair(self, columns: Mapping[NodeId, Sequence[int]]):
        """Regenerate the failed column; returns (column, BandwidthLedger)."""
        p = self.p
        ledger = BandwidthLedger()
        received = []
        for e in self.helpers:
            rack = [NodeId(e, g) for g in range(p.u)]
            hv = rack_leading_vector(p, e, {node: self._read(columns, node) for node in rack})
            received.append(helper_symbol(p, self.failed.e, hv))
            ledger.cross_rack_symbols += p.beta
            ledger.per_helper[e] = ledger.per_helper.get(e, 0) + p.beta
        hv_star = recover_leading_vector(p, self.failed.e, received)
        surviving = {node: self._read(columns, node) for node in self.survivors}
        ledger.intra_rack_symbols += p.alpha * len(surviving)
        column = repair_local(p, self.failed.e, self.failed.g, surviving, hv_star)
        return column, ledger

    def _build_slab_maps(self) -> tuple:
        """(helper maps by rack, host map), in closed form from the interpolators.

        Helper rack e sends phi_target . h_e. Here h_e[i] weights the
        rack's u values of row i by the degree-(u-1) row ``lead`` of its
        Lagrange matrix (the leading coefficient), and phi_target = (1, x, x**2, ...)
        at the target rack's point x, so the helper map has entry
        lead[g] * x**i at input g*alpha + i. The host recovers
        h_target = V s from the received slabs s, V being the Lagrange matrix
        on the helpers' rack points, and finishes each row as
        ``local_finish`` describes.
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
        vand = BatchInterpolator(f, [rack_point(p, e) for e in self.helpers]).matrix()
        host = []
        for i in range(p.dbar):
            row = [f.mul(kappa, v) for v in vand[i]]
            row += [w if r == i else 0 for w in weights for r in range(p.alpha)]
            host.append(row)
        return helper_maps, host

    def repair_slabs(self, kernel, columns: Mapping[NodeId, Sequence[bytes]]):
        """Slab form of ``repair``; returns (lost node's alpha slabs, sent).

        ``columns`` maps nodes to their alpha slabs (see ``slab``); only
        the helper racks and the u-1 in-rack survivors are read. Each helper
        rack's map runs over that rack's own slabs and yields the one slab
        it sends across racks; ``sent`` maps each helper rack to that slab.
        The host map then runs over the received slabs followed by the
        survivors' slabs.
        """
        p = self.p
        if self._slab_maps is None:
            self._slab_maps = self._build_slab_maps()
        helper_maps, host = self._slab_maps

        def rows_of(node):
            col = self._read(columns, node)
            if len(col) != p.alpha:
                raise ValueError(
                    f"node {node!r} has {len(col)} slabs, expected alpha={p.alpha}"
                )
            return col

        sent = {}
        for e in self.helpers:
            slabs = [slab for g in range(p.u) for slab in rows_of(NodeId(e, g))]
            sent[e] = kernel.apply(helper_maps[e], slabs)[0]
        inputs = [sent[e] for e in self.helpers]
        for node in self.survivors:
            inputs += rows_of(node)
        return kernel.apply(host, inputs), sent

    def slab_ledger(self, kernel, columns: Mapping[NodeId, Sequence], sent) -> BandwidthLedger:
        """The ledger of a ``repair_slabs`` run, counted from the slabs it moved.

        Each helper rack's ``sent`` slab crossed racks, and the survivors'
        slabs in ``columns`` were read inside the host rack.
        """
        per_helper = {e: len(slab) // kernel.width for e, slab in sent.items()}
        intra = sum(len(slab) for node in self.survivors for slab in columns[node])
        return BandwidthLedger(sum(per_helper.values()), intra // kernel.width, per_helper)


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
