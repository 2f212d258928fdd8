"""In-memory rack-aware cluster simulator.

Nodes are arranged in nbar racks of u; each healthy node holds one
alpha-symbol column per stored stripe, kept as alpha byte slabs (see
``slab``): slab i holds the node's symbol i of every stripe. A failed node
is one whose slabs are gone; the cluster keeps no other record of node
state. Stores (``store_data``), reads and repairs run the file commands'
maps once over those slabs, on the params' kernel (``CodeParams.kernel``),
over any field, never stripe by stripe. The simulator is deterministic
and single-threaded: the same store/fail/repair/read script always
produces the same final state and the same bandwidth ledgers.

Policies (overridable per call):
  reads   the k lowest healthy node ids (``systematic.read_nodes``); those
          are the systematic nodes when all of them are healthy, and a
          systematic cluster then reads their symbols without decoding
  repairs the dbar lowest fully healthy racks outside the host rack (``helper_racks``)

A repair moves exactly beta symbols out of each helper rack, so the ledger,
counted from the slabs the repair moved, must show dbar * beta cross-rack
symbols per stripe; ``repair_failed`` checks that identity instead of
trusting the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .encode import encode_slabs
from .layout import CodeMatrix, CodeParams, NodeId, all_nodes, node_index, validate_data
from .repair import BandwidthLedger, RepairModelError, Repairer, helper_racks
from .systematic import read_nodes, read_slabs, systematic_encode_slabs

__all__ = [
    "InsufficientSurvivorsError",
    "OverheadReport",
    "overhead_report",
    "Cluster",
]


class InsufficientSurvivorsError(RuntimeError):
    """Fewer than k healthy nodes remain; no read can succeed."""


@dataclass(frozen=True)
class OverheadReport:
    """Storage and repair cost ratios of a parameter set.

    storage_overhead is total stored symbols over data symbols, n*alpha/B.
    repair_bandwidth is the cross-rack symbol count gamma = dbar*beta of a
    single-node repair, and bandwidth_to_storage is gamma/alpha, which is 1
    by construction: repairing a node moves exactly as much across racks as
    the node stores.
    """

    storage_overhead: Fraction
    repair_bandwidth: int
    bandwidth_to_storage: Fraction

    def lines(self) -> list:
        so = self.storage_overhead
        return [
            f"storage_overhead   {so.numerator}/{so.denominator} = {float(so):.4f}",
            f"repair_bandwidth   {self.repair_bandwidth}",
            f"bandwidth_to_storage {self.bandwidth_to_storage}",
        ]


def overhead_report(p: CodeParams) -> OverheadReport:
    return OverheadReport(
        storage_overhead=Fraction(p.n * p.alpha, p.B),
        repair_bandwidth=p.dbar * p.beta,
        bandwidth_to_storage=Fraction(p.dbar * p.beta, p.alpha),
    )


def _same_code(a: CodeParams, b: CodeParams) -> bool:
    # Equal q is the same field: each GF(2^m) has one polynomial (``gf``).
    return (a.n, a.k, a.u, a.dbar, a.field.q) == (b.n, b.k, b.u, b.dbar, b.field.q)


class Cluster:
    """One erasure-coded placement group: n node shards per stored stripe.

    ``systematic`` picks how ``store_data`` encodes, and so what ``read_data``
    returns: placement-order data symbols for a systematic cluster, matrix
    fill-order symbols otherwise (``store_stripes`` takes it on trust).
    """

    def __init__(self, params: CodeParams, systematic: bool = False):
        self.params = params
        self.systematic = bool(systematic)
        # Node -> its alpha slabs, or None once it has failed (``is_healthy``).
        self._shards = {node: [b""] * params.alpha for node in all_nodes(params)}
        self._stripes = 0

    @property
    def stripe_count(self) -> int:
        return self._stripes

    def healthy_nodes(self) -> list:
        return [n for n in all_nodes(self.params) if self._shards[n] is not None]

    def failed_nodes(self) -> list:
        return [n for n in all_nodes(self.params) if self._shards[n] is None]

    def is_healthy(self, node) -> bool:
        """Whether ``node``, which must lie on the rack grid, holds its slabs."""
        node = NodeId(*node)
        node_index(self.params, node)
        return self._shards[node] is not None

    def node_shard(self, node) -> list:
        """Per-stripe columns held by a node; unavailable once it failed."""
        node = NodeId(*node)
        if not self.is_healthy(node):
            raise RepairModelError(f"node {node!r} has failed: shard unavailable")
        p = self.params
        flat = p.kernel.unpack(p.kernel.join(self._shards[node]))
        return [flat[i : i + p.alpha] for i in range(0, len(flat), p.alpha)]

    def _storable(self) -> CodeParams:
        """The params, for a store: it replaces every shard, so all nodes must be healthy."""
        failed = self.failed_nodes()
        if failed:
            raise RepairModelError(f"cannot store stripes with failed nodes: {failed}")
        return self.params

    def store_data(self, data: Sequence[Sequence[int]]) -> None:
        """Encode per-stripe data vectors with one slab map and place them,
        replacing any previous content, so that ``read_data`` returns ``data``:
        B field elements a stripe (``validate_data``), in placement order for a
        systematic cluster and fill order otherwise. All nodes must be healthy."""
        p = self._storable()
        for t, stripe in enumerate(data):
            try:
                validate_data(p, stripe)
            except ValueError as exc:
                raise ValueError(f"stripe {t}: {exc}") from None
        slabs = [p.kernel.pack(column) for column in zip(*data)] or [b""] * p.B
        if self.systematic:
            shards = systematic_encode_slabs(p, slabs)
        else:
            shards = encode_slabs(p, slabs)
        self._shards, self._stripes = shards, len(data)

    def store_stripes(self, matrices: Iterable[CodeMatrix]) -> None:
        """Place column (e,g) of every stripe on node (e,g), replacing any
        previous content. All nodes must be healthy, and every symbol must
        be a field element: a plain int in [0, q), as ``validate_data``
        requires of data."""
        p = self._storable()
        rows = []  # each stripe's alpha code-matrix rows, stripe after stripe
        stripes = 0
        for C in matrices:
            if not _same_code(C.params, p):
                raise ValueError("stripe parameters do not match the cluster")
            if len(C.rows) != p.alpha or any(len(r) != p.n for r in C.rows):
                raise ValueError(
                    f"stripe {stripes}: expected {p.alpha} x {p.n} code matrix"
                )
            rows += C.rows
            stripes += 1
        q = p.field.q
        shards = {}
        for node, col in zip(all_nodes(p), zip(*rows) if rows else [()] * p.n):
            # Whole-column passes: the entry types, then the distinct values.
            bad = set(map(type, col)) - {int}
            if not bad:
                distinct = set(col)
                bad = distinct and (min(distinct) < 0 or max(distinct) >= q)
            if bad:
                at = next(t for t, v in enumerate(col) if type(v) is not int or not 0 <= v < q)
                raise ValueError(
                    f"stripe {at // p.alpha}: node {node!r} holds {col[at]!r}, "
                    f"which is not an element of {p.field!r}"
                )
            shards[node] = p.kernel.split(p.kernel.pack(col), p.alpha)
        self._shards, self._stripes = shards, stripes

    def fail_node(self, node) -> None:
        node = NodeId(*node)
        if not self.is_healthy(node):
            raise ValueError(f"node {node!r} already failed")
        self._shards[node] = None

    def repair_failed(self, node, helpers: Sequence[int] | None = None) -> BandwidthLedger:
        """Regenerate a failed node on the helper racks' traffic and rejoin it.

        Returns the ledger over all stripes, after checking the defining
        bandwidth identity: dbar * beta cross-rack symbols per stripe, no
        more, no less. Without ``helpers``, ``helper_racks`` picks them
        among the healthy nodes. ``Repairer`` refuses helpers it cannot use
        and a repair that would read a failed node.
        """
        p = self.params
        node = NodeId(*node)
        if self.is_healthy(node):
            raise ValueError(f"node {node!r} is healthy: nothing to repair")
        if helpers is None:
            helpers = helper_racks(p, node, self.healthy_nodes())
        rep = Repairer(p, node, helpers)
        column, _, ledger = rep.repair_slabs(self._shards)
        expected = p.dbar * p.beta * self._stripes
        if ledger.cross_rack_symbols != expected:
            raise RuntimeError(
                f"bandwidth identity violated: {ledger.cross_rack_symbols} cross-rack "
                f"symbols for {self._stripes} stripes, expected {expected}"
            )
        self._shards[node] = column
        return ledger

    def read_data(self, survivors: Sequence[NodeId] | None = None) -> list:
        """Per-stripe data symbols, read from k healthy nodes.

        Default survivor policy (``read_nodes``): the k lowest healthy node
        ids. A systematic cluster with its systematic nodes intact reads the
        stored symbols back directly; any other read decodes.
        """
        p = self.params
        healthy = self.healthy_nodes()
        if len(healthy) < p.k:
            raise InsufficientSurvivorsError(
                f"{len(healthy)} healthy nodes of n={p.n}; need at least k={p.k}"
            )
        if survivors is None:
            nodes = read_nodes(p, healthy)
        else:
            nodes = [NodeId(*n) for n in survivors]
            if len(set(nodes)) != len(nodes):
                raise ValueError("duplicate survivors")
            for n in nodes:
                if not self.is_healthy(n):
                    raise RepairModelError(f"requested survivor {n!r} has failed")
        data = read_slabs(p, {n: self._shards[n] for n in nodes}, self.systematic)
        flat = p.kernel.unpack(p.kernel.join(data))
        return [flat[i : i + p.B] for i in range(0, len(flat), p.B)]
