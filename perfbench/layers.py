"""Span tracing for the traced run, from the benchmark's own files.

The tracer wraps public names of the program's modules. A span is recorded
per call: name, start, end and the span that was open when it began. Spans
live in flat in-memory arrays until the run ends, are then written to a
file, and self time (a span's duration minus its children's) is derived
from them. A few wrapped calls also add counts (bytes, ledger symbols) to
the operation they ran under.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from array import array

# Public names wrapped in the traced run, as (module, attribute path). A
# function is wrapped in every program module that binds it, because
# ``from ... import`` copies the binding; a method is wrapped on its class.
# A name that no longer exists is recorded as absent, so internals can be
# renamed or deleted without editing the benchmark.
TARGETS = (
    ("gf", "BinaryField.__init__"),
    ("gf", "PrimeField.__init__"),
    ("layout", "make_params"),
    ("layout", "fill_message_matrix"),
    ("layout", "unfill_message_matrix"),
    ("linalg", "BatchInterpolator.__init__"),
    ("linalg", "BatchInterpolator.interpolate"),
    ("encode", "encoding_matrix"),
    ("encode", "encode"),
    ("reconstruct", "Decoder.__init__"),
    ("reconstruct", "Decoder.reconstruct"),
    ("repair", "Repairer.__init__"),
    ("repair", "Repairer.repair"),
    ("systematic", "precoding_matrix"),
    ("systematic", "read_systematic_data"),
    ("cluster", "Cluster.store_stripes"),
    ("cluster", "Cluster.repair_failed"),
    ("cluster", "Cluster.read_data"),
    ("cli", "encode_file"),
    ("cli", "decode_shards"),
    ("cli", "read_shard"),
    ("cli", "write_shard"),
    ("cli", "bytes_to_symbols"),
    ("cli", "symbols_to_bytes"),
)


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _ledger(args, result):
    ledger = result[1]
    return {"cross": ledger.cross_rack_symbols, "intra": ledger.intra_rack_symbols}


# Counts taken from a wrapped call's arguments and result, after its span ends.
COUNTERS = {
    "cli.read_shard": _file_bytes,
    "cli.write_shard": _file_bytes,
    "repair.Repairer.repair": _ledger,
}

OP_PREFIX = "op."
PACKAGE = "mbrr"


class Tracer:
    """Wraps ``targets`` in place and records a span per call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list = []
        self._name_ids: dict = {}
        # One entry per span, in start order.
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_kind = None
        self.counts: dict = {}  # (op kind, counter) -> total
        self.counter_errors: dict = {}  # counter -> calls whose count could not be taken
        self.absent: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        now = time.perf_counter_ns
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if counter is not None:
                self._count(name, counter, args, result)
            return result

        return traced

    def _count(self, name, counter, args, result):
        try:
            values = counter(args, result)
        except (AttributeError, IndexError, TypeError, OSError):
            self.counter_errors[name] = self.counter_errors.get(name, 0) + 1
            return
        for key, value in values.items():
            slot = (self.op_kind, f"{name}.{key}")
            self.counts[slot] = self.counts.get(slot, 0) + value

    def install(self) -> None:
        """Wrap every target; missing modules or names are recorded as absent."""
        if self._patches:
            return
        self.absent = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod, path in self.targets:
            name = f"{mod}.{path}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            if owner_path:
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                owners = [owner] if callable(original) else []
            else:
                original = getattr(owner, attr, None)
                owners = [m for m in modules if callable(original) and vars(m).get(attr) is original]
            if not owners:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            for obj in owners:
                setattr(obj, attr, wrapped)
                self._patches.append((obj, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def op(self, kind: str):
        """Open the root span of one timed operation of ``kind``."""
        idx = len(self.start)
        self.name_id.append(self._id(OP_PREFIX + kind))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.op_kind = kind
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()
            self.op_kind = None

    def summarize(self) -> dict:
        """Per (operation kind, span name): [calls, total ns, self ns].

        Spans outside any operation (set-up) have kind None.
        """
        n = len(self.start)
        child = [0] * n
        root = [0] * n
        parent, start, end, name_id = self.parent, self.start, self.end, self.name_id
        for i in range(n):
            p = parent[i]
            if p < 0:
                root[i] = i
            else:
                root[i] = root[p]
                child[p] += end[i] - start[i]
        kinds = [
            name[len(OP_PREFIX):] if name.startswith(OP_PREFIX) else None
            for name in self.names
        ]
        stats: dict = {}
        for i in range(n):
            key = (kinds[name_id[root[i]]], self.names[name_id[i]])
            row = stats.get(key)
            if row is None:
                row = stats[key] = [0, 0, 0]
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return stats

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays
        (int64, native byte order) one after another."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_id", "parent", "start_ns", "end_ns"],
            "itemsize": self.start.itemsize,
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str) -> tuple:
    """Read a file written by ``Tracer.write``: (names, {array name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key in header["arrays"]:
            arr = array("q")
            arr.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays[key] = arr
    return header["names"], arrays


def layer_metrics(tracer: Tracer, stats: dict, cycles: int, stripes: int) -> dict:
    """The per-layer metrics, as {name: (value, unit)}.

    ``.calls``, ``.bytes``, ``.s``, ``.self_s``, ``.ms`` and ``.build_*`` are
    totals per traced cycle; ``.us_per_*`` are means per call (one call
    handles one stripe). Only spans inside a timed operation count, except
    for ``gf.table_build_s``, which is the whole process, set-up included.
    """

    def agg(name, kind="*"):
        rows = [
            row for (k, n), row in stats.items()
            if n == name and k is not None and (kind == "*" or k == kind)
        ]
        return [sum(col) for col in zip(*rows)] if rows else [0, 0, 0]

    def per_cycle(name, col, scale):
        return agg(name)[col] / cycles / scale

    def per_call_us(name):
        calls, total, _ = agg(name)
        return total / calls / 1e3 if calls else 0.0

    def count(kind, key):
        return sum(
            v for (k, c), v in tracer.counts.items()
            if c == key and k is not None and (kind == "*" or k == kind)
        )

    table_ns = sum(
        row[1] for (_, n), row in stats.items()
        if n in ("gf.BinaryField.__init__", "gf.PrimeField.__init__")
    )
    repairs = agg("repair.Repairer.repair")[0]
    rebuilt = count("repair", "cli.write_shard.bytes")
    return {
        "gf.table_build_s": (table_ns / 1e9, "s"),
        "layout.make_params.ms": (per_cycle("layout.make_params", 1, 1e6), "ms"),
        "layout.fill_message_matrix.us_per_stripe": (per_call_us("layout.fill_message_matrix"), "us"),
        "layout.unfill_message_matrix.us_per_stripe": (per_call_us("layout.unfill_message_matrix"), "us"),
        "linalg.BatchInterpolator.build_ms": (per_cycle("linalg.BatchInterpolator.__init__", 1, 1e6), "ms"),
        "linalg.BatchInterpolator.interpolate.calls_per_stripe": (
            per_cycle("linalg.BatchInterpolator.interpolate", 0, stripes), "count"),
        "linalg.BatchInterpolator.interpolate.us_per_call": (
            per_call_us("linalg.BatchInterpolator.interpolate"), "us"),
        "encode.encoding_matrix.build_ms": (per_cycle("encode.encoding_matrix", 1, 1e6), "ms"),
        "encode.encode.us_per_stripe": (per_call_us("encode.encode"), "us"),
        "reconstruct.Decoder.build_ms": (per_cycle("reconstruct.Decoder.__init__", 1, 1e6), "ms"),
        "reconstruct.Decoder.reconstruct.us_per_stripe": (per_call_us("reconstruct.Decoder.reconstruct"), "us"),
        "reconstruct.Decoder.reconstruct.calls": (per_cycle("reconstruct.Decoder.reconstruct", 0, 1), "count"),
        "reconstruct.Decoder.reconstruct.calls_in_read": (
            agg("reconstruct.Decoder.reconstruct", "read")[0] / cycles, "count"),
        "repair.Repairer.build_ms": (per_cycle("repair.Repairer.__init__", 1, 1e6), "ms"),
        "repair.Repairer.repair.us_per_stripe": (per_call_us("repair.Repairer.repair"), "us"),
        "repair.cross_rack_symbols_per_stripe": (
            count("*", "repair.Repairer.repair.cross") / repairs if repairs else 0.0, "count"),
        "repair.intra_rack_symbols_per_stripe": (
            count("*", "repair.Repairer.repair.intra") / repairs if repairs else 0.0, "count"),
        "systematic.precoding_matrix.build_s": (per_cycle("systematic.precoding_matrix", 1, 1e9), "s"),
        "systematic.read_systematic_data.us_per_stripe": (
            per_call_us("systematic.read_systematic_data"), "us"),
        "cluster.Cluster.store_stripes.s": (per_cycle("cluster.Cluster.store_stripes", 1, 1e9), "s"),
        "cluster.Cluster.repair_failed.s": (per_cycle("cluster.Cluster.repair_failed", 1, 1e9), "s"),
        "cluster.Cluster.read_data.s": (per_cycle("cluster.Cluster.read_data", 1, 1e9), "s"),
        "cli.encode_file.self_s": (per_cycle("cli.encode_file", 2, 1e9), "s"),
        "cli.decode_shards.self_s": (per_cycle("cli.decode_shards", 2, 1e9), "s"),
        "cli.read_shard.s": (per_cycle("cli.read_shard", 1, 1e9), "s"),
        "cli.read_shard.calls": (per_cycle("cli.read_shard", 0, 1), "count"),
        "cli.read_shard.bytes": (count("*", "cli.read_shard.bytes") / cycles, "B"),
        "cli.write_shard.s": (per_cycle("cli.write_shard", 1, 1e9), "s"),
        "cli.write_shard.bytes": (count("*", "cli.write_shard.bytes") / cycles, "B"),
        "cli.bytes_to_symbols.s": (per_cycle("cli.bytes_to_symbols", 1, 1e9), "s"),
        "cli.symbols_to_bytes.s": (per_cycle("cli.symbols_to_bytes", 1, 1e9), "s"),
        "cli.repair.read_bytes_per_rebuilt_byte": (
            count("repair", "cli.read_shard.bytes") / rebuilt if rebuilt else 0.0, "ratio"),
    }
