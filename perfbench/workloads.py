"""The benchmark's workloads: inputs made from a seed, timed operations, output checks.

Each workload is a closed loop with one client. A cycle runs the workload's
operations one after another, each starting when the previous one has
returned, and the runner repeats whole cycles until its time budget is
spent. File workloads drive the program only through ``mbrr.cli.main(argv)``;
the simulator workload only through the public ``Cluster`` API. Every name
of the program is looked up at call time, so the traced run's wrappers are
seen.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import shutil
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ``mbrr`` from this checkout's source tree and nowhere else."""
    pkg = os.path.join(SRC, "mbrr")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {pkg}")
    sys.path.insert(0, SRC)
    import mbrr
    import mbrr.cli  # noqa: F401  (the file workloads' entry point)

    if os.path.dirname(os.path.abspath(mbrr.__file__)) != pkg:
        raise SystemExit(f"perfbench: imported mbrr from {mbrr.__file__}, not {pkg}")
    return mbrr


@dataclass
class Step:
    """One timed operation: ``run`` is timed, ``prepare`` and ``check`` are not.

    ``check`` returns None when the output is right, else why it is wrong.
    """

    kind: str  # encode, read, decode or repair
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None


class Workload:
    """Inputs, per-cycle steps and the exact (untimed) metrics of a workload."""

    symbol_width = 1

    def __init__(self):
        self.mbrr = None
        self.stripes = 0
        # Bytes one operation of each kind delivers: user bytes for encode,
        # read and decode, rebuilt-node bytes for repair.
        self.op_bytes: dict = {}
        self.stored_bytes_per_user_byte = 0.0
        self.cross_rack_symbols = 0
        self.repaired_symbols = 0  # alpha per stripe of every checked repair

    def setup(self, mbrr, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def _set_op_bytes(self, p) -> None:
        user = self.stripes * p.B * self.symbol_width
        rebuilt = self.stripes * p.alpha * self.symbol_width
        self.op_bytes = {"encode": user, "read": user, "decode": user, "repair": rebuilt}

    def _ledger_check(self, cross: int, p) -> str | None:
        expected = p.dbar * p.beta * self.stripes
        if cross != expected:
            return f"repair moved {cross} cross-rack symbols, expected {expected}"
        self.cross_rack_symbols += cross
        self.repaired_symbols += p.alpha * self.stripes
        return None


# The shard file names the CLI writes, one per node (e, g).
def _shard_name(e: int, g: int) -> str:
    return f"shard_e{e}_g{g}.mbrr"


_CROSS_RACK = re.compile(r"^cross_rack_symbols (\d+)", re.M)


class FileWorkload(Workload):
    """A seeded file encoded, read, decoded and repaired through the CLI."""

    def __init__(
        self,
        geometry: tuple,
        field_m: int,
        size: int,
        systematic: bool,
        failed: tuple,
        decode_nodes: Callable[[list, int], list],
        reps: dict | None = None,
    ):
        super().__init__()
        self.geometry = geometry
        self.field_m = field_m
        self.symbol_width = (field_m + 7) // 8
        self.size = size
        self.systematic = systematic
        self.failed = failed
        self.decode_nodes = decode_nodes
        # Operations per cycle of each kind, 1 unless given: short ones
        # repeat so that their medians rest on enough samples.
        self.reps = reps or {}

    def setup(self, mbrr, seed, workdir):
        self.mbrr = mbrr
        n, k, u, dbar = self.geometry
        self.p = mbrr.make_params(n, k, u, dbar, field=mbrr.binary_field(self.field_m))
        self.data = random.Random(seed).randbytes(self.size)
        self.input = os.path.join(workdir, "input.bin")
        with open(self.input, "wb") as fh:
            fh.write(self.data)
        symbols = -(-self.size // self.symbol_width)
        self.stripes = -(-symbols // self.p.B)
        self._set_op_bytes(self.p)
        self.shards = os.path.join(workdir, "shards")
        self.read_out = os.path.join(workdir, "read.out")
        self.decode_out = os.path.join(workdir, "decode.out")
        nodes = [(e, g) for e in range(self.p.nbar) for g in range(u)]
        self.shard_files = [os.path.join(self.shards, _shard_name(*nd)) for nd in nodes]
        chosen = self.decode_nodes(nodes, k)
        self.decode_files = [os.path.join(self.shards, _shard_name(*nd)) for nd in chosen]
        self.victim = os.path.join(self.shards, _shard_name(*self.failed))
        self.victim_bytes = b""

    def _cli(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.mbrr.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def cycle(self, index):
        geometry = [str(v) for v in self.geometry]
        if self.field_m != 8:
            geometry += ["--field-m", str(self.field_m)]
        encode_argv = ["encode", self.input, *geometry, "--out", self.shards]
        if self.systematic:
            encode_argv.append("--systematic")
        read_argv = ["decode", self.shards, "--out", self.read_out]
        decode_argv = ["decode", *self.decode_files, "--out", self.decode_out]
        repair_argv = ["repair", self.shards, *(str(v) for v in self.failed)]
        once = [
            Step(
                "encode",
                lambda: self._cli(encode_argv),
                self._check_encode,
                lambda: shutil.rmtree(self.shards, ignore_errors=True),
            ),
            Step(
                "read",
                lambda: self._cli(read_argv),
                lambda res: self._check_output(res, self.read_out),
                lambda: _remove(self.read_out),
            ),
            Step(
                "decode",
                lambda: self._cli(decode_argv),
                lambda res: self._check_output(res, self.decode_out),
                lambda: _remove(self.decode_out),
            ),
            Step("repair", lambda: self._cli(repair_argv), self._check_repair, self._lose_victim),
        ]
        return [step for step in once for _ in range(self.reps.get(step.kind, 1))]

    def _check_encode(self, res):
        rc, _, err = res
        if rc != 0:
            return f"encode exited {rc}: {err.strip()}"
        missing = [f for f in self.shard_files if not os.path.isfile(f)]
        if missing:
            return f"encode wrote no {os.path.basename(missing[0])}"
        stored = sum(os.path.getsize(f) for f in self.shard_files)
        self.stored_bytes_per_user_byte = stored / self.size
        return None

    def _check_output(self, res, path):
        rc, _, err = res
        if rc != 0:
            return f"decode exited {rc}: {err.strip()}"
        with open(path, "rb") as fh:
            got = fh.read()
        if got != self.data:
            return f"{os.path.basename(path)} differs from the input"
        return None

    def _lose_victim(self):
        with open(self.victim, "rb") as fh:
            self.victim_bytes = fh.read()
        os.remove(self.victim)

    def _check_repair(self, res):
        rc, out, err = res
        if rc != 0:
            return f"repair exited {rc}: {err.strip()}"
        with open(self.victim, "rb") as fh:
            if fh.read() != self.victim_bytes:
                return "repaired shard differs from the lost one"
        match = _CROSS_RACK.search(out)
        if match is None:
            return "repair printed no cross_rack_symbols ledger line"
        return self._ledger_check(int(match.group(1)), self.p)


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


class ClusterWorkload(Workload):
    """Seeded stripes stored, read, degraded-read and repaired in the simulator."""

    geometry = (12, 8, 2, 4)  # even u: make_params picks GF(13)
    stripe_count = 1000
    repairs_per_cycle = 3

    def setup(self, mbrr, seed, workdir):
        self.mbrr = mbrr
        # Warms the process-wide field cache, as binary_field does for files.
        p = mbrr.make_params(*self.geometry)
        rng = random.Random(seed)
        self.data = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(self.stripe_count)]
        self.stripes = self.stripe_count
        self._set_op_bytes(p)
        self.nodes = list(mbrr.all_nodes(p))
        self.cluster = None
        self.saved: dict = {}

    def _store(self):
        m = self.mbrr
        p = m.make_params(*self.geometry)
        cluster = m.Cluster(p)
        cluster.store_stripes([m.encode(m.fill_message_matrix(p, vec)) for vec in self.data])
        return cluster

    def _check_store(self, cluster):
        if cluster.stripe_count != self.stripes:
            return f"stored {cluster.stripe_count} stripes, expected {self.stripes}"
        p = cluster.params
        stored = sum(len(cluster.node_shard(node)) * p.alpha for node in self.nodes)
        self.stored_bytes_per_user_byte = stored / (self.stripes * p.B)
        self.cluster = cluster
        return None

    def _check_read(self, got):
        return None if got == self.data else "read_data differs from the stored stripes"

    def _fail(self, node):
        if self.cluster.is_healthy(node):
            self.saved[node] = self.cluster.node_shard(node)
            self.cluster.fail_node(node)

    def _check_repair(self, node, ledger):
        if self.cluster.node_shard(node) != self.saved.pop(node):
            return f"node {tuple(node)} was rebuilt with different content"
        return self._ledger_check(ledger.cross_rack_symbols, self.cluster.params)

    def cycle(self, index):
        k = self.geometry[1]
        degraded = self.nodes[index % k]  # one of the k nodes a healthy read uses
        n = len(self.nodes)
        rotation = [self.nodes[(2 * index + i) % n] for i in range(self.repairs_per_cycle - 1)]
        steps = [
            Step("encode", self._store, self._check_store),
            Step("read", lambda: self.cluster.read_data(), self._check_read),
            Step(
                "decode",
                lambda: self.cluster.read_data(),
                self._check_read,
                lambda: self._fail(degraded),
            ),
        ]
        for node in [degraded, *rotation]:
            steps.append(
                Step(
                    "repair",
                    lambda node=node: self.cluster.repair_failed(node),
                    lambda ledger, node=node: self._check_repair(node, ledger),
                    lambda node=node: self._fail(node),
                )
            )
        return steps


def make(name: str) -> Workload:
    if name == "stream-gf8":
        # Many small stripes (B=20): per-stripe paths and byte framing do the work.
        return FileWorkload(
            (12, 7, 3, 3),
            8,
            256 << 10,
            systematic=False,
            failed=(1, 1),
            decode_nodes=lambda nodes, k: nodes[-k:],  # the k highest-id shards
        )
    if name == "wide-gf16":
        # Wide interpolation (k=44), 2-byte symbols, plan building and the
        # systematic transform. Rack 9's default helpers are racks 0-7.
        return FileWorkload(
            (50, 44, 5, 8),
            16,
            32 << 10,
            systematic=True,
            failed=(9, 0),
            # One systematic shard swapped for a parity shard.
            decode_nodes=lambda nodes, k: nodes[1:k] + nodes[-1:],
            reps={"read": 20, "decode": 4, "repair": 8},
        )
    if name == "cluster-prime":
        return ClusterWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("stream-gf8", "wide-gf16", "cluster-prime")
