"""Command line front end: params, encode, decode, repair, simulate, selftest.

``encode`` writes one shard file per node (format: ``shardfile``) and
``decode`` rebuilds the file from any k of them. ``repair`` opens only the
shards of one lost node's helper racks and rack mates, each once, and
reports the symbols sent across and within racks. ``simulate`` runs a script
on a ``Cluster``; ``selftest`` runs the suites of ``check``. A refused input
exits 2 with one message.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time
from contextlib import ExitStack, suppress
from typing import Sequence

from .check import selftest_suites
from .cluster import Cluster, InsufficientSurvivorsError, overhead_report
from .layout import NodeId, all_nodes
from .repair import Repairer
from .shardfile import (
    _check_out, _decode_admitted, _open_shards, _params_from_header, _shard_paths, _write_atomic,
    encode_file, file_params, node_shards, shard_filename, split_payload, write_shards,
)
from .shardfile import bytes_to_symbols, decode_shards, read_shard, symbols_to_bytes, write_shard
from .systematic import precoding_matrix

__all__ = ["main"]

# No command calls these: perfbench/layers.py traces them as attributes of
# mbrr.cli, and perfbench/selftest.py checks precoding_matrix here by
# identity. ROADMAP item 1 retargets the tracer and deletes this tuple.
_TRACED = (bytes_to_symbols, decode_shards, precoding_matrix, read_shard, symbols_to_bytes, write_shard)


def _non_negative_ints(texts: Sequence[str]) -> list:
    """Each text as a non-negative decimal integer (the simulator's and the
    rack lists' rule), else ValueError."""
    for text in texts:
        if not text.isdecimal():
            raise ValueError(f"{text!r} is not a non-negative integer")
    return [int(text) for text in texts]


def _parse_helpers(text: str | None) -> list | None:
    if text is None:
        return None
    try:
        return _non_negative_ints(text.split(","))
    except ValueError:
        raise ValueError(f"--helpers expects comma-separated rack indices: {text!r}") from None


# ---------------------------------------------------------------- commands


def cmd_params(args) -> int:
    p = file_params(args.n, args.k, args.u, args.dbar, args.field_m)
    rep = overhead_report(p)
    print(f"n {p.n}  k {p.k}  u {p.u}  dbar {p.dbar}")
    print(f"racks {p.nbar} x {p.u} nodes; kbar {p.kbar}  u0 {p.u0}")
    print(f"alpha {p.alpha}  beta {p.beta}  B {p.B}")
    print(f"field {p.field!r}")
    for line in rep.lines():
        print(line)
    return 0


def cmd_encode(args) -> int:
    p = file_params(args.n, args.k, args.u, args.dbar, args.field_m)
    out_dir = _check_out(args.out or args.input + ".shards", True)
    names = {shard_filename(e, g) for e, g in all_nodes(p)}
    stale = []
    with suppress(ValueError):  # a directory without shards holds no stale one
        stale = [path for path in _shard_paths(out_dir) if os.path.basename(path) not in names]
    if stale:
        raise ValueError(f"output directory {out_dir} holds {stale[0]}, a shard this encode does not write")
    with open(args.input, "rb") as fh:
        data = fh.read()
    headers, payloads = encode_file(data, p, systematic=args.systematic)
    write_shards(out_dir, headers, payloads)
    print(f"encoded {len(data)} bytes into {p.n} shards of {headers[0].stripe_count} stripes -> {out_dir}")
    return 0


def cmd_decode(args) -> int:
    _check_out(args.out, False)
    paths = []
    for item in args.shards:
        paths += _shard_paths(item) if os.path.isdir(item) else [item]
    # Refuse an --out that is a shard it reads (samestat: realpath costs
    # as much as a small read); a missing file fails to open below.
    with suppress(FileNotFoundError):
        out = os.stat(args.out)
        for path in paths:
            if os.path.samestat(os.stat(path), out):
                raise ValueError(f"output file {args.out} is the input shard {path}")
    # _open_shards compares every shard's header with the first one's and
    # checks its size, so the payloads read from its handles need no check.
    with ExitStack() as stack:
        found = _open_shards(paths, stack)
        data = _decode_admitted(found, lambda fh: fh.read())
    _write_atomic(args.out, data)
    print(f"decoded {len(data)} bytes from {len(found)} shards -> {args.out}")
    return 0


def cmd_repair(args) -> int:
    failed = NodeId(*_non_negative_ints([args.e, args.g]))
    out_dir = _check_out(args.out or args.dir, True)
    listing = {os.path.basename(path): path for path in _shard_paths(args.dir)}

    def require(node):
        name = shard_filename(node.e, node.g)
        if name not in listing:
            raise ValueError(
                f"cannot repair node {tuple(failed)}: shard of node "
                f"{tuple(node)} is missing ({os.path.join(args.dir, name)})"
            )
        return listing[name]

    # The code comes from the header of the probe: an in-rack survivor
    # (racks hold u >= 2 nodes, so (e, 0) or (e, 1) is one), whose handle
    # also serves its payload. Without it any other shard gives the grid, so
    # that a node outside it is not reported as missing a rack mate.
    mate = NodeId(failed.e, 1 if failed.g == 0 else 0)
    probe = listing.get(shard_filename(*mate), next(iter(listing.values())))
    with ExitStack() as stack:
        found = _open_shards([probe], stack)
        first = next(iter(found.values()))[0]
        p = _params_from_header(first)
        rep = Repairer(p, failed, _parse_helpers(args.helpers))
        others = (path for path in map(require, rep.reads) if path != probe)
        _open_shards(others, stack, found)
        if set(found) != set(rep.reads):
            raise ValueError(
                f"shard files in {args.dir} do not hold the nodes their names give"
            )
        columns = {node: split_payload(p, fh.read()) for node, (_, fh, _) in found.items()}
    column, _, ledger = rep.repair_slabs(columns)
    (path,) = write_shards(out_dir, *node_shards(p, first, {failed: column}))
    print(f"repaired node ({failed.e}, {failed.g}) -> {path}")
    print(f"stripes {first.stripe_count}")
    print(f"cross_rack_symbols {ledger.cross_rack_symbols} ({p.dbar * p.beta} per stripe)")
    print(f"intra_rack_symbols {ledger.intra_rack_symbols}")
    for e in sorted(ledger.per_helper):
        print(f"  helper rack {e}: {ledger.per_helper[e]} symbols")
    return 0


# ---------------------------------------------------------------- simulate


# Statement -> (fewest arguments, most arguments, what it takes).
_SIM_ARGS = {
    "params": (4, 5, "n k u dbar [m]"),
    "systematic": (1, 1, "on|off"),
    "seed": (1, 1, "N"),
    "store": (1, 1, "N"),
    "fail": (2, 2, "E G"),
    "repair": (2, 3, "E G [E1,E2,...]"),
    "read": (0, 0, "no arguments"),
}


def cmd_simulate(args) -> int:
    """Run a store/fail/repair/read script and print a deterministic report.

    Grammar, one statement per line (# starts a comment):

        params N K U DBAR [M]    declare the code (first statement)
        systematic on|off        encode mode for later store (default off)
        seed N                   RNG seed for generated data (default 0)
        store N                  encode N random stripes and place them
        fail E G                 fail node (E, G)
        repair E G [E1,E2,...]   repair node, optional helper racks
        read                     read back and verify all stored data

    Every number is a non-negative integer. Any ValueError a statement
    raises stops the script with an error naming its line. Model
    violations during fail/repair/read are reported as lines, not crashes,
    so scripts can demonstrate failure cases.
    """
    with open(args.script, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    p = None
    cluster = None
    systematic = False
    rng = random.Random(0)
    stored: list = []
    rc = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *rest = line.split()
        try:
            if op not in _SIM_ARGS:
                raise ValueError(f"unknown statement {op!r}")
            fewest, most, takes = _SIM_ARGS[op]
            if not fewest <= len(rest) <= most or (
                op == "systematic" and rest[0] not in ("on", "off")
            ):
                raise ValueError(f"{op} takes {takes}")
            if op == "params":
                p = file_params(*_non_negative_ints(rest))
                cluster = None
                print(
                    f"params n={p.n} k={p.k} u={p.u} dbar={p.dbar} "
                    f"alpha={p.alpha} B={p.B} field={p.field!r}"
                )
            elif op == "seed":
                (seed,) = _non_negative_ints(rest)
                rng = random.Random(seed)
                print(f"seed {seed}")
            elif op == "systematic":
                systematic = rest == ["on"]
                print(f"systematic {rest[0]}")
            elif p is None:
                raise ValueError("params must come first")
            elif op == "store":
                (count,) = _non_negative_ints(rest)
                stored = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(count)]
                cluster = Cluster(p, systematic=systematic)
                cluster.store_data(stored)
                print(f"store stripes={count} symbols={count * p.B}")
            elif cluster is None:
                raise ValueError("store must precede fail/repair/read")
            elif op == "fail":
                node = NodeId(*_non_negative_ints(rest))
                try:
                    cluster.fail_node(node)
                    print(f"fail node=({node.e},{node.g})")
                except (ValueError, RuntimeError) as exc:
                    print(f"fail node=({node.e},{node.g}) error: {exc}")
            elif op == "repair":
                node = NodeId(*_non_negative_ints(rest[:2]))
                helpers = _non_negative_ints(rest[2].split(",")) if len(rest) > 2 else None
                try:
                    ledger = cluster.repair_failed(node, helpers)
                    hh = ",".join(str(e) for e in sorted(ledger.per_helper))
                    print(
                        f"repair node=({node.e},{node.g}) helpers={hh} "
                        f"cross_rack={ledger.cross_rack_symbols} "
                        f"per_stripe={p.dbar * p.beta} "
                        f"intra_rack={ledger.intra_rack_symbols} ok"
                    )
                except (ValueError, RuntimeError) as exc:
                    print(f"repair node=({node.e},{node.g}) error: {exc}")
            else:  # read, the one statement left
                try:
                    got = cluster.read_data()
                except InsufficientSurvivorsError as exc:
                    print(f"read error: {exc}")
                    continue
                ok = got == stored
                print(f"read stripes={len(got)} " + ("verified ok" if ok else "MISMATCH"))
                if not ok:
                    rc = 1
        except ValueError as exc:
            raise ValueError(f"script line {lineno}: {exc} ({line!r})") from None
    return rc


# ---------------------------------------------------------------- selftest


def cmd_selftest(args) -> int:
    suites = selftest_suites()
    failures = 0
    for name, fn in suites:
        t0 = time.perf_counter()
        why = fn()
        dt = time.perf_counter() - t0
        if why is None:
            print(f"PASS {name} ({dt:.2f}s)")
        else:
            failures += 1
            print(f"FAIL {name} ({dt:.2f}s): {why}")
    print(f"selftest: {len(suites) - failures}/{len(suites)} suites passed")
    return 1 if failures else 0


# ---------------------------------------------------------------- main


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mbrr",
        description=(
            "Rack-aware regenerating erasure codes: any-k reconstruction "
            "with single-node repairs that move only dbar symbols across racks."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_geometry(sp):
        sp.add_argument("n", type=int, help="total nodes (nbar racks of u)")
        sp.add_argument("k", type=int, help="nodes needed to read")
        sp.add_argument("u", type=int, help="nodes per rack")
        sp.add_argument("dbar", type=int, help="helper racks per repair")
        sp.add_argument(
            "--field-m",
            type=int,
            default=None,
            help="field exponent: 8 or 16 (default: smallest that fits)",
        )

    sp = sub.add_parser("params", help="validate parameters and print the derived code")
    add_geometry(sp)
    sp.set_defaults(fn=cmd_params)

    sp = sub.add_parser("encode", help="stripe a file into n shard files")
    sp.add_argument("input", help="file to encode (must be nonempty)")
    add_geometry(sp)
    sp.add_argument(
        "--systematic",
        action="store_true",
        help="store the file bytes uncoded on the first k nodes",
    )
    sp.add_argument("--out", default=None, help="shard directory (default INPUT.shards)")
    sp.set_defaults(fn=cmd_encode)

    sp = sub.add_parser("decode", help="rebuild the file from any k shards")
    sp.add_argument("shards", nargs="+", help="shard files and/or directories")
    sp.add_argument("--out", required=True, help="output file")
    sp.set_defaults(fn=cmd_decode)

    sp = sub.add_parser("repair", help="regenerate one lost shard from survivors")
    sp.add_argument("dir", help="directory holding the surviving shards")
    sp.add_argument("e", help="rack index of the lost node")
    sp.add_argument("g", help="in-rack index of the lost node")
    sp.add_argument(
        "--helpers",
        default=None,
        help="comma-separated helper racks (default: lowest dbar others)",
    )
    sp.add_argument("--out", default=None, help="output directory (default: dir)")
    sp.set_defaults(fn=cmd_repair)

    sp = sub.add_parser("simulate", help="run a store/fail/repair/read script")
    sp.add_argument("script", help="scenario script path")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("selftest", help="run the built-in verification suites")
    sp.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
