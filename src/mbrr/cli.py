"""Command line front end: params, encode, decode, repair, simulate, selftest.

Shard file format, version 1. One file per node. All integers big-endian.

    offset  size  field
    0       4     magic "MBRR"
    4       2     format version (1)
    6       1     m (field is GF(2^m); 8 or 16 for byte framing)
    7       4     primitive polynomial of the field
    11      2     n
    13      2     k
    15      2     u
    17      2     dbar
    19      1     systematic flag (0 or 1)
    20      2     rack index e
    22      2     node-in-rack index g
    24      8     stripe_count
    32      8     payload_length in bytes
    40      8     original file length in bytes

    48      ...   payload: stripe_count * alpha symbols, ceil(m/8) bytes each

A file is padded with zero symbols to a whole number of B-symbol stripes;
the original length in the header trims the padding on decode. Shards are
written atomically (temp file + rename) and are bit-reproducible: the same
input, params and flags always produce identical files.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
import time
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .cluster import Cluster, InsufficientSurvivorsError, overhead_report
from .encode import encode, node_column
from .gf import binary_field, tables_consistent
from .layout import (
    CodeParams,
    NodeId,
    all_nodes,
    fill_message_matrix,
    make_params,
    unfill_message_matrix,
)
from .reconstruct import Decoder, ObservedColumn, take_columns
from .repair import Repairer, repair_node
# precoding_matrix is not called here: perfbench/selftest.py uses this
# binding to check that its tracer wraps a name in every module binding it.
from .systematic import (  # noqa: F401
    precoding_matrix,
    read_systematic_data,
    systematic_encode,
    systematic_layout,
    systematic_nodes,
)

__all__ = ["ShardHeader", "main"]

MAGIC = b"MBRR"
FORMAT_VERSION = 1
_HEADER = struct.Struct(">4sHBIHHHHBHHQQQ")
HEADER_SIZE = _HEADER.size  # 48
_FILE_FIELD_MS = (8, 16)


@dataclass(frozen=True)
class ShardHeader:
    m: int
    primitive_poly: int
    n: int
    k: int
    u: int
    dbar: int
    systematic: bool
    e: int
    g: int
    stripe_count: int
    payload_length: int
    original_length: int

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            self.m,
            self.primitive_poly,
            self.n,
            self.k,
            self.u,
            self.dbar,
            1 if self.systematic else 0,
            self.e,
            self.g,
            self.stripe_count,
            self.payload_length,
            self.original_length,
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "ShardHeader":
        if len(blob) < HEADER_SIZE:
            raise ValueError(f"truncated header: {len(blob)} < {HEADER_SIZE} bytes")
        magic, version, m, poly, n, k, u, dbar, syst, e, g, stripes, plen, olen = (
            _HEADER.unpack_from(blob)
        )
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a shard file")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported shard format version {version}")
        return cls(m, poly, n, k, u, dbar, bool(syst), e, g, stripes, plen, olen)

    def matches(self, other: "ShardHeader") -> bool:
        """Same code, file and framing; node identity may differ."""
        a = replace(self, e=0, g=0)
        b = replace(other, e=0, g=0)
        return a == b


def symbol_width(m: int) -> int:
    return (m + 7) // 8


def bytes_to_symbols(data: bytes, m: int) -> list:
    if m == 8:
        return list(data)
    if m == 16:
        if len(data) % 2:
            data = data + b"\x00"
        a = array("H")
        a.frombytes(data)
        if sys.byteorder == "little":
            a.byteswap()
        return a.tolist()
    raise ValueError(f"file framing supports m in {_FILE_FIELD_MS}, not m={m}")


def symbols_to_bytes(symbols: Sequence[int], m: int) -> bytes:
    if m == 8:
        return bytes(symbols)
    if m == 16:
        a = array("H", symbols)
        if sys.byteorder == "little":
            a.byteswap()
        return a.tobytes()
    raise ValueError(f"file framing supports m in {_FILE_FIELD_MS}, not m={m}")


def shard_filename(e: int, g: int) -> str:
    return f"shard_e{e}_g{g}.mbrr"


def write_shard(path: str, header: ShardHeader, symbols: Sequence[int]) -> None:
    """Write header + payload atomically; ``symbols`` is the flat per-stripe
    concatenation of the node's columns."""
    payload = symbols_to_bytes(symbols, header.m)
    if len(payload) != header.payload_length:
        raise ValueError(
            f"payload is {len(payload)} bytes, header says {header.payload_length}"
        )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header.pack())
        fh.write(payload)
    os.replace(tmp, path)


def read_shard(path: str) -> tuple:
    """Parse one shard file into (header, flat symbol list)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = ShardHeader.unpack(blob)
    payload = blob[HEADER_SIZE:]
    if len(payload) != header.payload_length:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, "
            f"header says {header.payload_length}"
        )
    width = symbol_width(header.m)
    expected = header.stripe_count * header.dbar * width  # alpha = dbar
    if header.payload_length != expected:
        raise ValueError(
            f"{path}: payload length {header.payload_length} does not match "
            f"{header.stripe_count} stripes of {header.dbar} symbols"
        )
    return header, bytes_to_symbols(payload, header.m)


def file_params(n: int, k: int, u: int, dbar: int, m: int | None = None) -> CodeParams:
    """Params over a byte-framable field: GF(2^8) or GF(2^16).

    Default: the smallest of the two that admits the geometry (q > n and
    u | q - 1). Other fields work in-library but have no shard framing.
    """
    if m is not None:
        if m not in _FILE_FIELD_MS:
            raise ValueError(
                f"shard files support m in {_FILE_FIELD_MS}, not m={m}"
            )
        return make_params(n, k, u, dbar, field=binary_field(m))
    errs = []
    for mm in _FILE_FIELD_MS:
        try:
            return make_params(n, k, u, dbar, field=binary_field(mm))
        except ValueError as exc:
            errs.append(f"m={mm}: {exc}")
    raise ValueError(
        "no byte-framable field admits these parameters ("
        + "; ".join(errs)
        + "); u must divide 255 (m=8) or 65535 (m=16)"
    )


def encode_file(
    data: bytes,
    p: CodeParams,
    systematic: bool = False,
) -> tuple:
    """Encode a byte string; returns (headers, per-node flat symbol lists)."""
    if not data:
        raise ValueError("refusing to encode an empty file")
    m = p.field.m if hasattr(p.field, "m") else None
    if m not in _FILE_FIELD_MS:
        raise ValueError(f"shard files support m in {_FILE_FIELD_MS}; got {p.field!r}")
    symbols = bytes_to_symbols(data, m)
    pad = (-len(symbols)) % p.B
    symbols.extend([0] * pad)
    stripes = len(symbols) // p.B
    width = symbol_width(m)
    shard_syms = [[] for _ in range(p.n)]
    for s in range(stripes):
        vec = symbols[s * p.B : (s + 1) * p.B]
        if systematic:
            rows = systematic_encode(p, vec).rows
        else:
            rows = encode(fill_message_matrix(p, vec)).rows
        for col, syms in zip(zip(*rows), shard_syms):
            syms.extend(col)
    headers = []
    for node in all_nodes(p):
        headers.append(
            ShardHeader(
                m=m,
                primitive_poly=p.field.primitive_poly,
                n=p.n,
                k=p.k,
                u=p.u,
                dbar=p.dbar,
                systematic=systematic,
                e=node.e,
                g=node.g,
                stripe_count=stripes,
                payload_length=stripes * p.alpha * width,
                original_length=len(data),
            )
        )
    return headers, shard_syms


def _params_from_header(h: ShardHeader) -> CodeParams:
    f = binary_field(h.m)
    if f.primitive_poly != h.primitive_poly:
        raise ValueError(
            f"shard was built over polynomial {h.primitive_poly:#x}, "
            f"this build uses {f.primitive_poly:#x}"
        )
    return make_params(h.n, h.k, h.u, h.dbar, field=f)


def _load_shards(paths: Sequence[str]) -> dict:
    """Read shard files into {NodeId: (header, symbols)}; headers must agree."""
    loaded = {}
    first = None
    for path in paths:
        header, symbols = read_shard(path)
        node = NodeId(header.e, header.g)
        if first is None:
            first = header
        elif not header.matches(first):
            raise ValueError(f"{path}: header disagrees with the first shard's")
        if node in loaded:
            raise ValueError(f"duplicate shard for node {tuple(node)}")
        loaded[node] = (header, symbols)
    if not loaded:
        raise ValueError("no shard files given")
    return loaded


def decode_shards(loaded: Mapping[NodeId, tuple]) -> bytes:
    """Original file bytes from any k shards (fewer is an error)."""
    first = next(iter(loaded.values()))[0]
    p = _params_from_header(first)
    if len(loaded) < p.k:
        raise ValueError(f"got {len(loaded)} shards, need at least k={p.k}")
    stripes = first.stripe_count
    cols = {node: syms for node, (_, syms) in loaded.items()}
    a = p.alpha
    out = []
    front = systematic_nodes(p)
    if first.systematic and all(node in cols for node in front):
        lay = systematic_layout(p)
        for s in range(stripes):
            base = s * a
            for i, node in lay.data_positions:
                out.append(cols[node][base + i])
    else:
        ids = sorted(cols)[: p.k]
        dec = Decoder(p, ids)
        for s in range(stripes):
            base = s * a
            obs = [
                ObservedColumn(n, cols[n][base : base + a]) for n in ids
            ]
            M = dec.reconstruct(obs)
            if first.systematic:
                out.extend(
                    read_systematic_data(
                        p, {n: node_column(M, n) for n in front}
                    )
                )
            else:
                out.extend(unfill_message_matrix(M))
    return symbols_to_bytes(out, first.m)[: first.original_length]


def _shard_paths(args_paths: Sequence[str]) -> list:
    paths = []
    for item in args_paths:
        if os.path.isdir(item):
            names = sorted(
                name for name in os.listdir(item) if name.endswith(".mbrr")
            )
            if not names:
                raise ValueError(f"{item}: no .mbrr shard files")
            paths.extend(os.path.join(item, name) for name in names)
        else:
            paths.append(item)
    return paths


def _parse_helpers(text: str | None) -> list | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(
            f"--helpers expects comma-separated rack indices: {text!r}"
        ) from None


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
    with open(args.input, "rb") as fh:
        data = fh.read()
    headers, shard_syms = encode_file(data, p, systematic=args.systematic)
    out_dir = args.out if args.out else args.input + ".shards"
    os.makedirs(out_dir, exist_ok=True)
    for header, syms in zip(headers, shard_syms):
        write_shard(
            os.path.join(out_dir, shard_filename(header.e, header.g)),
            header,
            syms,
        )
    print(
        f"encoded {len(data)} bytes into {p.n} shards of "
        f"{headers[0].stripe_count} stripes -> {out_dir}"
    )
    return 0


def cmd_decode(args) -> int:
    loaded = _load_shards(_shard_paths(args.shards))
    data = decode_shards(loaded)
    tmp = args.out + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, args.out)
    print(f"decoded {len(data)} bytes from {len(loaded)} shards -> {args.out}")
    return 0


def cmd_repair(args) -> int:
    failed = NodeId(args.e, args.g)
    paths = [
        path
        for path in _shard_paths([args.dir])
        if os.path.basename(path) != shard_filename(failed.e, failed.g)
    ]
    loaded = _load_shards(paths)
    if failed in loaded:
        raise ValueError(f"node {tuple(failed)} is present; nothing to repair")
    first = next(iter(loaded.values()))[0]
    p = _params_from_header(first)
    helpers = _parse_helpers(args.helpers)
    rep = Repairer(p, failed, helpers)
    a = p.alpha
    stripes = first.stripe_count
    regenerated = []
    cross = intra = 0
    per_helper: dict = {}
    for s in range(stripes):
        base = s * a
        columns = {
            node: syms[base : base + a] for node, (_, syms) in loaded.items()
        }
        column, ledger = rep.repair(columns)
        regenerated.extend(column)
        cross += ledger.cross_rack_symbols
        intra += ledger.intra_rack_symbols
        for e, c in ledger.per_helper.items():
            per_helper[e] = per_helper.get(e, 0) + c
    header = replace(first, e=failed.e, g=failed.g)
    out_dir = args.out if args.out else args.dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, shard_filename(failed.e, failed.g))
    write_shard(path, header, regenerated)
    print(f"repaired node ({failed.e}, {failed.g}) -> {path}")
    print(f"stripes {stripes}")
    print(f"cross_rack_symbols {cross} ({p.dbar * p.beta} per stripe)")
    print(f"intra_rack_symbols {intra}")
    for e in sorted(per_helper):
        print(f"  helper rack {e}: {per_helper[e]} symbols")
    return 0


# ---------------------------------------------------------------- simulate


def _sim_error(lineno: int, line: str, why: str) -> ValueError:
    return ValueError(f"script line {lineno}: {why} ({line!r})")


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

    Model violations during fail/repair/read are reported as lines, not
    crashes, so scripts can demonstrate failure cases.
    """
    import random

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
        parts = line.split()
        op, rest = parts[0], parts[1:]
        if op == "params":
            if not 4 <= len(rest) <= 5:
                raise _sim_error(lineno, line, "params takes n k u dbar [m]")
            vals = [int(x) for x in rest]
            p = file_params(*vals[:4], vals[4] if len(vals) == 5 else None)
            cluster = None
            print(
                f"params n={p.n} k={p.k} u={p.u} dbar={p.dbar} "
                f"alpha={p.alpha} B={p.B} field={p.field!r}"
            )
            continue
        if op == "seed":
            rng = random.Random(int(rest[0]))
            print(f"seed {int(rest[0])}")
            continue
        if op == "systematic":
            if rest not in (["on"], ["off"]):
                raise _sim_error(lineno, line, "systematic takes on|off")
            systematic = rest == ["on"]
            print(f"systematic {'on' if systematic else 'off'}")
            continue
        if p is None:
            raise _sim_error(lineno, line, "params must come first")
        if op == "store":
            count = int(rest[0])
            stored = [
                [rng.randrange(p.field.q) for _ in range(p.B)]
                for _ in range(count)
            ]
            if systematic:
                mats = [systematic_encode(p, vec) for vec in stored]
            else:
                mats = [encode(fill_message_matrix(p, vec)) for vec in stored]
            cluster = Cluster(p, systematic=systematic)
            cluster.store_stripes(mats)
            print(f"store stripes={count} symbols={count * p.B}")
            continue
        if cluster is None:
            raise _sim_error(lineno, line, "store must precede fail/repair/read")
        if op == "fail":
            node = NodeId(int(rest[0]), int(rest[1]))
            try:
                cluster.fail_node(node)
                print(f"fail node=({node.e},{node.g})")
            except (ValueError, RuntimeError) as exc:
                print(f"fail node=({node.e},{node.g}) error: {exc}")
            continue
        if op == "repair":
            node = NodeId(int(rest[0]), int(rest[1]))
            helpers = _parse_helpers(rest[2]) if len(rest) > 2 else None
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
            continue
        if op == "read":
            try:
                got = cluster.read_data()
                ok = got == stored
                print(
                    f"read stripes={len(got)} "
                    + ("verified ok" if ok else "MISMATCH")
                )
                if not ok:
                    rc = 1
            except InsufficientSurvivorsError as exc:
                print(f"read error: {exc}")
            continue
        raise _sim_error(lineno, line, f"unknown statement {op!r}")
    return rc


# ---------------------------------------------------------------- selftest


def _selftest_suites():
    from itertools import combinations
    import random

    def suite_field_tables():
        for m in range(1, 17):
            f = binary_field(m)
            if not tables_consistent(f.exp, f.log, f.q):
                return f"GF(2^{m}) tables inconsistent"
        f = binary_field(8)
        exp = list(f.exp)
        exp[37] ^= 1
        if tables_consistent(exp, f.log, f.q):
            return "corrupted exp table not detected"
        log = list(f.log)
        log[200] = (log[200] + 1) % (f.q - 1)
        if tables_consistent(f.exp, log, f.q):
            return "corrupted log table not detected"
        return None

    def suite_params():
        p = make_params(12, 7, 3, 3)
        if (p.alpha, p.B) != (3, 20):
            return f"(12,7,3,3) gave alpha={p.alpha} B={p.B}, want 3, 20"
        rep = overhead_report(make_params(50, 44, 5, 9, field=binary_field(8)))
        if rep.storage_overhead != Fraction(450, 368):
            return f"(50,44,5,9) overhead {rep.storage_overhead}, want 450/368"
        return None

    def suite_reconstruction():
        p = make_params(12, 7, 3, 3)
        rng = random.Random(20260816)
        stripes = []
        for _ in range(3):
            vec = [rng.randrange(p.field.q) for _ in range(p.B)]
            stripes.append((vec, encode(fill_message_matrix(p, vec))))
        nodes = list(all_nodes(p))
        checked = 0
        for subset in combinations(range(p.n), p.k):
            ids = [nodes[i] for i in subset]
            dec = Decoder(p, ids)
            for vec, C in stripes:
                got = unfill_message_matrix(dec.reconstruct(take_columns(C, ids)))
                if got != vec:
                    return f"subset {subset} reconstructed wrong data"
                checked += 1
        if checked != 792 * 3:
            return f"ran {checked} reconstructions, expected {792 * 3}"
        return None

    def suite_repair():
        p = make_params(12, 7, 3, 3)
        rng = random.Random(613)
        for _ in range(3):
            vec = [rng.randrange(p.field.q) for _ in range(p.B)]
            C = encode(fill_message_matrix(p, vec))
            for failed in all_nodes(p):
                column, ledger = repair_node(p, C, failed)
                if column != C.column(failed):
                    return f"repair of {tuple(failed)} not bit-exact"
                if ledger.cross_rack_symbols != p.dbar * p.beta:
                    return (
                        f"repair of {tuple(failed)} moved "
                        f"{ledger.cross_rack_symbols} cross-rack symbols, "
                        f"want {p.dbar * p.beta}"
                    )
        return None

    def suite_systematic():
        p = make_params(12, 7, 3, 3)
        rng = random.Random(99)
        lay = systematic_layout(p)
        for _ in range(3):
            vec = [rng.randrange(p.field.q) for _ in range(p.B)]
            C = systematic_encode(p, vec)
            placed = [C.column(node)[i] for i, node in lay.data_positions]
            if placed != vec:
                return "systematic placement does not hold the data uncoded"
            got = read_systematic_data(p, C.columns(systematic_nodes(p)))
            if got != vec:
                return "systematic read-back mismatch"
        return None

    return [
        ("field tables", suite_field_tables),
        ("parameter derivation", suite_params),
        ("reconstruction, all 792 subsets x 3 stripes", suite_reconstruction),
        ("repair, all 12 nodes x 3 stripes", suite_repair),
        ("systematic placement", suite_systematic),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    suites = _selftest_suites()
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
    sp.add_argument("e", type=int, help="rack index of the lost node")
    sp.add_argument("g", type=int, help="in-rack index of the lost node")
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
