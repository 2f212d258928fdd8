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
the original length in the header trims the padding on decode, and must
agree with stripe_count. Every file the commands write, shard or decoded
output, goes through one atomic writer (temp file + rename), and each
command checks where it writes (``_check_out``) before it opens a shard or
runs a map. Shards are bit-reproducible: the same input, params and flags
always produce identical files.

Encode, decode and repair never loop over stripes. They work on slabs (see
``slab``): slab t of the file holds symbol t of every stripe, and row i of
a shard (symbols i, i + alpha, ... of its payload; ``payload[i::alpha]``
for one-byte symbols) holds that node's symbol i of every stripe. Each
operation is a GF(2^m)-linear map built once from the structured code and
applied to whole slabs:

    encode    B file slabs -> n*alpha shard rows, one map of the
              cells' generator rows. A systematic encode keeps each data
              slab as its cell's row and runs one (n*alpha - B) x B map,
              the encoding map composed with the systematic precoding,
              for the other cells
    decode    k*alpha shard rows -> the two-pass decoder with slabs as
              symbols -> B slot slabs; the M1 symmetry checks compare
              slabs. A systematic file is read from the data rows of its
              k systematic shards, encoding those that are missing
    repair    two stages, as the protocol runs them: each of the dbar helper
              racks maps its own u*alpha rows to the one slab it sends
              across racks; the host rack maps those dbar slabs and the
              (u-1)*alpha rows of its u-1 survivors to the alpha rows of the
              lost node

``decode`` opens each given shard once, checks its size and header against
the first shard's, builds the params once, and decodes the payloads of
only the k shards it reads (see ``systematic.read_nodes``), read from
those handles. ``repair`` lists the shard directory once, opens only the
shards its two stages read, each once, and its cross-rack ledger counts
the symbols in the helper slabs it produced. Decode, repair and
``decode_shards`` admit every shard into their set through one function,
``_admit``. ``simulate`` stores through ``Cluster.store_data``, and an
error in any of its statements names the script line. Every map runs on
the params' kernel (``CodeParams.kernel``).

``selftest`` checks the field tables, then runs ``check_code`` on every
code that ``admissible_geometries(SELFTEST_MAX_N)`` yields.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import struct
import sys
import time
from contextlib import ExitStack, suppress
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .cluster import Cluster, InsufficientSurvivorsError, overhead_report
from .encode import encode_slabs
from .gf import binary_field, tables_consistent
from .layout import (
    CodeParams,
    NodeId,
    all_nodes,
    make_params,
    unfill_message_matrix,
)
from .reconstruct import Decoder, oracle_reconstruct
from .repair import Repairer
from .slab import SlabKernel
from .systematic import (
    precoding_matrix,
    read_nodes,
    read_slabs,
    systematic_encode_slabs,
    systematic_message_matrix,
    systematic_nodes,
    systematic_slabs,
)

__all__ = ["ShardHeader", "admissible_geometries", "check_code", "main"]

MAGIC = b"MBRR"
FORMAT_VERSION = 1
_HEADER = struct.Struct(">4sHBIHHHHBHHQQQ")
HEADER_SIZE = _HEADER.size  # 48

# The m of the fields GF(2^m) that shard files frame.
BYTE_FIELD_MS = (8, 16)


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
        # The fields are in header order; the systematic flag packs as 0 or 1.
        return _HEADER.pack(MAGIC, FORMAT_VERSION, *vars(self).values())

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
        if syst not in (0, 1):
            raise ValueError(f"systematic flag {syst} is neither 0 nor 1")
        return cls(m, poly, n, k, u, dbar, syst == 1, e, g, stripes, plen, olen)

    def matches(self, other: "ShardHeader") -> bool:
        """Same code, file and framing; node identity may differ."""
        return vars(self) | {"e": 0, "g": 0} == vars(other) | {"e": 0, "g": 0}


def _check_framed(field) -> None:
    """Shard format v1 frames only GF(2^8) and GF(2^16), one or two bytes a symbol."""
    if field.characteristic != 2 or field.m not in BYTE_FIELD_MS:
        raise ValueError(f"shard files need GF(2^8) or GF(2^16), not {field!r}")


def file_kernel(field) -> SlabKernel:
    """The slab kernel of the symbol-list shims, which have no params."""
    _check_framed(field)
    return SlabKernel(field)


def bytes_to_symbols(data: bytes, m: int) -> list:
    kernel = file_kernel(binary_field(m))
    return kernel.unpack(data + bytes(-len(data) % kernel.width))


def symbols_to_bytes(symbols: Sequence[int], m: int) -> bytes:
    return file_kernel(binary_field(m)).pack(symbols)


def shard_filename(e: int, g: int) -> str:
    return f"shard_e{e}_g{g}.mbrr"


def _write_atomic(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` to a temp file, then rename it to ``path``, so that
    ``path`` never holds part of them; the temp file goes if either fails."""
    tmp = path + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_payload(path: str, header: ShardHeader, payload: bytes) -> None:
    """Write header + payload (file byte order) atomically."""
    if len(payload) != header.payload_length:
        raise ValueError(
            f"payload is {len(payload)} bytes, header says {header.payload_length}"
        )
    _write_atomic(path, header.pack(), payload)


def open_shard(path: str) -> tuple:
    """Open one shard file and check its header against the file's size.

    Returns (header, binary file handle positioned at the payload); the
    caller closes the handle.
    """
    fh = open(path, "rb")
    try:
        header = ShardHeader.unpack(fh.read(HEADER_SIZE))
        size = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if size != header.payload_length:
            raise ValueError(
                f"{path}: payload is {size} bytes, "
                f"header says {header.payload_length}"
            )
    except BaseException:
        fh.close()
        raise
    return header, fh


# write_shard and read_shard are the symbol-list forms of write_payload and
# open_shard, for library callers; the commands move payload bytes only.
# perfbench/layers.py still traces these two names (see ROADMAP item 1).


def write_shard(path: str, header: ShardHeader, symbols: Sequence[int]) -> None:
    """Write header + payload atomically; ``symbols`` is the flat per-stripe
    concatenation of the node's columns."""
    write_payload(path, header, symbols_to_bytes(symbols, header.m))


def read_shard(path: str) -> tuple:
    """Parse one shard file into (header, flat symbol list)."""
    header, fh = open_shard(path)
    with fh:
        return header, bytes_to_symbols(fh.read(), header.m)


def file_params(n: int, k: int, u: int, dbar: int, m: int | None = None) -> CodeParams:
    """Params over a byte-framable field: GF(2^8) or GF(2^16).

    By default m is the first of ``BYTE_FIELD_MS`` whose field meets the
    paper's rule, q > n and u | q - 1; a rack size u < 2 is left for
    ``make_params`` to refuse. Geometry errors are ``make_params``'s own.
    Other fields work in-library but have no shard framing.
    """
    if m is None:
        fits = [mm for mm in BYTE_FIELD_MS if 2**mm > n and (u < 2 or (2**mm - 1) % u == 0)]
        if not fits:
            raise ValueError(
                f"no byte-framable field admits n={n}, u={u}: "
                "u must divide 255 or 65535 and n < q"
            )
        m = fits[0]
    elif m not in BYTE_FIELD_MS:
        raise ValueError(f"shard files support m in {BYTE_FIELD_MS}, not m={m}")
    return make_params(n, k, u, dbar, field=binary_field(m))


def encode_file(
    data: bytes,
    p: CodeParams,
    systematic: bool = False,
) -> tuple:
    """Encode a byte string; returns (headers, per-node payloads).

    Each payload is the node's shard payload in file byte order: its alpha
    symbols of stripe 0, then of stripe 1, and so on.
    """
    if not data:
        raise ValueError("refusing to encode an empty file")
    _check_framed(p.field)
    kernel = p.kernel
    width = kernel.width
    stripes = -(-len(data) // (width * p.B))
    slabs = kernel.split(data + bytes(stripes * p.B * width - len(data)), p.B)
    if systematic:
        # This precoding_matrix call serves only the benchmark self-test,
        # which requires the precoding build on its systematic workload and
        # a binding here (ROADMAP item 1); the map is composed from the slot
        # slabs it builds, not from a direct systematic_slabs run over the data.
        precoding_matrix(p)
        columns = systematic_encode_slabs(p, slabs)
    else:
        columns = encode_slabs(p, slabs)
    headers = [
        ShardHeader(
            m=p.field.m,
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
        for node in columns
    ]
    return headers, [kernel.join(col) for col in columns.values()]


def _params_from_header(h: ShardHeader) -> CodeParams:
    p = file_params(h.n, h.k, h.u, h.dbar, h.m)
    if p.field.primitive_poly != h.primitive_poly:
        raise ValueError(
            f"shard was built over polynomial {h.primitive_poly:#x}, "
            f"this build uses {p.field.primitive_poly:#x}"
        )
    width = p.kernel.width
    if h.original_length <= 0 or h.stripe_count != -(-h.original_length // (width * p.B)):
        raise ValueError(
            f"header claims an original length of {h.original_length} bytes "
            f"in {h.stripe_count} stripes of {p.B} symbols; the two disagree"
        )
    if h.payload_length != h.stripe_count * p.alpha * width:
        raise ValueError(
            f"payload length {h.payload_length} does not match "
            f"{h.stripe_count} stripes of {p.alpha} symbols"
        )
    return p


def _admit(found: dict, header: ShardHeader, body, where: str) -> None:
    """Add (header, body), where body is the shard's payload or an open
    handle on it, to the shard set ``found`` under the header's node, if
    the header matches the first shard's and names a node no other shard
    holds; ``where`` names the shard in the error."""
    node = NodeId(header.e, header.g)
    if found and not header.matches(next(iter(found.values()))[0]):
        raise ValueError(f"{where}: header disagrees with the first shard's")
    if node in found:
        raise ValueError(f"duplicate shard for node {tuple(node)}")
    found[node] = (header, body)


def _open_shards(paths: Iterable[str], stack: ExitStack, found: dict | None = None) -> dict:
    """{NodeId: (header, handle)} for shard files, each opened once through
    ``open_shard``, closed by ``stack`` and admitted (``_admit``) into
    ``found``, which the call extends, when given."""
    found = {} if found is None else found
    for path in paths:
        header, fh = open_shard(path)
        stack.enter_context(fh)
        _admit(found, header, fh, path)
    return found


def decode_shards(loaded: Mapping[NodeId, tuple]) -> bytes:
    """Original file bytes from any k shards (fewer is an error).

    ``loaded`` maps nodes to (header, payload bytes in file byte order)
    pairs; the first header describes the file. Every header must name its
    node and be admitted (``_admit``), and every payload must have the
    length it gives; only the payloads of the nodes ``read_nodes`` names
    are decoded.
    """
    if not loaded:
        raise ValueError("no shards given")
    first = next(iter(loaded.values()))[0]
    p = _params_from_header(first)
    admitted = {}
    for node, (header, payload) in loaded.items():
        if (header.e, header.g) != node:
            raise ValueError(f"node {tuple(node)}: header is for node ({header.e}, {header.g})")
        _admit(admitted, header, payload, f"node {tuple(node)}")
        if len(payload) != first.payload_length:
            raise ValueError(
                f"node {tuple(node)}: payload is {len(payload)} bytes, "
                f"header says {first.payload_length}"
            )
    payloads = {node: admitted[node][1] for node in read_nodes(p, admitted)}
    return _decode_payloads(p, first, payloads)


def _decode_payloads(p: CodeParams, first: ShardHeader, payloads: Mapping) -> bytes:
    """The file bytes from the payloads of the k nodes a read uses; their
    headers were checked against ``first``, which built ``p``."""
    columns = {node: p.kernel.split(payload, p.alpha) for node, payload in payloads.items()}
    return p.kernel.join(read_slabs(p, columns, first.systematic))[: first.original_length]


def _shard_paths(directory: str) -> list:
    """The paths of the .mbrr files in ``directory``, sorted by name. A
    missing directory, or one without such a file, holds no shards."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    paths = [os.path.join(directory, name) for name in sorted(names) if name.endswith(".mbrr")]
    if not paths:
        raise ValueError(f"{directory}: no .mbrr shard files")
    return paths


def _check_out(path: str, directory: bool) -> str:
    """``path``, unless a command could not write its output there: an
    existing path of the wrong kind, or a file's missing directory (then
    ValueError). ``directory`` says whether the command writes a directory."""
    if os.path.exists(path) and os.path.isdir(path) != directory:
        kind, found = ("directory", "file") if directory else ("file", "directory")
        raise ValueError(f"output {kind} {path} is an existing {found}")
    if not directory and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"output file {path}: its directory does not exist")
    return path


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
    os.makedirs(out_dir, exist_ok=True)
    for header, payload in zip(headers, payloads):
        write_payload(
            os.path.join(out_dir, shard_filename(header.e, header.g)),
            header,
            payload,
        )
    print(
        f"encoded {len(data)} bytes into {p.n} shards of "
        f"{headers[0].stripe_count} stripes -> {out_dir}"
    )
    return 0


def cmd_decode(args) -> int:
    # _open_shards compares every shard's header with the first one's and
    # checks its size, so the payloads read from its handles need no check.
    _check_out(args.out, False)
    with ExitStack() as stack:
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
        found = _open_shards(paths, stack)
        first = next(iter(found.values()))[0]
        p = _params_from_header(first)
        payloads = {node: found[node][1].read() for node in read_nodes(p, found)}
    data = _decode_payloads(p, first, payloads)
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
        columns = {node: p.kernel.split(fh.read(), p.alpha) for node, (_, fh) in found.items()}
    column, _, ledger = rep.repair_slabs(columns)
    header = replace(first, e=failed.e, g=failed.g)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, shard_filename(failed.e, failed.g))
    write_payload(path, header, p.kernel.join(column))
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


SELFTEST_MAX_N = 16
CHECK_LANES = 8


def admissible_geometries(max_n: int) -> Iterator[tuple]:
    """Every (n, k, u, dbar) with n <= max_n that ``make_params`` accepts:
    u >= 2 divides n, u <= k < n and k // u <= dbar <= n // u - 1."""
    for n in range(2, max_n + 1):
        for u in range(2, n + 1):
            if n % u == 0:
                for k in range(u, n):
                    for dbar in range(k // u, n // u):
                        yield n, k, u, dbar


def check_code(p: CodeParams, rng: random.Random) -> str | None:
    """None if the code ``p`` keeps the paper's claims on CHECK_LANES random
    stripes, else the first claim it breaks: the closed forms of alpha, beta
    and B; decodes from the k lowest, the k highest and k random ids; every
    node's repair from dbar*beta cross-rack symbols a stripe; the systematic
    encode map and read; and stripe 0 against the elimination oracles."""
    kbar = p.k // p.u
    want = (p.dbar, 1, p.k * p.dbar - kbar * (kbar - 1) // 2)
    if (p.alpha, p.beta, p.B) != want:
        return f"(alpha, beta, B) = {(p.alpha, p.beta, p.B)}, want {want}"
    kernel, cross = p.kernel, p.dbar * p.beta * CHECK_LANES
    stripes = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(CHECK_LANES)]
    data = [kernel.pack(symbols) for symbols in zip(*stripes)]
    columns = encode_slabs(p, data)
    nodes = list(columns)
    for ids in (nodes[: p.k], nodes[-p.k :], rng.sample(nodes, p.k)):
        if Decoder(p, ids).decode_slabs(columns) != data:
            return f"decode from nodes {sorted(map(tuple, ids))} gave wrong data"
    # Stripe 0 (lane 0 of each slab) of the random subset, by elimination.
    observed = {node: kernel.unpack(b"".join(columns[node]))[::CHECK_LANES] for node in ids}
    if unfill_message_matrix(oracle_reconstruct(p, observed)) != stripes[0]:
        return f"elimination from nodes {sorted(map(tuple, ids))} gave wrong data"
    for failed in nodes:
        column, _, ledger = Repairer(p, failed).repair_slabs(columns)
        if column != columns[failed]:
            return f"repair of node {tuple(failed)} not bit-exact"
        if ledger.cross_rack_symbols != cross:
            return f"repair of node {tuple(failed)}: {ledger.cross_rack_symbols} cross-rack symbols"
    slots = systematic_slabs(p, data)
    oracle = unfill_message_matrix(systematic_message_matrix(p, stripes[0]))
    if kernel.unpack(b"".join(slots))[::CHECK_LANES] != oracle:
        return "systematic slots disagree with the elimination oracle"
    stored = encode_slabs(p, slots)
    if systematic_encode_slabs(p, data) != stored:
        return "systematic encode map disagrees with encoding the systematic slots"
    for ids in (systematic_nodes(p), nodes[-p.k :]):
        if read_slabs(p, {node: stored[node] for node in ids}, True) != data:
            return f"systematic read from nodes {sorted(map(tuple, ids))} gave wrong data"
    return None


def _suite_field_tables() -> str | None:
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


def _suite_codes() -> str | None:
    """The first code with n <= SELFTEST_MAX_N that ``check_code`` fails, and why."""
    rng = random.Random(SELFTEST_MAX_N)
    for geometry in admissible_geometries(SELFTEST_MAX_N):
        p = make_params(*geometry)
        try:
            why = check_code(p, rng)
        except Exception as exc:
            why = f"{type(exc).__name__}: {exc}"
        if why is not None:
            return f"{p}: {why}"
    return None


def cmd_selftest(args) -> int:
    count = sum(1 for _ in admissible_geometries(SELFTEST_MAX_N))
    suites = [
        ("field tables", _suite_field_tables),
        (f"every admissible code with n <= {SELFTEST_MAX_N} ({count} geometries)", _suite_codes),
    ]
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
