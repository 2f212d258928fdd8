"""Shard format, version 1, and the file codec. One file per node. All
integers big-endian.

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

The payload holds the node's alpha slabs (see ``slab``) interleaved by
stripe: its alpha symbols of stripe 0, then of stripe 1, and so on.
``split_payload`` and ``join_payload`` are the one place that knows this
layout, ``node_shards`` the one place that makes a node's header.

A file is padded with zero symbols to a whole number of B-symbol stripes;
the original length in the header trims the padding on decode, and must
agree with stripe_count. Every file the commands write, shard or decoded
output, goes through one atomic writer (temp file + rename), and each
command checks where it writes (``_check_out``) before it opens a shard or
runs a map. Shards are bit-reproducible: the same input, params and flags
always produce identical files. Every shard set, read from files or given
to ``decode_shards``, is admitted shard by shard through ``_admit``.
"""

from __future__ import annotations

import os
import struct
from contextlib import ExitStack, suppress
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .encode import encode_slabs
from .gf import binary_field, binary_field_for
from .layout import CodeParams, NodeId, make_params
from .slab import SlabKernel
from .systematic import precoding_matrix, read_nodes, read_slabs, systematic_encode_slabs

__all__ = [
    "HEADER_SIZE", "ShardHeader", "bytes_to_symbols", "decode_shards", "encode_file",
    "file_params", "join_payload", "node_shards", "open_shard", "read_shard", "shard_filename",
    "split_payload", "symbols_to_bytes", "write_payload", "write_shard", "write_shards",
]

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


def split_payload(p: CodeParams, payload: bytes) -> list:
    """A node's alpha slabs from its shard payload."""
    return p.kernel.split(payload, p.alpha)


def join_payload(p: CodeParams, column: Sequence[bytes]) -> bytes:
    """A node's shard payload from its alpha slabs; ``split_payload`` undoes it."""
    return p.kernel.join(column)


def node_shards(p: CodeParams, header: ShardHeader, columns: Mapping) -> tuple:
    """(headers, payloads) of the nodes that ``columns`` maps to their alpha
    slabs: ``header`` naming each node, and each node's joined slabs."""
    headers = [replace(header, e=node.e, g=node.g) for node in columns]
    return headers, [join_payload(p, column) for column in columns.values()]


def shard_filename(e: int, g: int) -> str:
    return f"shard_e{e}_g{g}.mbrr"


def _write_atomic(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` to a temp file, then rename it to ``path``, so that
    ``path`` never holds part of them; the temp file goes if either fails.
    The temp file is created exclusively: a file already there is kept."""
    tmp = path + ".tmp"
    fh = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _check_size(size: int, header: ShardHeader, where: str = "") -> None:
    """ValueError, prefixed by ``where``, unless the header gives ``size`` bytes of payload."""
    if size != header.payload_length:
        raise ValueError(f"{where}payload is {size} bytes, header says {header.payload_length}")


def write_payload(path: str, header: ShardHeader, payload: bytes) -> None:
    """Write header + payload (file byte order) atomically."""
    _check_size(len(payload), header)
    _write_atomic(path, header.pack(), payload)


def write_shards(directory: str, headers: Sequence[ShardHeader], payloads: Sequence[bytes]) -> list:
    """Write each payload under its header to its node's shard file in
    ``directory``, made if missing; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, shard_filename(h.e, h.g)) for h in headers]
    for path, header, payload in zip(paths, headers, payloads):
        write_payload(path, header, payload)
    return paths


def open_shard(path: str) -> tuple:
    """Open one shard file and check its header against the file's size.

    Returns (header, binary file handle positioned at the payload); the
    caller closes the handle. A header or size error names ``path``.
    """
    fh = open(path, "rb")
    try:
        header = ShardHeader.unpack(fh.read(HEADER_SIZE))
        _check_size(os.fstat(fh.fileno()).st_size - HEADER_SIZE, header)
    except BaseException as exc:
        fh.close()
        if isinstance(exc, ValueError):
            raise ValueError(f"{path}: {exc}") from None
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

    By default the field is ``gf.binary_field_for(n, u, BYTE_FIELD_MS)``,
    the first that meets the paper's rule, q > n and u | q - 1; a rack size
    u < 2 is left for ``make_params`` to refuse, as are geometry errors.
    Other fields work in-library but have no shard framing.
    """
    if m is not None and m not in BYTE_FIELD_MS:
        raise ValueError(f"shard files support m in {BYTE_FIELD_MS}, not m={m}")
    field = binary_field_for(n, u, BYTE_FIELD_MS) if m is None else binary_field(m)
    if field is None:
        raise ValueError(f"no byte-framable field admits n={n}, u={u}: "
                         "u must divide 255 or 65535 and n < q")
    return make_params(n, k, u, dbar, field=field)


def encode_file(data: bytes, p: CodeParams, systematic: bool = False) -> tuple:
    """Encode a byte string; returns (headers, per-node payloads), one pair
    a node, each payload laid out by ``join_payload``."""
    if not data:
        raise ValueError("refusing to encode an empty file")
    _check_framed(p.field)
    kernel = p.kernel
    width = kernel.width
    stripes = -(-len(data) // (width * p.B))
    slabs = kernel.split(data + bytes(stripes * p.B * width - len(data)), p.B)
    if systematic:
        # This precoding_matrix call serves only the benchmark self-test,
        # which requires the precoding build on its systematic workload
        # (ROADMAP item 1); the map is composed from the slot slabs it
        # builds, not from a direct systematic_slabs run over the data.
        precoding_matrix(p)
        columns = systematic_encode_slabs(p, slabs)
    else:
        columns = encode_slabs(p, slabs)
    header = ShardHeader(
        p.field.m, p.field.primitive_poly, p.n, p.k, p.u, p.dbar, systematic,
        e=0, g=0, stripe_count=stripes, payload_length=stripes * p.alpha * width,
        original_length=len(data),
    )
    return node_shards(p, header, columns)


def _params_from_header(h: ShardHeader) -> CodeParams:
    p = file_params(h.n, h.k, h.u, h.dbar, h.m)
    if p.field.primitive_poly != h.primitive_poly:
        raise ValueError(f"shard was built over polynomial {h.primitive_poly:#x}, "
                         f"this build uses {p.field.primitive_poly:#x}")
    width = p.kernel.width
    if h.original_length <= 0 or h.stripe_count != -(-h.original_length // (width * p.B)):
        raise ValueError(f"header claims an original length of {h.original_length} bytes "
                         f"in {h.stripe_count} stripes of {p.B} symbols; the two disagree")
    if h.payload_length != h.stripe_count * p.alpha * width:
        raise ValueError(f"payload length {h.payload_length} does not match "
                         f"{h.stripe_count} stripes of {p.alpha} symbols")
    return p


def _admit(found: dict, header: ShardHeader, body, where: str) -> None:
    """Add (header, body, where), where body is the shard's payload or an
    open handle on it, to the shard set ``found`` under the header's node,
    if the header matches the first shard's and names a node on its own
    rack grid that no other shard holds; ``where`` names the shard in the
    error, with the shard it collides with for a mismatch or a duplicate."""
    node = NodeId(header.e, header.g)
    first = next(iter(found.values()), None)
    if first and not header.matches(first[0]):
        raise ValueError(f"{where}: header disagrees with the first shard's, {first[2]}")
    # Node (e, g) is column e * u + g of n; no division, as u may be 0.
    if not (header.g < header.u and header.e * header.u + header.g < header.n):
        raise ValueError(
            f"{where}: header names node {tuple(node)}, outside the rack grid "
            f"of n={header.n}, u={header.u}"
        )
    if node in found:
        first = found[node][2]
        raise ValueError(f"{where}: duplicate shard for node {tuple(node)}, first given as {first}")
    found[node] = (header, body, where)


def _open_shards(paths: Iterable[str], stack: ExitStack, found: dict | None = None) -> dict:
    """{NodeId: (header, handle, path)} for shard files, each opened once through
    ``open_shard``, closed by ``stack`` and admitted (``_admit``) into
    ``found``, which the call extends, when given."""
    found = {} if found is None else found
    for path in paths:
        header, fh = open_shard(path)
        stack.enter_context(fh)
        _admit(found, header, fh, path)
    return found


def _decode_admitted(found: Mapping, read: Callable) -> bytes:
    """The file bytes from an admitted shard set (``_admit``), decoding only
    the k nodes ``read_nodes`` names; ``read`` takes a payload from a body."""
    first = next(iter(found.values()))[0]
    p = _params_from_header(first)
    columns = {node: split_payload(p, read(found[node][1])) for node in read_nodes(p, found)}
    return p.kernel.join(read_slabs(p, columns, first.systematic))[: first.original_length]


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
    admitted = {}
    for node, (header, payload) in loaded.items():
        if (header.e, header.g) != node:
            raise ValueError(f"node {tuple(node)}: header is for node ({header.e}, {header.g})")
        _admit(admitted, header, payload, f"node {tuple(node)}")
        _check_size(len(payload), header, f"node {tuple(node)}: ")
    return _decode_admitted(admitted, lambda payload: payload)


def _shard_paths(directory: str) -> list:
    """The paths of the .mbrr files in ``directory``, sorted by name. A
    missing directory, or one without such a file, holds no shards."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    paths = [os.path.join(directory, name) for name in sorted(names) if name.endswith(".mbrr")]
    if not paths:
        raise ValueError(f"{directory}: no .mbrr shard files")
    return paths


def _check_out(path: str, directory: bool, names: Sequence[str] = ()) -> str:
    """``path``, unless a command could not write its output there: an
    existing path of the wrong kind, a file's missing directory, or a file at
    the temp path (``_write_atomic``) of the output file or of ``names`` in
    the output directory (then ValueError). ``directory`` says which it is."""
    exists = os.path.exists(path)
    if exists and os.path.isdir(path) != directory:
        kind, found = ("directory", "file") if directory else ("file", "directory")
        raise ValueError(f"output {kind} {path} is an existing {found}")
    if not directory and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"output file {path}: its directory does not exist")
    for file in [os.path.join(path, name) for name in names if exists] if directory else [path]:
        if os.path.lexists(file + ".tmp"):
            raise ValueError(f"output file {file}: its temp file {file}.tmp already exists")
    return path
