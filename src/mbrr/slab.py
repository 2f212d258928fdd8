"""Slab kernels: linear maps over whole shard rows, as bytes or as lists.

A slab holds one symbol position of every stripe. Row i of a shard whose
payload carries alpha symbols per stripe is symbols i, i + alpha,
i + 2*alpha, ... of that payload; symbol t of a file cut into B-symbol
stripes is symbols t, t + B, ... of the file. Slabs are ``bytes`` in file
byte order (big-endian for two-byte symbols), so cutting a buffer into
slabs and interleaving them back only moves whole symbols.

Every file operation of the code (encode, systematic encode, both
decoder passes, both repair stages) is a fixed GF(2^m)-linear map, so it
runs once over slabs instead of once per stripe. The maps are built with
slabs too, on B lanes, lane j standing for the unit data vector e_j:
``systematic.precoding_matrix`` runs the five steps of the systematic
transform over B unit-lane slabs, and ``systematic.systematic_encode_map``
applies the generator rows of the non-data cells (``encode.encode_rows``)
to the precoding rows packed as B-lane slabs.

In the kernel a slab read as one big-endian integer (``int.from_bytes``)
holds its symbols in m-bit lanes. Addition is XOR of those integers.
Doubling every lane at once is a masked shift that adds the reduction
polynomial to the lanes whose top bit overflowed. ``SlabKernel.apply``
runs every map bit-serial, over its slabs in chunks of at most ``_CHUNK``
(16 KiB), so that what it holds stays in the cache and its cost stays
linear in the slab length: for each output row, the inputs whose constant
has bit b set are XORed into a partial sum s_b, and Horner's rule over the
bits from the top, ``acc = 2 * acc + s_b``, gives the row. That is m
doublings per row and one XOR per set bit of each constant, with no
preparation, so its cost follows the rows and the set bits, not the inputs.
The minimum-bandwidth repair sends one symbol per helper rack (beta = 1),
so its helper maps are one row each, the shape this schedule suits best.

No second schedule is kept, because none wins on a benchmark workload:
the GF(2^16) windowed one (each input prepared once as eight 2-bit windows
of its doublings, eight lookups per product) and the GF(2^8) table
multiply of Plank, Greenan and Miller, FAST 2013 (``bytes.translate``, a
256-byte table per constant). They win only on long slabs, measured with
CPython 3.11.7 on a 2-core x86-64 host (best single applies, the two
schedules interleaved): at 8,192 lanes windowed took 5.4 against 6.9 ms
for the plain 36 x 20 GF(2^16) encode map at (12,7,3,3) and 5.5 against
8.4 ms for the decoder's 8 x 324 re-encode at (50,44,5,8); table
multiplies took 68 against 82 ms for the four repair maps of a 10 MiB file
at (12,7,3,3). On 51 lanes (a 32 KiB file at (50,44,5,8)) the decoder's
44 x 44 maps were even, 1.42-1.48 ms windowed against 1.40-1.44 ms.

``ListSlabKernel`` applies the same maps, with the same contract, to slabs
that are lists of field ints, over any field. The cluster simulator keeps
its shards that way, because prime fields and GF(2^m) with m other than 8
and 16 have no byte framing. Over GF(p) it packs lanes the same way: each
input slab, on its first nonzero entry, becomes one integer with a w-byte
lane per stripe, and an output row is the plain integer sum of
``c * x`` over the row's nonzero entries, one big-integer multiply and add
per entry, reduced mod p once per row as it is unpacked. Inputs are field
elements below p, so no lane sum exceeds (p-1)**2 times the input count;
w is the smallest of 1, 2, 4 and 8 bytes that holds that bound, so no
lane carries into the next. Packing and unpacking both go through
``array`` in native byte order and read the bytes as an integer in
``sys.byteorder``, so lane i sits in the same bits on the way in and out
on either endianness, with no byteswap. Binary fields, and a row too long
for 8-byte lanes (no field ``make_params`` picks reaches one), run through
``linalg.matmul``, the reference the kernel is checked against. The kernel
does not check its inputs: symbols enter through ``Cluster.store_stripes``,
``Decoder.reconstruct`` and ``Repairer.repair``, which refuse anything but
field elements, and every output is reduced.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

from .linalg import _product_width, matmul

__all__ = ["BYTE_FIELD_MS", "SlabKernel", "ListSlabKernel"]

# The m of the fields GF(2^m) of byte slabs and shard files.
BYTE_FIELD_MS = (8, 16)

# The set bits of each byte value, as bit positions in a constant's low byte
# and in its high byte: the kernel splits a constant into bytes.
_LOW_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_HIGH_BITS = tuple(tuple(b + 8 for b in bits) for bits in _LOW_BITS)

# Bytes of each slab per run of the kernel; see the module docstring.
_CHUNK = 16384

# (bytes, array format) of the lanes ``ListSlabKernel`` packs GF(p) slabs in.
_LANES = tuple((array(fmt).itemsize, fmt) for fmt in "BHIQ")


class SlabKernel:
    """Applies GF(2^8) or GF(2^16) matrices to equal-length byte slabs.

    Lane masks are built per instance on first use and kept by slab
    length, so a kernel lives as long as the plan that uses it.
    """

    def __init__(self, field):
        if getattr(field, "characteristic", None) != 2 or field.m not in BYTE_FIELD_MS:
            raise ValueError(f"byte slabs need GF(2^8) or GF(2^16), not {field!r}")
        self.field = field
        self.width = field.m // 8  # bytes per symbol
        self._format = "B" if field.m == 8 else "H"
        self._masks: dict = {}  # lane masks by slab length

    def split(self, buf, count: int) -> list:
        """``count`` slabs; slab r holds symbols r, r + count, ... of ``buf``."""
        if len(buf) % (count * self.width):
            raise ValueError(
                f"{len(buf)} bytes do not split into {count} equal slabs of whole symbols"
            )
        view = memoryview(buf).cast(self._format)
        return [view[r::count].tobytes() for r in range(count)]

    def join(self, slabs: Sequence[bytes]) -> bytes:
        """Interleave slabs symbol by symbol; the inverse of ``split``."""
        count = len(slabs)
        for slab in slabs:
            if len(slab) % self.width:
                raise ValueError(f"a slab of {len(slab)} bytes is not whole symbols")
        out = bytearray(sum(map(len, slabs)))
        view = memoryview(out).cast(self._format)
        for r, slab in enumerate(slabs):
            view[r::count] = memoryview(slab).cast(self._format)
        return bytes(out)

    def pack(self, symbols: Sequence[int]) -> bytes:
        """The slab holding ``symbols``, one per stripe."""
        a = array(self._format, symbols)
        if sys.byteorder == "little":
            a.byteswap()
        return a.tobytes()

    def unpack(self, slab: bytes) -> list:
        """The symbols of a slab as field ints; the inverse of ``pack``."""
        a = array(self._format, slab)
        if sys.byteorder == "little":
            a.byteswap()
        return a.tolist()

    def apply(self, matrix: Sequence[Sequence[int]], slabs: Sequence[bytes]) -> list:
        """Output slab r is the sum over j of ``matrix[r][j] * slabs[j]``."""
        size = _product_width(matrix, slabs)
        if size % self.width:
            raise ValueError(f"slabs of {size} bytes are not whole symbols")
        parts = [[] for _ in matrix]
        for lo in range(0, size, _CHUNK):
            chunk = [slab[lo : lo + _CHUNK] for slab in slabs]  # the slab itself if short
            length = min(size - lo, _CHUNK)
            for part, v in zip(parts, self._apply_serial(matrix, chunk)):
                part.append(v.to_bytes(length, "big"))
        return [b"".join(part) for part in parts]

    def _apply_serial(self, matrix, slabs) -> list:
        """Horner over the bits of each row's constants, from the top bit."""
        m = self.field.m
        top, rest, poly = self._lanes(len(slabs[0]))
        shift = m - 1
        plain = [None] * len(slabs)  # inputs as ints, each converted once
        out = []
        for row in matrix:
            sums = [0] * m  # sums[b]: XOR of the inputs whose constant has bit b
            for j, c in enumerate(row):
                if c:
                    x = plain[j]
                    if x is None:
                        x = plain[j] = int.from_bytes(slabs[j], "big")
                    for b in _LOW_BITS[c & 255]:
                        sums[b] ^= x
                    for b in _HIGH_BITS[c >> 8]:
                        sums[b] ^= x
            acc = 0
            for s in reversed(sums):
                if acc:  # doubling 0 is 0: leading zero sums cost nothing
                    acc = ((acc & rest) << 1) ^ ((acc & top) >> shift) * poly
                acc ^= s
            out.append(acc)
        return out

    def _lanes(self, size: int) -> tuple:
        """Masks that double every lane of a ``size``-byte slab at once.

        Doubling is ``((x & rest) << 1) ^ ((x & top) >> (m - 1)) * poly``:
        ``(x & top) >> (m - 1)`` is 0 or 1 per lane, so multiplying it by
        poly reduces exactly the lanes whose top bit overflowed.
        """
        masks = self._masks.get(size)
        if masks is None:
            m, w = self.field.m, self.width
            lanes = size // w
            masks = self._masks[size] = (
                int.from_bytes((1 << m - 1).to_bytes(w, "big") * lanes, "big"),
                int.from_bytes(((1 << m - 1) - 1).to_bytes(w, "big") * lanes, "big"),
                self.field.primitive_poly ^ 1 << m,  # x**m reduced
            )
        return masks


class ListSlabKernel:
    """Applies matrices over any field to equal-length lists of field ints.

    A slab is a list with one symbol per stripe, so ``width`` is 1. Over
    GF(p) a map runs on packed lanes (see the module docstring); otherwise
    it is the matrix product ``linalg.matmul`` with the slabs as rows.
    """

    width = 1

    def __init__(self, field):
        self.field = field

    def pack(self, symbols: Sequence[int]) -> list:
        """The slab holding ``symbols``, one per stripe."""
        return list(symbols)

    def unpack(self, slab: list) -> list:
        """The symbols of a slab as field ints; the inverse of ``pack``."""
        return list(slab)

    def apply(self, matrix: Sequence[Sequence[int]], slabs: Sequence[list]) -> list:
        """Output slab r is the sum over j of ``matrix[r][j] * slabs[j]``."""
        f = self.field
        top = (f.q - 1) ** 2 * len(slabs)  # the largest lane sum
        lane = next(((w, fmt) for w, fmt in _LANES if top < 1 << 8 * w), None)
        if f.characteristic == 2 or lane is None:
            return matmul(f, matrix, slabs)
        cols = _product_width(matrix, slabs)
        w, fmt = lane
        q, order = f.q, sys.byteorder
        packed = [None] * len(slabs)  # inputs as ints, each converted once
        out = []
        for row in matrix:
            acc = 0
            for j, c in enumerate(row):
                if c:
                    x = packed[j]
                    if x is None:
                        x = packed[j] = int.from_bytes(array(fmt, slabs[j]).tobytes(), order)
                    acc += c * x
            if acc:
                out.append([v % q for v in memoryview(acc.to_bytes(cols * w, order)).cast(fmt)])
            else:
                out.append([0] * cols)
        return out
