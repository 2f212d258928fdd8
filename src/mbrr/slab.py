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
runs a map on one of two schedules, over its slabs in chunks of at most
``_CHUNK`` (16 KiB), so that what a schedule holds stays in the cache and
its cost stays linear in the slab length:

* **bit-serial**: for each output row, the inputs whose constant has bit
  b set are XORed into a partial sum s_b, and Horner's rule over the bits
  from the top, ``acc = 2 * acc + s_b``, gives the row: m doublings per
  row and one XOR per set bit of each constant, and no preparation.
* **windowed**, GF(2^16) only: each input slab is prepared once, its 16
  doublings grouped into eight 2-bit windows (0, x, 2x, 3x times 4**w),
  then each non-unit entry c costs one product c * slab, eight lookups and
  seven XORs. Per-constant tables do not pay off: a 65,536-entry table per
  constant costs more than the slabs it would multiply.

GF(2^8) maps always run bit-serial. The windowed alternative there is the
table multiply of Plank, Greenan and Miller, "Screaming Fast Galois Field
Arithmetic Using Intel SIMD Instructions" (FAST 2013): ``slab.translate``
with a 256-byte table per constant, built once per kernel. On the slabs of
a 256 KiB file at (12,7,3,3) (13,108 lanes) bit-serial was faster on every
map the CLI applies, 5.0 against 6.6 ms for the 36 x 20 encode map, as
building the tables costs more than it saves there. On much longer slabs
the table multiply moves fewer bytes: repairing a 10 MiB file (524,288
lanes) spent 82 ms in its four maps against 68 ms, while encoding and
decoding it were about 10% faster bit-serial. With no benchmark workload
on that side, GF(2^8) keeps one schedule.

Over GF(2^16) windowed pays per input and per product, bit-serial per row
and per set bit. ``apply`` picks from counts that cost O(rows) Python work
(``row.count``): r rows, n nonzero entries of which t are not 1, and the
inputs, taken as min(columns, t) prepared and min(columns, n) read; a
constant is taken to have 8 set bits. With L lanes per chunk and each cost
a + b*L nanoseconds,

    windowed   = min(columns, t) * P + t * T
    bit-serial = r * 16 * D + t * 8 * X + min(columns, n) * F

P prepares an input, T is one product, D is one doubling, X one XOR into a
partial sum, its fixed part being the interpreter's cost per set bit, and
F one ``int.from_bytes``. Unit entries cost one XOR on either schedule,
and a map with t = 0 runs windowed. The constants (``_COSTS``) are a
non-negative least-squares fit, weighted by relative error, to timings of
both schedules on fresh kernels, best of 3 to 7: random maps from 1 x 5 to
76 x 324 with 1 to 131,072 lanes, and every map the CLI applies at
(50,44,5,8), with CPython 3.11.7 on a 2-core x86-64 host. Within one
chunk (up to 8,192 lanes), picking by them took 3.8% longer than always
picking the faster schedule, summed over 518 timings of 61 maps at 1 to
8,192 lanes. Measured there, per apply:

    map      lanes    where                        windowed  bit-serial
    1 x 40       51   repair, each helper rack      0.33 ms   0.05 ms
    1 x 40    1,619   the same, 1 MiB file          3.6 ms    0.45 ms
    8 x 40       51   repair, host rack             0.44 ms   0.18 ms
    76 x 324    324   systematic encode map build  15.3 ms    8.1 ms
    76 x 324     51   systematic encode            14.4 ms   12.0 ms
    44 x 44     324   precoding build, decoder      3.4 ms    4.1 ms
    44 x 44      51   decode, each pass step        2.3 ms    2.2 ms
    36 x 20   1,618   random, 80% nonzero           3.8 ms    5.4 ms

So bit-serial wins where each input feeds few outputs, above all in the
minimum-bandwidth repair, where a helper rack's map is one row. A prepared
input costs about what 16 doublings of an output cost, and a product about
what 8 partial-sum XORs cost, so windowed wins on maps with more rows than
columns. Square maps sit on the tie line and measure either way between
runs, so the model cannot rank them; the 76 x 324 row at 51 lanes and the
two 44 x 44 rows are medians of 25 interleaved runs.

``ListSlabKernel`` applies the same maps, with the same contract, to slabs
that are lists of field ints, over any field. The cluster simulator keeps
its shards that way, because prime fields and GF(2^m) with m other than 8
and 16 have no byte framing.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

from .linalg import _product_width, matmul

__all__ = ["SlabKernel", "ListSlabKernel"]

# The set bits of each byte value, as bit positions in a constant's low byte
# and in its high byte: the bit-serial schedule splits a constant into bytes.
_LOW_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_HIGH_BITS = tuple(tuple(b + 8 for b in bits) for bits in _LOW_BITS)

# Bytes of each slab per run of a schedule; see the module docstring.
_CHUNK = 16384

# The GF(2^16) cost model's (a, b) pairs, a + b*L nanoseconds on L lanes;
# see the module docstring for the terms and the host they were measured on.
_COSTS = dict(P=(4000, 33), T=(650, 1.3), D=(200, 2.2), X=(85, 0.14), F=(250, 2.1))


class SlabKernel:
    """Applies GF(2^8) or GF(2^16) matrices to equal-length byte slabs.

    Lane masks are built per instance on first use, and the last map's
    entry counts are kept, so a kernel lives as long as the plan that uses it.
    """

    def __init__(self, field):
        if getattr(field, "characteristic", None) != 2 or field.m not in (8, 16):
            raise ValueError(f"byte slabs need GF(2^8) or GF(2^16), not {field!r}")
        self.field = field
        self.width = field.m // 8  # bytes per symbol
        self._format = "B" if field.m == 8 else "H"
        self._masks: dict = {}  # lane masks by slab length
        self._counted: tuple = (None, 0, 0)  # last map, its nonzero and unit entries

    def split(self, buf, count: int) -> list:
        """``count`` slabs; slab r holds symbols r, r + count, ... of ``buf``."""
        view = memoryview(buf).cast(self._format)
        if len(view) % count:
            raise ValueError(
                f"{len(view)} symbols do not split into {count} equal slabs"
            )
        return [view[r::count].tobytes() for r in range(count)]

    def join(self, slabs: Sequence[bytes]) -> bytes:
        """Interleave slabs symbol by symbol; the inverse of ``split``."""
        count = len(slabs)
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
        if self._serial_is_cheaper(matrix, min(size, _CHUNK)):
            schedule = self._apply_serial
        else:
            schedule = self._apply_windowed
        parts = [[] for _ in matrix]
        for lo in range(0, size, _CHUNK):
            chunk = [slab[lo : lo + _CHUNK] for slab in slabs]  # the slab itself if short
            length = min(size - lo, _CHUNK)
            for part, v in zip(parts, schedule(matrix, chunk)):
                part.append(v.to_bytes(length, "big"))
        return [b"".join(part) for part in parts]

    def _serial_is_cheaper(self, matrix, size: int) -> bool:
        """The module docstring's cost model, from O(rows) C-level counts.

        The last map's counts are kept, because plans apply one map to many
        slab positions in a row (the decoder's 44 x 44 maps 8 times a file),
        and counting costs about 3% of such a windowed apply. A map changed
        in place keeps its old counts, which can only pick the slower schedule.
        """
        if self.field.m == 8:
            return True
        if self._counted[0] is not matrix:
            nonzero = unit = 0
            for row in matrix:
                nonzero += len(row) - row.count(0)
                unit += row.count(1)
            self._counted = (matrix, nonzero, unit)
        _, nonzero, unit = self._counted
        other = nonzero - unit
        if not other:
            return False  # sums only: the same XORs on either schedule
        lanes, cols = size // 2, len(matrix[0])
        c = {term: a + b * lanes for term, (a, b) in _COSTS.items()}
        windowed = min(cols, other) * c["P"] + other * c["T"]
        serial = len(matrix) * 16 * c["D"] + other * 8 * c["X"] + min(cols, nonzero) * c["F"]
        return serial < windowed

    def _apply_windowed(self, matrix, slabs) -> list:
        """GF(2^16): prepare each input once, one ``_times`` per non-unit entry."""
        acc = [0] * len(matrix)
        # One input slab at a time into every output, so however many slabs
        # the map reads, one is held as an int (for c == 1) and as its windows.
        for slab, column in zip(slabs, zip(*matrix)):
            plain = windows = None
            for r, c in enumerate(column):
                if c == 1:
                    if plain is None:
                        plain = int.from_bytes(slab, "big")
                    acc[r] ^= plain
                elif c:
                    if windows is None:
                        windows = self._prepare(slab)
                    acc[r] ^= self._times(c, windows)
        return acc

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

    def _prepare(self, slab: bytes) -> list:
        """GF(2^16): a slab's 16 doublings, as eight 2-bit windows."""
        top, rest, poly = self._lanes(len(slab))
        x = int.from_bytes(slab, "big")
        windows = []  # window w: 0, 1, 2, 3 times 4**w * slab
        for _ in range(8):
            x2 = ((x & rest) << 1) ^ ((x & top) >> 15) * poly
            windows.append((0, x, x2, x ^ x2))
            x = ((x2 & rest) << 1) ^ ((x2 & top) >> 15) * poly
        return windows

    def _times(self, c: int, windows: list) -> int:
        """c times the prepared slab: one lookup per window."""
        w0, w1, w2, w3, w4, w5, w6, w7 = windows
        return (
            w0[c & 3] ^ w1[c >> 2 & 3] ^ w2[c >> 4 & 3] ^ w3[c >> 6 & 3]
            ^ w4[c >> 8 & 3] ^ w5[c >> 10 & 3] ^ w6[c >> 12 & 3] ^ w7[c >> 14]
        )


class ListSlabKernel:
    """Applies matrices over any field to equal-length lists of field ints.

    A slab is a list with one symbol per stripe, so ``width`` is 1, and a
    map is the matrix product ``linalg.matmul`` with the slabs as rows.
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
        return matmul(self.field, matrix, slabs)
