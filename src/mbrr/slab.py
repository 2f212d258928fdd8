"""Slab kernel: linear maps over whole shard rows, as byte slabs.

A slab holds one symbol position of every stripe. Row i of a shard whose
payload carries alpha symbols per stripe is symbols i, i + alpha, ... of
that payload; symbol t of a file cut into B-symbol stripes is symbols t,
t + B, ... of the file. A slab is ``bytes`` with one lane per stripe: a
big-endian symbol in ``width`` bytes, the narrowest of 1, 2, 4 and 8 that
holds q - 1. Over GF(2^8) and GF(2^16) that is file byte order, so cutting
a buffer into slabs and interleaving them back only moves whole symbols,
by slicing in C.

Every operation of the code (encode, systematic encode, both decoder
passes, both repair stages) is a fixed linear map, run once over slabs
instead of once per stripe: by the file commands, by the cluster
simulator, and on one-lane slabs by the per-stripe ``Decoder.reconstruct``
and ``Repairer.repair``. The maps are built with slabs too, on B lanes,
lane j standing for the unit data vector e_j (``systematic``). Every map
of a code runs on its params' one kernel, ``CodeParams.kernel``, which
``make_params`` builds; no entry point takes a kernel.

The kernel reads a slab as one big-endian integer. Over GF(2^m) addition
is XOR of those integers, and doubling every lane at once is a masked
shift that adds the reduction polynomial to the lanes whose top bit
overflowed (``_lane_masks``). Every map runs bit-serial, one XOR per set
bit of its constants, by one of two schedules that differ only in what
they double:

- ``_horner`` doubles rows. For each output row, the inputs whose
  constant has bit b set are XORed into a partial sum s_b, and Horner's
  rule over the bits from the top, ``acc = 2 * acc + s_b``, gives the
  row: at most m - 1 doublings per row, so one-row maps such as the
  repair's helper maps (beta = 1) cost least.
- ``_doubled_inputs`` doubles inputs. Input x_j is doubled up to the top
  bit of its column's largest constant, and each power 2^b * x_j is
  XORed into every row whose constant has bit b: at most m - 1 doublings
  per input, with one input's powers alive at a time.

A map with more rows than inputs runs ``_doubled_inputs``, any other map
``_horner``: the rule compares the two worst-case doubling counts and
reads no constant. The plain encode map (n * alpha rows over B inputs,
n > k) always has more rows than inputs; the decoder's and the repair's
maps never do. The GF(2^16) windowed schedule and the GF(2^8) table
multiply of Plank, Greenan and Miller (FAST 2013) win only on slabs longer
than any benchmark workload's (ROADMAP's parked "Long slabs" item and
``BENCH_13.json`` have the measurements).

Over GF(p) an output row is the plain integer sum of ``c * x`` over its
nonzero entries (``_multiply_add``), so each input is first widened to
accumulation lanes that hold any lane sum: the narrowest of 1, 2, 4 and 8
bytes that holds (p - 1) * (256**w - 1) times the input count. Byte b of
every w-byte symbol goes to byte acc - w + b of a zeroed acc-byte lane by
one strided ``bytearray`` slice assignment, so widening is w copies at C
speed. The bound covers every byte a symbol lane can carry, so a symbol
that is not a field element spoils only its own stripe. The sums are read
back as big-endian lanes and reduced mod p to w bytes again. One-byte
symbols whose lanes hold acc * (p - 1) < 256 narrow by ``bytes.translate``:
table j maps byte v of a lane's stride j to v * 256**(acc - 1 - j) mod p,
the acc translated strides add as big integers with no carry between
lanes, and one last table reduces each sum mod p. Other fields reduce
every lane sum with ``% p``. Only a map whose sums 8-byte lanes cannot
hold (no field ``make_params`` picks has one) runs ``linalg.matmul``, the
reference the kernel is checked against.

``apply`` runs a map once per ``_CHUNK`` (16 KiB) of its slabs, so the
working set stays in the cache. A run costs a Python step per row, input
and set bit whatever its length, so ``apply_groups`` lays the row groups
of one map (the decoder's and the systematic transform's message rows)
end to end in one ``apply``; lanes are independent, so where a run ends
changes no byte. The kernel does not check its symbols: they enter as
file bytes, or through ``Cluster.store_stripes``, ``Decoder.reconstruct``
and ``Repairer.repair``, which refuse anything but field elements.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, compress
from typing import Sequence

from .linalg import _product_width, matmul

__all__ = ["SlabKernel"]

# The set bits of each byte value, as bit positions in a constant's low byte
# and in its high byte: both GF(2^m) schedules split a constant into bytes.
_LOW_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_HIGH_BITS = tuple(tuple(b + 8 for b in bits) for bits in _LOW_BITS)

# Bytes of each slab per run of ``SlabKernel``; see the module docstring.
_CHUNK = 16384

# The ``array`` format of each lane width, narrowest first.
_FORMATS = {array(fmt).itemsize: fmt for fmt in "BHIQ"}


def _lane_width(top: int) -> int | None:
    """The narrowest lane of ``_FORMATS`` that holds ``top``, or None."""
    return next((w for w in _FORMATS if top < 1 << 8 * w), None)


def _lanes_of(fmt: str, buf) -> array:
    """The big-endian ``fmt`` lanes of ``buf`` as an array of ints."""
    a = array(fmt, buf)
    if sys.byteorder == "little":
        a.byteswap()
    return a


def _horner(m: int, masks: tuple, matrix, inputs: Sequence[int]) -> list:
    """Each row of a GF(2^m) ``matrix`` applied to packed ``inputs``, by
    Horner's rule over the bits of its constants, from the top bit;
    ``masks`` are ``_lane_masks`` of the inputs' lanes."""
    top, rest, poly = masks
    shift = m - 1
    out = []
    for row in matrix:
        sums = [0] * m  # sums[b]: XOR of the inputs whose constant has bit b
        for c, x in zip(row, inputs):
            if c:
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


def _doubled_inputs(m: int, masks: tuple, matrix, inputs: Sequence[int]) -> list:
    """``_horner(m, masks, matrix, inputs)``, bit for bit, doubling each input
    instead of each row: input j is doubled up to the top bit of its
    column's largest constant, and power b, 2^b * x_j, is XORed into every
    row whose constant has bit b. Only one input's powers exist at a time."""
    top, rest, poly = masks
    shift = m - 1
    out = [0] * len(matrix)
    rows = range(len(matrix))
    for x, column in zip(inputs, zip(*matrix)):
        high = max(column)
        if not (x and high):
            continue
        powers = [x]  # powers[b] = 2^b * x
        for _ in range(high.bit_length() - 1):
            x = ((x & rest) << 1) ^ ((x & top) >> shift) * poly
            powers.append(x)
        for r in compress(rows, column):  # skips the column's zeros in C
            c, acc = column[r], out[r]
            for b in _LOW_BITS[c & 255]:
                acc ^= powers[b]
            for b in _HIGH_BITS[c >> 8]:
                acc ^= powers[b]
            out[r] = acc
    return out


def _multiply_add(matrix, inputs: Sequence[int]) -> list:
    """Each row of a GF(p) ``matrix`` applied to packed ``inputs`` as plain
    integer sums of products, unreduced; the lanes must hold the sums."""
    out = []
    for row in matrix:
        acc = 0
        for c, x in zip(row, inputs):
            if c:
                acc += c * x
        out.append(acc)
    return out


def _lane_masks(field, lanes: int, width: int) -> tuple:
    """Masks that double every lane of ``lanes`` GF(2^m) symbols packed in
    ``width``-byte lanes.

    Doubling is ``((x & rest) << 1) ^ ((x & top) >> (m - 1)) * poly``:
    ``(x & top) >> (m - 1)`` is 0 or 1 per lane, so multiplying it by
    poly reduces exactly the lanes whose top bit overflowed.
    """
    m = field.m
    ones = int.from_bytes((1).to_bytes(width, "big") * lanes, "big")  # 1 in every lane
    return ones << m - 1, ones * ((1 << m - 1) - 1), field.primitive_poly ^ 1 << m


class SlabKernel:
    """Applies matrices over any field to equal-length byte slabs.

    Lane masks are built per instance on first use and kept by slab
    length, so a kernel lives as long as the params that own it.
    """

    def __init__(self, field):
        width = _lane_width(field.q - 1)
        if width is None:
            raise ValueError(f"no lane of at most 8 bytes holds the symbols of {field!r}")
        self.field = field
        self.width = width  # bytes per symbol
        self._format = _FORMATS[width]
        self._masks: dict = {}  # lane masks by slab length
        self._tables: dict = {}  # GF(p) translate tables by accumulation lane width

    def split(self, buf, count: int) -> list:
        """``count`` slabs; slab r holds symbols r, r + count, ... of ``buf``.
        Whole lanes only move, so wider symbols slice a native ``array``."""
        if count < 1:
            raise ValueError(f"cannot split into {count} slabs")
        if len(buf) % (count * self.width):
            raise ValueError(
                f"{len(buf)} bytes do not split into {count} equal slabs of whole symbols"
            )
        if self.width == 1:
            return [bytes(buf[r::count]) for r in range(count)]
        a = array(self._format, buf)
        return [a[r::count].tobytes() for r in range(count)]

    def join(self, slabs: Sequence[bytes]) -> bytes:
        """Interleave slabs symbol by symbol; the inverse of ``split``."""
        count, size = len(slabs), len(slabs[0]) if slabs else 0
        for slab in slabs:
            if len(slab) % self.width:
                raise ValueError(f"a slab of {len(slab)} bytes is not whole symbols")
            if len(slab) != size:
                raise ValueError(f"slabs of {size} and {len(slab)} bytes do not interleave")
        if self.width == 1:
            out = bytearray(size * count)
            for r, slab in enumerate(slabs):
                out[r::count] = slab
            return bytes(out)
        out = array(self._format, bytes(size * count))
        for r, slab in enumerate(slabs):
            out[r::count] = array(self._format, slab)
        return out.tobytes()

    def pack(self, symbols: Sequence[int]) -> bytes:
        """The slab holding ``symbols``, one per stripe."""
        if self.width == 1:
            return bytes(symbols)  # a third of the time ``array`` takes
        a = array(self._format, symbols)
        if sys.byteorder == "little":
            a.byteswap()
        return a.tobytes()

    def unpack(self, slab: bytes) -> list:
        """The symbols of a slab as ints; the inverse of ``pack``."""
        return _lanes_of(self._format, slab).tolist()

    def unit_lanes(self, count: int) -> list:
        """``count`` slabs of ``count`` lanes, slab j 1 in lane j and 0 in
        the others: ``pack`` of each unit vector e_j, made as bytes."""
        w, one = self.width, (1).to_bytes(self.width, "big")
        return [bytes(w * j) + one + bytes(w * (count - 1 - j)) for j in range(count)]

    def apply(self, matrix: Sequence[Sequence[int]], slabs: Sequence[bytes]) -> list:
        """Output slab r is the sum over j of ``matrix[r][j] * slabs[j]``, one
        ``_run`` per ``_CHUNK`` bytes; a slab of one run is not copied."""
        size = self._size(matrix, slabs)
        if not size:  # no run: the GF(p) branch cannot take 0 bytes
            return [b"" for _ in matrix]
        runs = [self._run(matrix, [s[lo : lo + _CHUNK] for s in slabs]) for lo in range(0, size, _CHUNK)]
        return [b"".join(row) for row in zip(*runs)]

    def apply_groups(self, matrix: Sequence[Sequence[int]], groups: Sequence) -> list:
        """``[self.apply(matrix, g) for g in groups]``, bit for bit, by one
        ``apply`` of slab j of every group, end to end, as input j, cut back
        by the groups' sizes. Each group is checked alone, as groups of odd
        bytes can join into whole symbols; one group is not copied."""
        at = [0, *accumulate(self._size(matrix, slabs) for slabs in groups)]
        rows = self.apply(matrix, [b"".join(piece) for piece in zip(*groups)]) if groups else []
        return [[row[lo:hi] for row in rows] for lo, hi in zip(at, at[1:])]

    def _size(self, matrix, slabs: Sequence[bytes]) -> int:
        """The bytes in each of ``slabs``; refused unless ``matrix`` takes them as whole symbols."""
        size = _product_width(matrix, slabs)
        if size % self.width:
            raise ValueError(f"slabs of {size} bytes are not whole symbols")
        return size

    def _run(self, matrix, inputs: Sequence[bytes]) -> list:
        """The output slabs of ``matrix`` over one run of equal ``inputs``."""
        size = len(inputs[0])
        f = self.field
        if f.characteristic == 2:
            ints = [int.from_bytes(x, "big") for x in inputs]
            # Both schedules XOR once per set bit; _horner doubles up to m - 1
            # times per row, _doubled_inputs up to m - 1 times per input.
            schedule = _doubled_inputs if len(matrix) > len(inputs) else _horner
            return [v.to_bytes(size, "big") for v in schedule(f.m, self._lanes(size), matrix, ints)]
        w, q = self.width, f.q
        acc = _lane_width((q - 1) * ((1 << 8 * w) - 1) * len(inputs))
        if acc is None:
            rows = matmul(f, matrix, [self.unpack(x) for x in inputs])
            return [self.pack(row) for row in rows]
        # Widen every input at once: byte b of symbol lane i goes to byte
        # acc - w + b of accumulation lane i, the other bytes stay 0.
        joined, wide = b"".join(inputs), size // w * acc
        lanes = bytearray(len(joined) // w * acc)
        for b in range(w):
            lanes[acc - w + b :: acc] = joined[b::w]
        ints = [int.from_bytes(lanes[i : i + wide], "big") for i in range(0, len(lanes), wide)]
        # Narrow row by row, so that only one row's lane sums exist as ints.
        rows = (v.to_bytes(wide, "big") for v in _multiply_add(matrix, ints))
        if w == 1 and acc * (q - 1) < 256:
            # Table j maps v to v * 256**(acc-1-j) mod q, so no sum of acc carries.
            tables = self._tables.get(acc)
            if tables is None:
                shifts = [256 ** (acc - 1 - j) for j in range(acc)] + [1]
                tables = self._tables[acc] = [bytes(v * s % q for v in range(256)) for s in shifts]
            *tables, last = tables
            return [
                sum(int.from_bytes(row[j::acc].translate(t), "big") for j, t in enumerate(tables))
                .to_bytes(size, "big")
                .translate(last)
                for row in rows
            ]
        return [self.pack([s % q for s in _lanes_of(_FORMATS[acc], row)]) for row in rows]

    def _lanes(self, size: int) -> tuple:
        """The GF(2^m) lane masks of a ``size``-byte slab, built once per length."""
        masks = self._masks.get(size)
        if masks is None:
            masks = self._masks[size] = _lane_masks(self.field, size // self.width, self.width)
        return masks
