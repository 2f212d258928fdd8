"""Slab kernel: linear maps over whole shard rows, as byte slabs.

A slab holds one symbol position of every stripe. Row i of a shard whose
payload carries alpha symbols per stripe is symbols i, i + alpha, ... of
that payload; symbol t of a file cut into B-symbol stripes is symbols t,
t + B, ... of the file. A slab is ``bytes`` with one lane per stripe: a
big-endian symbol in ``width`` bytes, the narrowest of 1, 2, 4 and 8 that
holds q - 1. Over GF(2^8) and GF(2^16) that is file byte order, so cutting
a buffer into slabs and interleaving them back only moves whole symbols.

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
overflowed (``_lane_masks``). ``_horner`` runs every map bit-serial: for
each output row, the inputs whose constant has bit b set are XORed into a
partial sum s_b, and Horner's rule over the bits from the top,
``acc = 2 * acc + s_b``, gives the row: m doublings per row and one XOR
per set bit, so one-row maps such as the repair's helper maps (beta = 1)
cost least. The GF(2^16) windowed schedule and the GF(2^8) table multiply
of Plank, Greenan and Miller (FAST 2013) win only on slabs longer than any
benchmark workload's (the README has the measurements).

Over GF(p) an output row is the plain integer sum of ``c * x`` over its
nonzero entries (``_multiply_add``), so each input is first widened to
accumulation lanes that hold any lane sum: the narrowest of 1, 2, 4 and 8
bytes that holds (p - 1) * (256**w - 1) times the input count. One strided
byte-slice assignment puts every w-byte symbol in the low bytes of a
zeroed accumulation lane, at C speed, where building an ``array`` from a
list of ints cost a Python object per symbol. The bound covers every byte
a symbol lane can carry, so a symbol that is not a field element spoils
only its own stripe. The sums are read back as big-endian lanes, reduced
mod p and packed to w bytes again. Only a map whose sums 8-byte lanes
cannot hold (no field ``make_params`` picks has one) runs
``linalg.matmul``, the reference the kernel is checked against.

A map runs over runs of at most ``_CHUNK`` (16 KiB) of each slab, so its
working set stays in the cache. A run costs a Python step per row, input
and set bit whatever its length, so ``apply_groups`` lays the row groups
of one map (the decoder's and the systematic transform's message rows)
end to end. The kernel does not check its symbols: they enter as file
bytes, or through ``Cluster.store_stripes``, ``Decoder.reconstruct`` and
``Repairer.repair``, which refuse anything but field elements.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

from .linalg import _product_width, matmul

__all__ = ["SlabKernel"]

# The set bits of each byte value, as bit positions in a constant's low byte
# and in its high byte: ``_horner`` splits a constant into bytes.
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
        if self.width == 1:
            return bytes(symbols)  # a third of the time ``array`` takes
        a = array(self._format, symbols)
        if sys.byteorder == "little":
            a.byteswap()
        return a.tobytes()

    def unpack(self, slab: bytes) -> list:
        """The symbols of a slab as ints; the inverse of ``pack``."""
        return _lanes_of(self._format, slab).tolist()

    def apply(self, matrix: Sequence[Sequence[int]], slabs: Sequence[bytes]) -> list:
        """Output slab r is the sum over j of ``matrix[r][j] * slabs[j]``."""
        return self.apply_groups(matrix, [slabs])[0]

    def apply_groups(self, matrix: Sequence[Sequence[int]], groups: Sequence) -> list:
        """``[self.apply(matrix, g) for g in groups]``, bit for bit: the groups
        are cut into pieces of at most ``_CHUNK`` bytes and laid end to end,
        in order, in runs of at most ``_CHUNK`` bytes, one ``_run`` per run.
        Row r of the runs' outputs, end to end, is row r of every group in
        order, and is cut back by the groups' lengths. A group alone in its
        run is passed as it is, uncopied."""
        sizes, runs, used = [], [], _CHUNK  # the first piece opens a run
        for slabs in groups:
            size = _product_width(matrix, slabs)
            if size % self.width:
                raise ValueError(f"slabs of {size} bytes are not whole symbols")
            sizes.append(size)
            for lo in range(0, size, _CHUNK):
                n = min(size - lo, _CHUNK)
                if used + n > _CHUNK:
                    runs.append([])
                    used = 0
                runs[-1].append(slabs if n == size else [s[lo : lo + n] for s in slabs])
                used += n
        rows = [[] for _ in matrix]
        for run in runs:
            # Input j of the run is slab j of every piece, end to end.
            inputs = run[0] if len(run) == 1 else [b"".join(piece) for piece in zip(*run)]
            for row, out in zip(rows, self._run(matrix, inputs, len(inputs[0]))):
                row.append(out)
        rows = [b"".join(row) for row in rows]
        out, at = [], 0
        for size in sizes:
            out.append([row[at : at + size] for row in rows])
            at += size
        return out

    def _run(self, matrix, inputs: Sequence[bytes], size: int) -> list:
        """The output slabs of ``matrix`` over one run of ``size``-byte ``inputs``."""
        f = self.field
        if f.characteristic == 2:
            ints = [int.from_bytes(x, "big") for x in inputs]
            return [v.to_bytes(size, "big") for v in _horner(f.m, self._lanes(size), matrix, ints)]
        w, fmt, q = self.width, self._format, f.q
        acc = _lane_width((q - 1) * ((1 << 8 * w) - 1) * len(inputs))
        if acc is None:
            rows = matmul(f, matrix, [self.unpack(x) for x in inputs])
            return [self.pack(row) for row in rows]
        # Widen every input at once: symbol lane i goes to the low bytes of
        # accumulation lane i, the other bytes stay 0.
        step = acc // w  # symbol lanes per accumulation lane, at least 2
        wide = size * step
        lanes = bytearray(wide * len(inputs))
        memoryview(lanes).cast(fmt)[step - 1 :: step] = memoryview(b"".join(inputs)).cast(fmt)
        ints = [int.from_bytes(lanes[i : i + wide], "big") for i in range(0, len(lanes), wide)]
        # Narrow row by row, so that only one row's lane sums exist as ints.
        rows = (v.to_bytes(wide, "big") for v in _multiply_add(matrix, ints))
        return [self.pack([s % q for s in _lanes_of(_FORMATS[acc], row)]) for row in rows]

    def _lanes(self, size: int) -> tuple:
        """The GF(2^m) lane masks of a ``size``-byte slab, built once per length."""
        masks = self._masks.get(size)
        if masks is None:
            masks = self._masks[size] = _lane_masks(self.field, size // self.width, self.width)
        return masks
