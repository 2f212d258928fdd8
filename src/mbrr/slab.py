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

Both kernels run a map on one core, over packed lanes: a slab read as one
integer holds its symbols in w-byte lanes, one lane per stripe. Over
GF(2^m) addition is XOR of those integers, and doubling every lane at once
is a masked shift that adds the reduction polynomial to the lanes whose
top bit overflowed (``_lane_masks``). ``_horner`` runs every map
bit-serial: for each output row, the inputs whose constant has bit b set
are XORed into a partial sum s_b, and Horner's rule over the bits from the
top, ``acc = 2 * acc + s_b``, gives the row. That is m doublings per row
and one XOR per set bit of each constant, with no preparation, so its cost
follows the rows and the set bits, not the inputs. The minimum-bandwidth
repair sends one symbol per helper rack (beta = 1), so its helper maps are
one row each, the shape this schedule suits best. No second schedule is
kept: the GF(2^16) windowed one and the GF(2^8) table multiply of Plank,
Greenan and Miller (FAST 2013) win only on slabs longer than any benchmark
workload's (the README has the measurements).

The kernels differ only in framing. ``SlabKernel`` reads GF(2^8) and
GF(2^16) byte slabs as big-endian integers, so a lane is a symbol in file
order, in runs of at most ``_CHUNK`` (16 KiB), so that what it holds stays
in the cache and its cost stays linear in the slab length; it keeps the
lane masks of each run length. A run costs a Python step per row, input
and set bit whatever its length, so ``apply_groups`` lays the row groups
of one map (the decoder's and the systematic transform's message rows)
end to end: a chunk may hold several. ``ListSlabKernel`` runs the same
maps on slabs that are lists of field ints, over any field, as the cluster
simulator keeps them: prime fields and GF(2^m) with m other than 8 and 16
have no byte framing. It packs a slab through ``array`` in native byte
order and reads the bytes as an integer in ``sys.byteorder``, so lane i
sits in the same bits on the way in and out on either endianness. Its
lanes are the narrowest of 1, 2, 4 and 8 bytes that hold the largest lane
value: q - 1 over GF(2^m) (one byte up to m = 8, two up to 16), and
(p-1)**2 times the input count over GF(p), where an output row is the
plain integer sum of ``c * x`` over the row's nonzero entries, reduced mod
p as it is unpacked. Only a GF(p) row too long for 8-byte lanes (no field
``make_params`` picks has one) runs ``linalg.matmul``, the reference the
kernels are checked against. A kernel packs each input once per apply
(per run): no map the program builds has an input that no row reads.
The kernels do not check their symbols: they enter as file bytes, or
through ``Cluster.store_stripes``, ``Decoder.reconstruct`` and
``Repairer.repair``, which refuse anything but field elements.
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
# and in its high byte: ``_horner`` splits a constant into bytes.
_LOW_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_HIGH_BITS = tuple(tuple(b + 8 for b in bits) for bits in _LOW_BITS)

# Bytes of each slab per run of ``SlabKernel``; see the module docstring.
_CHUNK = 16384

# (bytes, array format) of the lanes ``ListSlabKernel`` packs slabs in.
_LANES = tuple((array(fmt).itemsize, fmt) for fmt in "BHIQ")


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


def _lane_masks(field, lanes: int, width: int) -> tuple:
    """Masks that double every lane of ``lanes`` GF(2^m) symbols packed in
    ``width``-byte lanes. Every lane holds the same mask, so they are the
    same integer whichever byte order the lanes were read in.

    Doubling is ``((x & rest) << 1) ^ ((x & top) >> (m - 1)) * poly``:
    ``(x & top) >> (m - 1)`` is 0 or 1 per lane, so multiplying it by
    poly reduces exactly the lanes whose top bit overflowed.
    """
    m = field.m
    ones = int.from_bytes((1).to_bytes(width, "big") * lanes, "big")  # 1 in every lane
    return ones << m - 1, ones * ((1 << m - 1) - 1), field.primitive_poly ^ 1 << m


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
        return self.apply_groups(matrix, [slabs])[0]

    def apply_groups(self, matrix: Sequence[Sequence[int]], groups: Sequence) -> list:
        """``[self.apply(matrix, g) for g in groups]``, bit for bit: the groups
        are cut into pieces of at most ``_CHUNK`` bytes and laid end to end
        in runs of at most ``_CHUNK`` bytes, one ``_horner`` call per run,
        whose output rows are cut back into the pieces. A piece alone in its
        run is passed as it is, uncopied."""
        runs, used = [], _CHUNK  # the first piece opens a run
        for g, slabs in enumerate(groups):
            size = _product_width(matrix, slabs)
            if size % self.width:
                raise ValueError(f"slabs of {size} bytes are not whole symbols")
            for lo in range(0, size, _CHUNK):
                n = min(size - lo, _CHUNK)
                if used + n > _CHUNK:
                    runs.append([])
                    used = 0
                runs[-1].append((g, lo, n, used))  # piece at offset ``used`` of the run
                used += n
        parts = [[[] for _ in matrix] for _ in groups]
        for run in runs:
            size = run[-1][2] + run[-1][3]
            # Input j of the run is slab j of every piece, end to end.
            pieces = zip(*([s[lo : lo + n] for s in groups[g]] for g, lo, n, _ in run))
            inputs = [int.from_bytes(b"".join(piece), "big") for piece in pieces]
            for r, v in enumerate(_horner(self.field.m, self._lanes(size), matrix, inputs)):
                out = v.to_bytes(size, "big")
                for g, _, n, at in run:
                    parts[g][r].append(out[at : at + n])
        return [[b"".join(part) for part in group] for group in parts]

    def _lanes(self, size: int) -> tuple:
        """The lane masks of a ``size``-byte slab, built once per length."""
        masks = self._masks.get(size)
        if masks is None:
            masks = self._masks[size] = _lane_masks(self.field, size // self.width, self.width)
        return masks


class ListSlabKernel:
    """Applies matrices over any field to equal-length lists of field ints.

    A slab is a list with one symbol per stripe, so ``width`` is 1. A map
    runs on the packed-lane core both kernels share, framed in native byte
    order: ``_horner`` over GF(2^m), one multiply-add per entry over GF(p)
    (see the module docstring).
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

    def apply_groups(self, matrix: Sequence[Sequence[int]], groups: Sequence) -> list:
        """``[self.apply(matrix, g) for g in groups]``, group by group: the
        per-lane unpack (``% q`` over GF(p)) dominates a list apply, so laying
        groups end to end only adds copies (it made ``Cluster.read_data``
        over GF(13) at 1,000 lanes 8-10% slower)."""
        return [self.apply(matrix, g) for g in groups]

    def apply(self, matrix: Sequence[Sequence[int]], slabs: Sequence[list]) -> list:
        """Output slab r is the sum over j of ``matrix[r][j] * slabs[j]``."""
        f = self.field
        cols = _product_width(matrix, slabs)
        binary = f.characteristic == 2
        top = f.q - 1 if binary else (f.q - 1) ** 2 * len(slabs)  # the largest lane value
        lane = next(((w, fmt) for w, fmt in _LANES if top < 1 << 8 * w), None)
        if lane is None:
            return matmul(f, matrix, slabs)
        w, fmt = lane
        order = sys.byteorder
        inputs = [int.from_bytes(array(fmt, s).tobytes(), order) for s in slabs]
        if binary:
            rows = _horner(f.m, _lane_masks(f, cols, w), matrix, inputs)
        else:
            rows = []
            for row in matrix:
                acc = 0
                for c, x in zip(row, inputs):
                    if c:
                        acc += c * x
                rows.append(acc)
        q = f.q
        out = []
        for v in rows:
            lanes = memoryview(v.to_bytes(cols * w, order)).cast(fmt)
            out.append(lanes.tolist() if binary else [x % q for x in lanes])
        return out
