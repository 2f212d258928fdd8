"""Slab kernels: linear maps over whole shard rows, as bytes or as lists.

A slab holds one symbol position of every stripe. Row i of a shard whose
payload carries alpha symbols per stripe is symbols i, i + alpha,
i + 2*alpha, ... of that payload; symbol t of a file cut into B-symbol
stripes is symbols t, t + B, ... of the file. Slabs are ``bytes`` in file
byte order (big-endian for two-byte symbols), so cutting a buffer into
slabs and interleaving them back only moves whole symbols.

Every file operation of the code (encode, systematic encode, both
decoder passes, both repair stages) is a fixed GF(2^m)-linear map, so it
runs once over slabs instead of once per stripe. The systematic encode's
map is itself built with slabs, on B lanes, lane j standing for the unit
data vector e_j: ``systematic.precoding_matrix`` runs the systematic
transform's five slab steps once over B unit-lane slabs (lane j of slab j
is 1) and reads row r of the B x B precoding map out of output slab r with
``unpack``; ``systematic.systematic_encode_map`` packs those rows as
B-lane slabs and runs the encoding map over them for the cells that hold
no data symbol, so the file's data slabs go through one
(n*alpha - B) x B map. In the kernel:

* addition is XOR of the slabs read as integers (``int.from_bytes``);
* in GF(2^8), multiplying by a constant c is ``slab.translate(T_c)``
  with a 256-byte product table T_c, built the first time a map uses c.
  This is the table multiply of Plank, Greenan and Miller, "Screaming Fast
  Galois Field Arithmetic Using Intel SIMD Instructions" (FAST 2013), with
  a single table because a symbol is a single byte;
* in GF(2^16), a slab read as one big-endian integer holds its symbols
  in 16-bit lanes, and doubling every lane at once is a masked shift that
  adds the reduction polynomial to the lanes whose top bit overflowed.
  A slab's 16 doublings are taken once and grouped into eight 2-bit
  windows (0, x, 2x, 3x times 4**w), so c * slab is eight lookups and
  seven XORs of short integers. Per-constant tables would not pay off
  here: the geometries that need this field have large maps (10,484
  nonzero systematic-encode constants at (50,44,5,8)) whose constants are
  mostly used once per command, and per-symbol log/exp lookups scatter over
  tables of 65,536 entries.

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


class SlabKernel:
    """Applies GF(2^8) or GF(2^16) matrices to equal-length byte slabs.

    Product tables and lane masks are built per instance on first use, so
    a kernel lives as long as the plan that uses it.
    """

    def __init__(self, field):
        if getattr(field, "characteristic", None) != 2 or field.m not in (8, 16):
            raise ValueError(f"byte slabs need GF(2^8) or GF(2^16), not {field!r}")
        self.field = field
        self.width = field.m // 8  # bytes per symbol
        self._format = "B" if field.m == 8 else "H"
        self._tables: dict = {}  # GF(2^8) product table by constant
        self._masks: dict = {}  # GF(2^16) lane masks by slab length
        if field.m == 8:
            self._prepare, self._times = self._prepare8, self._times8
        else:
            self._prepare, self._times = self._prepare16, self._times16

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
        plain = [None] * len(slabs)  # each input slab as an int, for c == 1
        ready = [None] * len(slabs)  # each input slab as _times takes it
        out = []
        for row in matrix:
            acc = 0
            for j, c in enumerate(row):
                if c == 1:
                    v = plain[j]
                    if v is None:
                        v = plain[j] = int.from_bytes(slabs[j], "big")
                    acc ^= v
                elif c:
                    r = ready[j]
                    if r is None:
                        r = ready[j] = self._prepare(slabs[j])
                    acc ^= self._times(c, r)
            out.append(acc.to_bytes(size, "big"))
        return out

    # GF(2^8): a slab is multiplied as is, through a 256-byte table.

    def _prepare8(self, slab: bytes) -> bytes:
        return slab

    def _times8(self, c: int, slab: bytes) -> int:
        table = self._tables.get(c)
        if table is None:
            exp, log = self.field.exp, self.field.log
            lc = log[c]
            table = self._tables[c] = bytes(
                [0] + [exp[lc + log[x]] for x in range(1, 256)]
            )
        return int.from_bytes(slab.translate(table), "big")

    # GF(2^16): a slab is multiplied through its doublings, all lanes at once.

    def _prepare16(self, slab: bytes) -> list:
        masks = self._masks.get(len(slab))
        if masks is None:
            lanes = len(slab) // 2
            masks = self._masks[len(slab)] = (
                int.from_bytes(b"\x80\x00" * lanes, "big"),  # each lane's top bit
                int.from_bytes(b"\x7f\xff" * lanes, "big"),  # the other 15 bits
                self.field.primitive_poly ^ 0x10000,  # x**16 reduced
            )
        top, rest, poly = masks
        x = int.from_bytes(slab, "big")
        windows = []  # window w: 0, 1, 2, 3 times 4**w * slab
        for _ in range(8):
            # Double every lane; (x & top) >> 15 is 0 or 1 per lane, so
            # multiplying it by poly reduces exactly the overflowed lanes.
            x2 = ((x & rest) << 1) ^ ((x & top) >> 15) * poly
            windows.append((0, x, x2, x ^ x2))
            x = ((x2 & rest) << 1) ^ ((x2 & top) >> 15) * poly
        return windows

    def _times16(self, c: int, windows: list) -> int:
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
