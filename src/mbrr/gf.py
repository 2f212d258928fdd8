"""Finite-field arithmetic underlying the coding core.

Two field kinds cover every supported parameter set:

* ``BinaryField`` -- GF(2^m) for 1 <= m <= 16, the default. Elements are
  integers in [0, 2^m) whose bits are the coefficients of a polynomial over
  GF(2); addition is XOR.
* ``PrimeField`` -- GF(p) for an odd prime p. Required whenever the
  nodes-per-rack count u is even: u must divide the multiplicative group
  order q - 1, and 2^m - 1 is always odd, so an even u can never be served
  by a binary field.

Both kinds precompute logarithm/antilogarithm tables over the cyclic
multiplicative group, so multiplication and powering are table lookups at
run time. One routine, ``_cyclic_tables``, builds and proves them for both:
it walks the powers of a generator from 1 and fails if a power repeats or
the walk does not close at 1 after q - 1 steps. A prime field takes the
first g in 2..p-1 whose walk closes, its smallest primitive root. The
antilog table is stored twice over so that the sum of two logarithms
indexes it without a reduction. ``log[0]`` is ``None``; any accidental use
of the logarithm of zero fails immediately instead of producing a silently
wrong value.

Each GF(2^m) has one reduction polynomial, ``PRIMITIVE_POLYS[m]``, in
bitmask form (degree m):

    m : polynomial        m : polynomial
    1 : 0x3               9 : 0x211
    2 : 0x7              10 : 0x409
    3 : 0xB              11 : 0x805
    4 : 0x13             12 : 0x1053
    5 : 0x25             13 : 0x201B
    6 : 0x43             14 : 0x4443
    7 : 0x89             15 : 0x8003
    8 : 0x11D            16 : 0x1100B

Each polynomial is primitive: x (value 0x2) generates the full
multiplicative group. A binary field's walk over the powers of x is the
check on the table: it refuses a polynomial whose walk fails as not primitive.

Fields are immutable after construction and safe to share across threads.
The ``add``/``sub``/``neg`` attributes are plain callables chosen per field
kind (XOR for binary fields); they do not range-check their operands, which
keeps inner loops fast. Symbols are validated where they enter the system
(``layout.fill_message_matrix``, ``systematic.systematic_encode``,
``systematic.systematic_message_matrix``, ``cluster.Cluster.store_data``,
``cluster.Cluster.store_stripes``, ``reconstruct.Decoder.reconstruct``,
``reconstruct.oracle_reconstruct`` and ``repair.Repairer.repair``; shard
files frame only GF(2^8) and GF(2^16), whose bytes are always symbols); the
``mul``/``inv``/``pow`` methods check their own operands. The slab
kernel frames a symbol of any field below 2**64 in 1, 2, 4 or 8 bytes.
"""

from __future__ import annotations

import operator
from math import isqrt

__all__ = [
    "PRIMITIVE_POLYS",
    "Field",
    "BinaryField",
    "PrimeField",
    "binary_field",
    "binary_field_for",
    "prime_field",
    "prime_field_for",
    "tables_consistent",
]

PRIMITIVE_POLYS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


def _identity(a: int) -> int:
    return a


class Field:
    """Table-driven arithmetic over a field whose unit group is cyclic.

    Subclasses populate ``q``, ``characteristic``, the ``exp``/``log``
    tables, and the additive callables ``add``, ``sub`` and ``neg``.
    """

    q: int
    characteristic: int
    exp: list
    log: list

    def mul(self, a: int, b: int) -> int:
        """Product of two field elements."""
        if not (0 <= a < self.q and 0 <= b < self.q):
            raise ValueError(f"operands {a!r}, {b!r} outside {self}")
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        if not 0 <= a < self.q:
            raise ValueError(f"operand {a!r} outside {self}")
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp[self.q - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        """Integer power a**e; negative e requires a nonzero base."""
        if not 0 <= a < self.q:
            raise ValueError(f"operand {a!r} outside {self}")
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def primitive_element(self) -> int:
        """Canonical generator of the multiplicative group."""
        return self.exp[1]

    def element_of_order(self, u: int) -> int:
        """Element of multiplicative order exactly ``u``.

        ``u`` must divide the group order q - 1; the result is the canonical
        generator raised to (q - 1) / u.
        """
        if u < 1:
            raise ValueError(f"order u={u} must be positive")
        qm1 = self.q - 1
        if qm1 % u:
            raise ValueError(
                f"no element of order {u} in {self}: {u} does not divide q-1={qm1}"
            )
        return self.exp[qm1 // u]


def _cyclic_tables(q: int, step) -> tuple | None:
    """(exp, log) over GF(q)'s unit group, walking the powers of a generator
    from 1, where ``step(x)`` multiplies x by it; exp is written twice over
    and ``log[0]`` stays None. None if a power repeats or the walk does not
    close at 1 after q - 1 steps: the generator is not primitive."""
    qm1 = q - 1
    exp = [0] * (2 * qm1)
    log: list = [None] * q
    x = 1
    for i in range(qm1):
        if log[x] is not None:
            return None
        exp[i] = exp[i + qm1] = x
        log[x] = i
        x = step(x)
    # No repeat among q-1 values, and a zero would repeat or leave x at 0,
    # so x returning to 1 means every nonzero element was reached.
    return (exp, log) if x == 1 else None


class BinaryField(Field):
    """GF(2^m) under its primitive reduction polynomial ``PRIMITIVE_POLYS[m]``."""

    __slots__ = ("m", "primitive_poly", "q", "characteristic", "exp", "log", "add", "sub", "neg")

    def __init__(self, m: int):
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"extension degree m={m!r} is not an integer")
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree m={m!r} outside the supported range [1, 16]")
        poly = PRIMITIVE_POLYS[m]
        q = 1 << m
        # Multiplying by x shifts left and reduces when the top bit carries.
        tables = _cyclic_tables(q, lambda x: (x << 1) ^ (poly if x >> (m - 1) else 0))
        if tables is None:
            raise ValueError(f"0x{poly:X} is not primitive over GF(2^{m})")
        exp, log = tables
        self.m = m
        self.primitive_poly = poly
        self.q = q
        self.characteristic = 2
        self.exp = exp
        self.log = log
        # Characteristic 2: addition and subtraction are XOR, negation is a no-op.
        self.add = operator.xor
        self.sub = operator.xor
        self.neg = _identity

    def __repr__(self):
        return f"GF(2^{self.m})"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


class PrimeField(Field):
    """GF(p) for an odd prime p, with the same table layout as BinaryField."""

    __slots__ = ("p", "q", "characteristic", "exp", "log", "add", "sub", "neg")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or not _is_prime(p):
            raise ValueError(f"p={p!r} is not an odd prime (use binary_field for GF(2))")
        # The first g whose walk closes is the smallest primitive root.
        exp, log = next(
            t for g in range(2, p) if (t := _cyclic_tables(p, lambda x: x * g % p))
        )
        self.p = p
        self.q = p
        self.characteristic = p
        self.exp = exp
        self.log = log

        def add(a, b, _p=p):
            return (a + b) % _p

        def sub(a, b, _p=p):
            return (a - b) % _p

        def neg(a, _p=p):
            return (-a) % _p

        self.add = add
        self.sub = sub
        self.neg = neg

    def __repr__(self):
        return f"GF({self.p})"


_SHARED: dict = {}


# True == 1 and 13.0 == 13 as keys, so only a plain int may find a cached field.
def _shared(kind, key):
    f = _SHARED.get((kind, key)) if type(key) is int else None
    if f is None:
        f = _SHARED.setdefault((kind, key), kind(key))
    return f


def binary_field(m: int) -> BinaryField:
    """Shared GF(2^m) instance."""
    return _shared(BinaryField, m)


def binary_field_for(n: int, u: int, ms) -> BinaryField | None:
    """The first GF(2^m) with m in ``ms``, more than n elements and u | 2^m - 1,
    or None; a u below 2 fits every field."""
    m = next((m for m in ms if 2**m > n and (u < 2 or (2**m - 1) % u == 0)), None)
    return None if m is None else binary_field(m)


def prime_field(p: int) -> PrimeField:
    """Shared GF(p) instance."""
    return _shared(PrimeField, p)


def prime_field_for(min_exclusive: int, order_divisor: int) -> PrimeField:
    """Smallest prime field GF(p) with p > min_exclusive and order_divisor | p-1."""
    if order_divisor < 1:
        raise ValueError("order divisor must be positive")
    p = max(min_exclusive + 1, 3)
    limit = 1 << 22  # far beyond any sensible cluster size
    while p < limit:
        if (p - 1) % order_divisor == 0 and _is_prime(p):
            return prime_field(p)
        p += 1
    raise ValueError(
        f"no prime p with {order_divisor} | p-1 found above {min_exclusive}"
    )


def tables_consistent(exp, log, q: int) -> bool:
    """Recheck exp/log tables for internal consistency.

    Used by the self-test's fault-injection step: corrupting any table entry
    must make this return False.
    """
    qm1 = q - 1
    if len(exp) < 2 * qm1 or len(log) < q:
        return False
    if exp[0] != 1 or log[0] is not None:
        return False
    seen = set()
    for i in range(qm1):
        v = exp[i]
        if not isinstance(v, int) or not 0 < v < q or v in seen:
            return False
        if log[v] != i or exp[i + qm1] != v:
            return False
        seen.add(v)
    return len(seen) == qm1
