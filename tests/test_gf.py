import random

import pytest

from mbrr.gf import (
    PRIMITIVE_POLYS,
    BinaryField,
    PrimeField,
    binary_field,
    binary_field_for,
    prime_field,
    prime_field_for,
    tables_consistent,
)


def xtimes(a, m, poly):
    """Multiply by x in GF(2)[x] mod poly, independent of the table code."""
    a <<= 1
    if a >> m:
        a ^= poly
    return a


# ---------------------------------------------------------------- tables


def test_exp_table_is_generated_by_x():
    """exp must walk the orbit of x and visit every nonzero element once.

    This re-derives the table with raw polynomial arithmetic, so a wrong
    table or a non-primitive polynomial cannot slip through.
    """
    for m, poly in PRIMITIVE_POLYS.items():
        f = binary_field(m)
        seen = set()
        a = 1
        for i in range(f.q - 1):
            assert f.exp[i] == a
            assert f.log[a] == i
            seen.add(a)
            a = xtimes(a, m, poly)
        assert a == 1  # orbit closes after exactly q-1 steps
        assert seen == set(range(1, f.q))


def test_exp_table_doubled_for_overflow_free_lookup():
    for m in (3, 8):
        f = binary_field(m)
        qm1 = f.q - 1
        assert len(f.exp) >= 2 * qm1
        for i in range(qm1):
            assert f.exp[i] == f.exp[i + qm1]


def test_reduction_anchor():
    # x^m reduces to the low bits of the polynomial
    for m in range(2, 17):
        f = binary_field(m)
        assert f.exp[m] == PRIMITIVE_POLYS[m] ^ (1 << m)


def test_log_of_zero_is_unset():
    f = binary_field(4)
    assert f.log[0] is None


def test_non_primitive_polynomial_rejected(monkeypatch):
    """The walk over the powers of x is the check on ``PRIMITIVE_POLYS``: a
    table entry that is not primitive is refused."""
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    monkeypatch.setitem(PRIMITIVE_POLYS, 4, 0x1F)
    with pytest.raises(ValueError, match="not primitive"):
        BinaryField(4)
    # x^4 + x^2 + 1 is reducible; the orbit revisits elements early
    monkeypatch.setitem(PRIMITIVE_POLYS, 4, 0x15)
    with pytest.raises(ValueError, match="not primitive"):
        BinaryField(4)
    # x^4 has a zero constant term; the orbit reaches zero
    monkeypatch.setitem(PRIMITIVE_POLYS, 4, 0x10)
    with pytest.raises(ValueError, match="not primitive"):
        BinaryField(4)
    # x^8 + x^4 + x^3 + x + 1 is irreducible but its root has order 51
    monkeypatch.setitem(PRIMITIVE_POLYS, 8, 0x11B)
    with pytest.raises(ValueError, match="not primitive"):
        BinaryField(8)


def test_binary_field_for_takes_the_first_admissible_degree():
    """The first m of ``ms`` with 2^m > n and u | 2^m - 1, or None; a u
    below 2 fits every field."""
    assert binary_field_for(12, 3, (8, 16)) is binary_field(8)
    assert binary_field_for(12, 3, (16, 8)) is binary_field(16)
    assert binary_field_for(300, 3, (8, 16)) is binary_field(16)
    assert binary_field_for(12, 7, range(1, 17)) is binary_field(6)
    assert binary_field_for(12, 2, range(1, 17)) is None
    assert binary_field_for(2**16, 3, (8, 16)) is None
    assert binary_field_for(12, 1, (8, 16)) is binary_field(8)
    assert binary_field_for(12, 0, (8, 16)) is binary_field(8)


def test_extension_degree_must_be_a_plain_int():
    """A bool degree is refused, as ``make_params`` refuses a bool n, k, u or
    dbar, whether or not GF(2^1) is cached: ``True == 1`` as a cache key."""
    for m in (True, False, 8.0, "8"):
        with pytest.raises(ValueError, match="is not an integer"):
            BinaryField(m)
        with pytest.raises(ValueError, match="is not an integer"):
            binary_field(m)
    one = binary_field(1)
    with pytest.raises(ValueError, match="is not an integer"):
        binary_field(True)
    assert binary_field(1) is one and repr(one) == "GF(2^1)"
    for m in (0, 17):
        with pytest.raises(ValueError, match="outside the supported range"):
            binary_field(m)


def test_tables_consistent_detects_corruption():
    f = binary_field(8)
    assert tables_consistent(f.exp, f.log, f.q)
    exp = list(f.exp)
    exp[100] ^= 3
    assert not tables_consistent(exp, f.log, f.q)
    log = list(f.log)
    log[77] = (log[77] + 1) % (f.q - 1)
    assert not tables_consistent(f.exp, log, f.q)


# ---------------------------------------------------------------- axioms


def field_axioms_exhaustive(f):
    q = f.q
    for a in range(q):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, 0) == a
        assert f.sub(a, a) == 0
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_binary_field_axioms_exhaustive(m):
    field_axioms_exhaustive(binary_field(m))


@pytest.mark.parametrize("p", [3, 11, 29])
def test_prime_field_axioms_exhaustive(p):
    field_axioms_exhaustive(prime_field(p))


@pytest.mark.parametrize("m", [8, 16])
def test_binary_field_axioms_random(m):
    """10^5 random triples against the same laws the exhaustive pass checks."""
    f = binary_field(m)
    rng = random.Random(m * 1000 + 7)
    for _ in range(100_000):
        a = rng.randrange(f.q)
        b = rng.randrange(f.q)
        c = rng.randrange(f.q)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverses_exhaustive_small():
    for f in (binary_field(2), binary_field(4), prime_field(11)):
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1


def test_inverses_random_large():
    f = binary_field(16)
    rng = random.Random(5)
    for _ in range(10_000):
        a = rng.randrange(1, f.q)
        assert f.mul(a, f.inv(a)) == 1


def test_zero_division_raises():
    for f in (binary_field(8), prime_field(11)):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -2)


def test_pow_matches_repeated_multiplication():
    for f in (binary_field(4), prime_field(29)):
        for a in range(f.q):
            acc = 1
            for e in range(6):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)
    f = binary_field(8)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    # negative exponents invert
    for a in (1, 2, 77, 200):
        assert f.mul(f.pow(a, -3), f.pow(a, 3)) == 1


def test_operands_must_be_canonical():
    f = binary_field(4)
    with pytest.raises(ValueError):
        f.mul(16, 1)
    with pytest.raises(ValueError):
        f.mul(2, -1)
    # bool is an int subclass; True is accepted as the element 1
    assert f.add(True, 1) == 0


# ---------------------------------------------------------------- orders


def order_of(f, a):
    assert a != 0
    acc = a
    n = 1
    while acc != 1:
        acc = f.mul(acc, a)
        n += 1
    return n


def test_primitive_element_has_full_order():
    for f in (binary_field(4), binary_field(8), prime_field(11), prime_field(29)):
        assert order_of(f, f.primitive_element()) == f.q - 1


def test_element_of_order_is_exact():
    cases = {binary_field(4): [1, 3, 5, 15], prime_field(29): [1, 2, 4, 7, 14, 28]}
    for f, divisors in cases.items():
        for u in divisors:
            assert order_of(f, f.element_of_order(u)) == u


def test_element_of_order_requires_divisor():
    f = binary_field(4)  # group order 15: no elements of even order
    with pytest.raises(ValueError, match="does not divide"):
        f.element_of_order(2)
    with pytest.raises(ValueError):
        f.element_of_order(0)


# ---------------------------------------------------------------- primes


def test_prime_field_constructor_validates():
    with pytest.raises(ValueError):
        PrimeField(2)  # characteristic 2 lives in BinaryField
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_for_picks_smallest():
    assert prime_field_for(8, 2).q == 11
    assert prime_field_for(20, 4).q == 29
    assert prime_field_for(12, 2).q == 13
    f = prime_field_for(100, 10)
    assert f.q > 100 and (f.q - 1) % 10 == 0
    for candidate in range(101, f.q):
        is_prime = candidate > 1 and all(
            candidate % d for d in range(2, int(candidate**0.5) + 1)
        )
        assert not (is_prime and (candidate - 1) % 10 == 0)


def test_field_instances_are_shared():
    assert binary_field(8) is binary_field(8)
    assert prime_field(11) is prime_field(11)


def test_prime_field_order_must_be_a_plain_int():
    """``13.0 == 13`` and ``True == 1`` as cache keys, so neither may find a
    cached field: both are refused before and after GF(13) is cached."""
    for cached in (False, True):
        for p in (13.0, True):
            with pytest.raises(ValueError, match="is not an odd prime"):
                prime_field(p)
        if not cached:
            assert repr(prime_field(13)) == "GF(13)"


def smallest_primitive_root(p):
    """The smallest g of multiplicative order p - 1, by walking its powers."""
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x, order = x * g % p, order + 1
        if order == p - 1:
            return g


def test_prime_tables_are_powers_of_the_smallest_primitive_root():
    """For every prime below 2,000, 257 and 65537: exp walks the powers of
    the smallest primitive root, log inverts it, and the second half of exp
    repeats the first."""
    primes = [p for p in range(3, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for p in [*primes, 257, 65537]:
        f = PrimeField(p)  # uncached, so that the tables are freed
        g = smallest_primitive_root(p)
        assert f.exp[1] == f.primitive_element() == g, p
        assert f.exp[: p - 1] == [pow(g, i, p) for i in range(p - 1)], p
        assert f.exp[p - 1 :] == f.exp[: p - 1], p
        assert f.log[0] is None, p
        assert all(f.log[f.exp[i]] == i for i in range(p - 1)), p
