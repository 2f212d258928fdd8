import random

import pytest

from mbrr.gf import binary_field, prime_field
from mbrr.linalg import (
    BatchInterpolator,
    SingularMatrixError,
    dot,
    mat_vec,
    matmul,
    poly_eval,
    solve_linear,
)

FIELDS = [binary_field(4), binary_field(8), binary_field(16), prime_field(11), prime_field(29)]


def distinct_points(f, t, rng):
    return rng.sample(range(f.q), t)


# ---------------------------------------------------------------- poly_eval


def test_poly_eval_basics():
    f = binary_field(4)
    assert poly_eval(f, [], 5) == 0
    assert poly_eval(f, [7], 9) == 7
    assert poly_eval(f, [7, 3, 1], 0) == 7  # constant term at x=0
    # 1 + x + x^2 at x=2 over GF(16): 1 ^ 2 ^ 4
    assert poly_eval(f, [1, 1, 1], 2) == 7


def test_poly_eval_matches_power_sum():
    rng = random.Random(11)
    for f in FIELDS:
        for _ in range(200):
            coeffs = [rng.randrange(f.q) for _ in range(rng.randrange(1, 8))]
            x = rng.randrange(f.q)
            want = 0
            for d, c in enumerate(coeffs):
                want = f.add(want, f.mul(c, f.pow(x, d)))
            assert poly_eval(f, coeffs, x) == want


# ---------------------------------------------------------------- interpolate


def test_interpolation_round_trip():
    """Sampling a random polynomial and interpolating returns its coefficients."""
    rng = random.Random(29)
    for f in FIELDS:
        for _ in range(300):
            t = rng.randrange(1, min(9, f.q))
            pts = distinct_points(f, t, rng)
            coeffs = [rng.randrange(f.q) for _ in range(t)]
            values = [poly_eval(f, coeffs, x) for x in pts]
            assert BatchInterpolator(f, pts).interpolate(values) == coeffs


def test_interpolator_reuse_matches_one_shot():
    rng = random.Random(3)
    for f in FIELDS:
        pts = distinct_points(f, 7, rng)
        bi = BatchInterpolator(f, pts)
        for _ in range(50):
            values = [rng.randrange(f.q) for _ in pts]
            assert bi.interpolate(values) == BatchInterpolator(f, pts).interpolate(values)


def test_lagrange_matrix_matches_interpolate():
    """matrix() times a value vector is interpolate(), in every field kind."""
    rng = random.Random(5)
    for f in FIELDS:
        for _ in range(30):
            t = rng.randrange(1, min(9, f.q))
            bi = BatchInterpolator(f, distinct_points(f, t, rng))
            L = bi.matrix()
            assert len(L) == t and all(len(row) == t for row in L)
            values = [rng.randrange(f.q) for _ in range(t)]
            assert mat_vec(f, L, values) == bi.interpolate(values)


def test_interpolation_rejects_bad_inputs():
    f = binary_field(4)
    with pytest.raises(ValueError, match="distinct"):
        BatchInterpolator(f, [3, 3, 5])
    with pytest.raises(ValueError):
        BatchInterpolator(f, [])
    bi = BatchInterpolator(f, [1, 2, 3])
    with pytest.raises(ValueError, match="3 values"):
        bi.interpolate([1, 2])
    with pytest.raises(ValueError):
        BatchInterpolator(f, [1, 2]).interpolate([5])


def test_vandermonde_solve_is_interpolation():
    rng = random.Random(17)
    for f in FIELDS:
        t = 4
        pts = distinct_points(f, t, rng)
        for _ in range(50):
            values = [rng.randrange(f.q) for _ in range(t)]
            coeffs = BatchInterpolator(f, pts).interpolate(values)
            assert [poly_eval(f, coeffs, x) for x in pts] == values
            V = [[f.pow(x, j) for j in range(t)] for x in pts]
            assert mat_vec(f, V, coeffs) == values


# ---------------------------------------------------------------- solve


def random_invertible(f, t, rng):
    # random triangular factors keep the determinant nonzero by construction
    lower = [[0] * t for _ in range(t)]
    upper = [[0] * t for _ in range(t)]
    for i in range(t):
        lower[i][i] = rng.randrange(1, f.q)
        upper[i][i] = rng.randrange(1, f.q)
        for j in range(i):
            lower[i][j] = rng.randrange(f.q)
            upper[j][i] = rng.randrange(f.q)
    return matmul(f, lower, upper)


def test_solve_linear_round_trip():
    rng = random.Random(23)
    for f in FIELDS:
        for _ in range(60):
            t = rng.randrange(1, 7)
            A = random_invertible(f, t, rng)
            x = [rng.randrange(f.q) for _ in range(t)]
            b = mat_vec(f, A, x)
            assert solve_linear(f, A, b) == x
            # Tall: extra equations, and dependent rows ahead of the basis.
            extra = [[rng.randrange(f.q) for _ in range(t)] for _ in range(2)]
            tall = [[0] * t, A[0]] + A + extra
            assert solve_linear(f, tall, mat_vec(f, tall, x)) == x


def test_solve_linear_tall_uses_first_independent_rows():
    f = binary_field(4)
    # Rows 0 and 1 disagree; the second pivot is row 0, the first row in the
    # original order that is independent of row 2, so row 1 is left over.
    assert solve_linear(f, [[0, 1], [0, 1], [1, 0]], [3, 4, 7]) == [7, 3]
    # Row 1 repeats row 0 and row 3 contradicts rows 0 and 2; the pivots
    # are rows 0 and 2, so the answer solves exactly those.
    A = [[1, 2], [1, 2], [0, 3], [1, 1]]
    x = solve_linear(f, A, [5, 5, 6, 0])
    assert mat_vec(f, A[:3], x) == [5, 5, 6]
    assert mat_vec(f, A[3:], x) != [0]


def test_solve_linear_singular():
    f = binary_field(4)
    with pytest.raises(SingularMatrixError):
        solve_linear(f, [[1, 2], [1, 2]], [3, 3])
    with pytest.raises(SingularMatrixError):
        solve_linear(f, [[0, 0], [0, 0]], [0, 0])
    # Tall but rank one: no second pivot anywhere.
    with pytest.raises(SingularMatrixError):
        solve_linear(f, [[1, 2], [2, 4], [3, 6], [0, 0]], [1, 2, 3, 0])


def test_solve_linear_shape_checks():
    f = binary_field(4)
    with pytest.raises(ValueError):
        solve_linear(f, [[1, 2]], [3])  # wide: fewer equations than unknowns
    with pytest.raises(ValueError):
        solve_linear(f, [[1, 2], [3, 4]], [1])
    with pytest.raises(ValueError):
        solve_linear(f, [[1, 2], [3, 4], [5, 6]], [1, 2])  # tall, short rhs
    with pytest.raises(ValueError):
        solve_linear(f, [[1, 2], [3], [5, 6]], [1, 2, 3])  # ragged
    with pytest.raises(ValueError):
        solve_linear(f, [], [])


def test_vandermonde_agrees_with_generic_solver():
    rng = random.Random(31)
    f = prime_field(29)
    pts = distinct_points(f, 5, rng)
    A = [[f.pow(x, j) for j in range(5)] for x in pts]
    for _ in range(30):
        b = [rng.randrange(f.q) for _ in range(5)]
        assert BatchInterpolator(f, pts).interpolate(b) == solve_linear(f, A, b)


# ---------------------------------------------------------------- matrices


def test_matmul_identity_and_shapes():
    f = binary_field(8)
    rng = random.Random(41)
    A = [[rng.randrange(f.q) for _ in range(4)] for _ in range(3)]
    I4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matmul(f, A, I4) == A
    assert matmul(f, I3, A) == A
    with pytest.raises(ValueError):
        matmul(f, A, A)  # 3x4 times 3x4 does not compose


def test_matmul_associativity_sample():
    f = prime_field(11)
    rng = random.Random(43)
    A = [[rng.randrange(f.q) for _ in range(3)] for _ in range(2)]
    B = [[rng.randrange(f.q) for _ in range(4)] for _ in range(3)]
    C = [[rng.randrange(f.q) for _ in range(2)] for _ in range(4)]
    assert matmul(f, matmul(f, A, B), C) == matmul(f, A, matmul(f, B, C))


def test_dot_and_mat_vec():
    f = binary_field(4)
    assert dot(f, [1, 2, 3], [3, 0, 1]) == f.add(f.mul(1, 3), f.mul(3, 1))
    A = [[1, 0], [0, 1], [2, 3]]
    assert mat_vec(f, A, [5, 7]) == [5, 7, f.add(f.mul(2, 5), f.mul(3, 7))]
    with pytest.raises(ValueError):
        dot(f, [1, 2], [1])
