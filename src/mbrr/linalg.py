"""Polynomial and dense-matrix primitives over a finite field.

Polynomials are coefficient lists indexed by degree; trailing zeros are
allowed, so a list's length is a degree bound rather than the exact degree.
Matrices are row-major lists of lists. Everything here is pure: inputs are
never mutated and results are deterministic.

The work horses are ``BatchInterpolator``, which fixes a set of sample
points once and then interpolates many value vectors against them, and
``solve_linear``, plain Gauss-Jordan elimination with first-nonzero
pivoting that also accepts tall (overdetermined) systems. ``matmul``,
``mat_vec`` and ``dot`` are the generic products the fast paths are
checked against.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "SingularMatrixError",
    "poly_eval",
    "BatchInterpolator",
    "solve_linear",
    "matmul",
    "mat_vec",
    "dot",
]


class SingularMatrixError(ValueError):
    """System has no unique solution: some column has no nonzero pivot."""


def poly_eval(field, coeffs: Sequence[int], x: int) -> int:
    """Evaluate a coefficient list at ``x`` by Horner's rule."""
    if not coeffs:
        return 0
    if x == 0:
        return coeffs[0]
    exp, log, add = field.exp, field.log, field.add
    logx = log[x]
    acc = 0
    for c in reversed(coeffs):
        if acc:
            acc = exp[log[acc] + logx]
        if c:
            acc = add(acc, c)
    return acc


class BatchInterpolator:
    """Lagrange interpolation against a fixed set of distinct sample points.

    Construction precomputes the master polynomial prod(x - x_i), each
    per-point numerator (master divided by its linear factor) and the
    matching denominator, all as logarithms. ``interpolate`` then costs
    O(t^2) table lookups per value vector with no per-call setup, which is
    what makes reusing one instance across many stripes cheap.
    """

    __slots__ = ("field", "points", "t", "_lognums", "_scale", "_qm1")

    def __init__(self, field, points: Sequence[int]):
        t = len(points)
        if t == 0:
            raise ValueError("at least one sample point required")
        if len(set(points)) != t:
            raise ValueError("sample points must be pairwise distinct")
        exp, log, add, neg = field.exp, field.log, field.add, field.neg
        qm1 = field.q - 1

        # Master polynomial prod(x - x_i), built incrementally.
        root = [1]
        for x in points:
            root.insert(0, 0)
            nx = neg(x)
            if nx:
                lnx = log[nx]
                for j in range(len(root) - 1):
                    hi = root[j + 1]
                    if hi:
                        root[j] = add(root[j], exp[lnx + log[hi]])

        lognums = []
        scale = []
        for x in points:
            # Synthetic division of the master polynomial by (x - x_i).
            num = [0] * t
            num[t - 1] = root[t]
            if x:
                lx = log[x]
                for j in range(t - 1, 0, -1):
                    v = root[j]
                    nj = num[j]
                    if nj:
                        v = add(v, exp[lx + log[nj]])
                    num[j - 1] = v
            else:
                for j in range(t - 1, 0, -1):
                    num[j - 1] = root[j]
            d = poly_eval(field, num, x)
            # d is nonzero because the points are distinct.
            scale.append(qm1 - log[d])
            lognums.append([log[c] if c else None for c in num])

        self.field = field
        self.points = tuple(points)
        self.t = t
        self._lognums = lognums
        self._scale = scale
        self._qm1 = qm1

    def interpolate(self, values: Sequence[int]) -> list:
        """Coefficients of the unique polynomial of degree < t through the points."""
        if len(values) != self.t:
            raise ValueError(f"expected {self.t} values, got {len(values)}")
        field = self.field
        exp, log, add = field.exp, field.log, field.add
        qm1 = self._qm1
        out = [0] * self.t
        for i, y in enumerate(values):
            if y:
                f = (log[y] + self._scale[i]) % qm1
                for j, ln in enumerate(self._lognums[i]):
                    if ln is not None:
                        out[j] = add(out[j], exp[ln + f])
        return out

    def matrix(self) -> list:
        """The t x t Lagrange matrix: ``interpolate(v)[j] == sum_i L[j][i] * v[i]``.

        Row j holds the degree-j coefficient of every basis polynomial;
        column i belongs to sample point i.
        """
        exp = self.field.exp
        out = [[0] * self.t for _ in range(self.t)]
        for i, (lognum, s) in enumerate(zip(self._lognums, self._scale)):
            for j, ln in enumerate(lognum):
                if ln is not None:
                    out[j][i] = exp[ln + s]
        return out

    def leading_coefficient(self, values: Sequence[int]) -> int:
        """Degree-(t-1) coefficient of the interpolant, without the other terms.

        The numerators are monic, so the leading coefficient is just the sum
        of values scaled by the inverse denominators.
        """
        if len(values) != self.t:
            raise ValueError(f"expected {self.t} values, got {len(values)}")
        field = self.field
        exp, log, add = field.exp, field.log, field.add
        acc = 0
        for i, y in enumerate(values):
            if y:
                acc = add(acc, exp[log[y] + self._scale[i]])
        return acc


def solve_linear(field, A: Sequence[Sequence[int]], b: Sequence[int]) -> list:
    """Solve A x = b for n unknowns from m >= n equations by Gauss-Jordan elimination.

    Pivots are taken from the first row, in the original order, that still
    has a nonzero entry in the current column, so a tall system is solved on
    its first n linearly independent rows. Rows beyond those are reduced but
    not checked against the solution; callers that need consistency verify
    it themselves.
    """
    m = len(A)
    if m == 0 or not A[0]:
        raise ValueError("empty system")
    n = len(A[0])
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    if m < n:
        raise ValueError(f"{m} equations cannot determine {n} unknowns")
    if len(b) != m:
        raise ValueError(f"right-hand side has length {len(b)}, expected {m}")
    exp, log, sub = field.exp, field.log, field.sub
    qm1 = field.q - 1
    aug = [list(row) + [y] for row, y in zip(A, b)]
    for col in range(n):
        piv = None
        for r in range(col, m):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularMatrixError(f"no pivot available in column {col}")
        # Move the pivot up without reordering the rows still unused.
        prow = aug.pop(piv)
        aug.insert(col, prow)
        scale = qm1 - log[prow[col]]
        for j in range(col, n + 1):
            v = prow[j]
            if v:
                prow[j] = exp[log[v] + scale]
        for r in range(m):
            if r != col:
                f = aug[r][col]
                if f:
                    lf = log[f]
                    rrow = aug[r]
                    for j in range(col, n + 1):
                        v = prow[j]
                        if v:
                            rrow[j] = sub(rrow[j], exp[lf + log[v]])
    return [aug[i][n] for i in range(n)]


def matmul(field, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list:
    """Matrix product over the field."""
    if not A or not B:
        raise ValueError("empty operand")
    inner = len(B)
    if any(len(row) != inner for row in A):
        raise ValueError("inner dimensions do not match")
    cols = len(B[0])
    if any(len(row) != cols for row in B):
        raise ValueError("ragged right-hand matrix")
    exp, log, add = field.exp, field.log, field.add
    out = [[0] * cols for _ in range(len(A))]
    for i, Ai in enumerate(A):
        Oi = out[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                la = log[a]
                Bt = B[t]
                for j in range(cols):
                    v = Bt[j]
                    if v:
                        Oi[j] = add(Oi[j], exp[la + log[v]])
    return out


def mat_vec(field, A: Sequence[Sequence[int]], x: Sequence[int]) -> list:
    """Matrix-vector product over the field."""
    exp, log, add = field.exp, field.log, field.add
    out = []
    for row in A:
        if len(row) != len(x):
            raise ValueError("vector length does not match matrix width")
        acc = 0
        for a, v in zip(row, x):
            if a and v:
                acc = add(acc, exp[log[a] + log[v]])
        out.append(acc)
    return out


def dot(field, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Inner product of two equal-length vectors."""
    if len(xs) != len(ys):
        raise ValueError("vectors differ in length")
    exp, log, add = field.exp, field.log, field.add
    acc = 0
    for a, b in zip(xs, ys):
        if a and b:
            acc = add(acc, exp[log[a] + log[b]])
    return acc
