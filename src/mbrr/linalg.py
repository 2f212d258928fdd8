"""Polynomial and dense-matrix primitives over a finite field.

Polynomials are coefficient lists indexed by degree; trailing zeros are
allowed, so a list's length is a degree bound rather than the exact degree.
Matrices are row-major lists of lists. Everything here is pure: inputs are
never mutated and results are deterministic.

The work horses are ``BatchInterpolator``, which fixes a set of sample
points once and then interpolates many value vectors against them, and
``solve_linear``, plain Gauss-Jordan elimination with first-nonzero
pivoting that also accepts tall (overdetermined) systems; it is the one
elimination, run by both structure-blind oracles over generator rows
(``oracle_reconstruct``, ``systematic_message_matrix``). ``matmul`` is
the one generic matrix product and ``dot`` the one inner product
(``mat_vec`` applies it to each row); the per-stripe paths do their field
products through them. ``matmul`` runs the per-stripe ``encode``, builds
the maps (every interpolation against a ``BatchInterpolator``'s basis, the
decoder's transfer, the systematic solve), and is the reference both slab
kernels are checked against. The kernels run no map through it, except a
GF(p) row too long for their packed lanes.
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

    Construction builds the Lagrange basis once: row i holds the
    coefficients of point i's basis polynomial, the master polynomial
    prod(x - x_j) divided by (x - x_i) and scaled to 1 at x_i. Every query
    is then a product against that basis: ``interpolate`` is a one-row
    ``matmul`` and ``matrix`` its transpose. Reusing one instance across
    many stripes pays for the basis once.
    """

    __slots__ = ("field", "points", "t", "_basis")

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

        basis = []
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
            # The numerator at x_i is nonzero because the points are distinct.
            scale = qm1 - log[poly_eval(field, num, x)]
            basis.append([c and exp[log[c] + scale] for c in num])

        self.field = field
        self.points = tuple(points)
        self.t = t
        self._basis = basis

    def interpolate(self, values: Sequence[int]) -> list:
        """Coefficients of the unique polynomial of degree < t through the points."""
        if len(values) != self.t:
            raise ValueError(f"expected {self.t} values, got {len(values)}")
        return matmul(self.field, [values], self._basis)[0]

    def matrix(self) -> list:
        """The t x t Lagrange matrix: ``interpolate(v)[j] == sum_i L[j][i] * v[i]``.

        Row j holds the degree-j coefficient of every basis polynomial;
        column i belongs to sample point i.
        """
        return [list(row) for row in zip(*self._basis)]


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


def _product_width(A: Sequence[Sequence], B: Sequence[Sequence]) -> int:
    """Row length of ``B``, once every row of ``A`` has one entry per row of ``B``."""
    cols = len(B[0]) if B else 0
    if len(set(map(len, B))) > 1:
        raise ValueError("right-hand rows differ in length")
    bad = set(map(len, A)) - {len(B)}
    if bad:
        raise ValueError(f"left-hand row has {bad.pop()} entries for {len(B)} right-hand rows")
    return cols


def matmul(field, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list:
    """Matrix product over the field, one whole row of ``B`` at a time.

    Row i of the result is the sum over t of ``A[i][t]`` times row t of
    ``B``. In GF(2^m) products are log/exp lookups and sums are XORs; in
    GF(p) both are plain integer arithmetic, reduced once per output row.
    The rows of ``B`` may be long, such as slabs holding one symbol of
    every stripe.
    """
    cols = _product_width(A, B)
    if not cols:  # nothing to sum, as in the decoder's symmetry transfer when dbar == kbar
        return [[] for _ in A]
    exp, log, q = field.exp, field.log, field.q
    binary = field.characteristic == 2
    out = []
    for Ai in A:
        acc = [0] * cols
        for a, Bt in zip(Ai, B):
            if a and binary:
                la = log[a]
                acc = [s ^ (v and exp[la + log[v]]) for s, v in zip(acc, Bt)]
            elif a:
                acc = [s + a * v for s, v in zip(acc, Bt)]
        out.append(acc if binary else [s % q for s in acc])
    return out


def mat_vec(field, A: Sequence[Sequence[int]], x: Sequence[int]) -> list:
    """Matrix-vector product over the field: ``dot`` of each row with ``x``."""
    return [dot(field, row, x) for row in A]


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
