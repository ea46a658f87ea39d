"""Exact linear algebra over the rationals.

Small dense routines on ``list[list[Fraction]]`` matrices (int entries are
accepted too), used wherever the test contracts demand exactness (Clifford
relations, fixed-line dimensions, rank of the spinor representation).

Elimination is fraction-free, the standard route to exact rank (Bareiss
1968): each row is scaled by the least common multiple of its denominators to
a row of Python ints, and Gauss–Jordan runs on those rows, replacing row i by
p·row_i − f·row_r for pivot p and entry f.  Instead of Bareiss's division by
the previous pivot, each updated row is divided by the gcd of its entries,
which keeps the integers small and leaves rows with a zero in the pivot column
untouched.  Row scaling and these row operations leave the reduced row echelon
form unchanged, so ``rank`` reads the pivots without building any Fraction,
and ``rref``, ``nullspace`` and ``inverse`` divide by a pivot only for the
entries they return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

Mat = list[list[Fraction]]

__all__ = [
    "scale_to_integers",
    "identity",
    "mat_mul",
    "transpose",
    "rref",
    "rank",
    "nullspace",
    "inverse",
    "random_rational_orthogonal",
]


def scale_to_integers(values: Sequence) -> tuple[int, list[int]]:
    """(d, [d·v for v in values]): int/Fraction values over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _integer_rref(m: Mat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss–Jordan on row-scaled integer copies of the rows.

    Returns (a, pivots): row r < len(pivots) of the reduced row echelon form
    is a[r] / a[r][pivots[r]]; the remaining rows of a are zero.
    """
    a = [scale_to_integers(row)[1] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], prow)]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns."""
    a, pivots = _integer_rref(m)
    ncols = len(a[0]) if a else 0
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    red += [[Fraction(0)] * ncols for _ in range(len(a) - len(pivots))]
    return red, pivots


def rank(m: Mat) -> int:
    return len(_integer_rref(m)[1])


def nullspace(m: Mat) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a, pivots = _integer_rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = _integer_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[c]) for x in row[n:]] for row, c in zip(red, pivots)]


def random_rational_orthogonal(n: int, rng: np.random.Generator) -> Mat:
    """Exactly orthogonal rational matrix via the Cayley transform.

    A = (I - S)(I + S)^{-1} for a random skew matrix S with entries in
    {-1, -6/7, ..., 6/7, 1} lies in SO(n) and satisfies AᵀA = I exactly.  On a
    fair coin one column sign is then flipped, landing in the other component
    of O(n).
    """
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = Fraction(int(rng.integers(-7, 8)), 7)
            s[i][j] = val
            s[j][i] = -val
    eye = identity(n)
    i_minus = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    i_plus = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    a = mat_mul(i_minus, inverse(i_plus))
    if rng.integers(2):
        for row in a:
            row[0] = -row[0]
    return a
