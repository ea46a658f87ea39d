"""Sparse multivectors: elements of an exterior algebra over a fixed basis.

A :class:`Multivector` of ambient dimension ``dim`` is a finite linear
combination of basis blades ``e_I`` indexed by strictly increasing tuples
``I`` of indices in ``range(dim)``.  Coefficients may be exact
(:class:`fractions.Fraction`, ``int``) or floating point; arithmetic never
converts exact coefficients to floats on its own.  The linear maps
``pullback`` and ``pushforward`` are the exception: they are float routes
(one batched determinant per grade) and return float coefficients, exact
inputs included.

The same container serves three roles in this package: elements of a wedge
algebra of forms (``Λ V*``), elements of a wedge algebra of multivectors
(``Λ V``), and coefficient storage for Clifford algebra elements (where the
product is supplied by :mod:`purespin.clifford` rather than by ``wedge``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

Blade = tuple[int, ...]
Scalar = object  # Fraction | int | float

__all__ = ["Multivector", "merge_blades"]


@lru_cache(maxsize=None)
def _mask_blades(n: int) -> tuple[Blade, ...]:
    """The blade of every mask below 2^n, by mask: bit i is index i (a table: building the tuples
    dominates on su3).  The one blade ↔ mask table of the Clifford and spinor modules."""
    return tuple(tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n))


def _is_zero(c) -> bool:
    return c == 0


def merge_blades(I: Blade, J: Blade) -> tuple[int, Blade] | None:
    """Sign and index tuple of ``e_I ∧ e_J``; None if a repeated index kills it."""
    if not I:
        return 1, J
    if not J:
        return 1, I
    if set(I) & set(J):
        return None
    # Count inversions of the concatenation (merge-count; both halves sorted).
    sign = 1
    merged: list[int] = []
    i = j = 0
    li, lj = len(I), len(J)
    while i < li and j < lj:
        if I[i] < J[j]:
            merged.append(I[i])
            i += 1
        else:
            merged.append(J[j])
            # J[j] jumps over the remaining li - i elements of I
            if (li - i) % 2:
                sign = -sign
            j += 1
    merged.extend(I[i:])
    merged.extend(J[j:])
    return sign, tuple(merged)


class Multivector:
    """Graded element of an exterior algebra, stored sparsely."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Blade, Scalar] | None = None):
        self.dim = int(dim)
        clean: dict[Blade, Scalar] = {}
        if terms:
            for blade, coeff in terms.items():
                blade = tuple(blade)
                if any(blade[i] >= blade[i + 1] for i in range(len(blade) - 1)):
                    raise ValueError(f"blade indices must be strictly increasing: {blade}")
                if blade and (blade[0] < 0 or blade[-1] >= self.dim):
                    raise ValueError(f"blade {blade} out of range for dim {self.dim}")
                if not _is_zero(coeff):
                    clean[blade] = coeff
        self.terms = clean

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim, {})

    @classmethod
    def scalar(cls, dim: int, value: Scalar = 1) -> "Multivector":
        return cls(dim, {(): value})

    @classmethod
    def from_vector(cls, coeffs: Sequence[Scalar]) -> "Multivector":
        coeffs = list(coeffs)
        return cls(len(coeffs), {(i,): c for i, c in enumerate(coeffs) if not _is_zero(c)})

    @classmethod
    def from_antisymmetric_matrix(cls, m) -> "Multivector":
        """Two-form Σ_{i<j} m[i,j] e_i ∧ e_j from an antisymmetric matrix."""
        m = np.asarray(m)
        n = m.shape[0]
        terms = {}
        for i in range(n):
            for j in range(i + 1, n):
                if not _is_zero(m[i, j]):
                    terms[(i, j)] = float(m[i, j]) if isinstance(m[i, j], np.floating) else m[i, j]
        return cls(n, terms)

    @classmethod
    def top(cls, dim: int, value: Scalar = 1) -> "Multivector":
        return cls(dim, {tuple(range(dim)): value})

    # ------------------------------------------------------------------ #
    # basic structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, blade: Iterable[int]) -> Scalar:
        return self.terms.get(tuple(blade), 0)

    def grade(self, k: int) -> "Multivector":
        return Multivector(self.dim, {b: c for b, c in self.terms.items() if len(b) == k})

    def scalar_part(self) -> Scalar:
        return self.terms.get((), 0)

    # ------------------------------------------------------------------ #
    # arithmetic

    def __add__(self, other: "Multivector") -> "Multivector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for b, c in other.terms.items():
            s = out.get(b, 0) + c
            if _is_zero(s):
                out.pop(b, None)
            else:
                out[b] = s
        res = Multivector.zero(self.dim)
        res.terms = out
        return res

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return self.map_coeff(lambda c: -c)

    def scale(self, a: Scalar) -> "Multivector":
        if _is_zero(a):
            return Multivector.zero(self.dim)
        return self.map_coeff(lambda c: a * c)

    __rmul__ = scale

    def map_coeff(self, f: Callable[[Scalar], Scalar]) -> "Multivector":
        res = Multivector.zero(self.dim)
        res.terms = {b: v for b, c in self.terms.items() if not _is_zero(v := f(c))}
        return res

    def wedge(self, other: "Multivector") -> "Multivector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict[Blade, Scalar] = {}
        for bi, ci in self.terms.items():
            for bj, cj in other.terms.items():
                merged = merge_blades(bi, bj)
                if merged is None:
                    continue
                sign, blade = merged
                s = out.get(blade, 0) + sign * ci * cj
                if _is_zero(s):
                    out.pop(blade, None)
                else:
                    out[blade] = s
        res = Multivector.zero(self.dim)
        res.terms = out
        return res

    def exp_wedge(self) -> "Multivector":
        """Exterior exponential 1 + x + x∧x/2 + ...; requires no scalar part."""
        if () in self.terms:
            raise ValueError("exp_wedge requires vanishing scalar part")
        acc = Multivector.scalar(self.dim)
        term = Multivector.scalar(self.dim)
        k = 0
        while True:
            k += 1
            term = term.wedge(self)
            if not term:
                break
            acc = acc + term.scale(Fraction(1, math.factorial(k)))
            if k > self.dim:
                break
        return acc

    def contract(self, vector: Sequence[Scalar]) -> "Multivector":
        """Interior product ι(v) against the dual pairing of the fixed bases.

        ``vector`` holds the pairing coefficients of v against the basis that
        indexes this multivector: ι(v) e_I = Σ_p (-1)^p v[i_p] e_{I \\ i_p}.
        """
        out: dict[Blade, Scalar] = {}
        for blade, coeff in self.terms.items():
            for p, idx in enumerate(blade):
                v = vector[idx]
                if _is_zero(v):
                    continue
                sub = blade[:p] + blade[p + 1:]
                c = coeff * v if p % 2 == 0 else -(coeff * v)
                s = out.get(sub, 0) + c
                if _is_zero(s):
                    out.pop(sub, None)
                else:
                    out[sub] = s
        res = Multivector.zero(self.dim)
        res.terms = out
        return res

    # ------------------------------------------------------------------ #
    # linear maps

    def pullback(self, matrix) -> "Multivector":
        """Pullback A* of a form under the linear map with the given matrix.

        ``matrix`` has shape (dim_target, dim_source) mapping source
        coordinates to target coordinates; ``self`` lives over the target.
        Grade by grade through the compound matrix:
        (A*α)_J = Σ_I α_I det A[I, J] over |I| = |J| = k.  A float route.
        """
        m = np.asarray(matrix, dtype=float)
        if m.shape[0] != self.dim:
            raise ValueError("matrix target dimension does not match form")
        return _compound_apply(self, m)

    def pushforward(self, matrix) -> "Multivector":
        """Pushforward A_* of a wedge of vectors under the matrix (target x source).

        (A_*χ)_I = Σ_J χ_J det A[I, J]: the pullback formula applied to Aᵀ.
        """
        m = np.asarray(matrix, dtype=float)
        if m.shape[1] != self.dim:
            raise ValueError("matrix source dimension does not match multivector")
        return _compound_apply(self, m.T)

    # ------------------------------------------------------------------ #
    # evaluation and numerics

    def evaluate(self, vectors: Sequence[Sequence[float]]) -> float:
        """Value of a k-form on k coordinate vectors via minor determinants."""
        k = len(vectors)
        mat = np.asarray(vectors, dtype=float)
        total = 0.0
        for blade, coeff in self.terms.items():
            if len(blade) != k:
                continue
            if k == 0:
                total += float(coeff)
                continue
            total += float(coeff) * float(np.linalg.det(mat[:, list(blade)]))
        return total

    def norm(self) -> float:
        return math.sqrt(sum(float(c) ** 2 for c in self.terms.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "0"
        bits = []
        for blade in sorted(self.terms, key=lambda b: (len(b), b)):
            c = self.terms[blade]
            name = "1" if not blade else "e" + "".join(str(i) for i in blade)
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


def _compound_apply(x: Multivector, m: np.ndarray) -> Multivector:
    """Σ_I x_I det m[I, J] e_J over every k-subset J of the columns of m, per grade k.

    The grade-k part is x's coefficient row times the k-th compound matrix of
    m restricted to the blades I of x: one batched determinant of the stacked
    k×k submatrices m[I, J].  Grades above the column count vanish.
    """
    cols = m.shape[1]
    by_grade: dict[int, list[tuple[Blade, Scalar]]] = {}
    for blade, c in x.terms.items():
        by_grade.setdefault(len(blade), []).append((blade, c))
    out: dict[Blade, float] = {}
    for k, items in sorted(by_grade.items()):
        if k == 0:
            out[()] = float(items[0][1])
            continue
        if k > cols:
            continue
        rows = np.array([b for b, _ in items])
        coeffs = np.array([float(c) for _, c in items])
        targets = np.array(list(combinations(range(cols), k)))
        minors = np.linalg.det(m[rows[:, None, :, None], targets[None, :, None, :]])
        for blade, value in zip(map(tuple, targets.tolist()), (coeffs @ minors).tolist()):
            if value != 0:
                out[blade] = value
    res = Multivector.zero(cols)
    res.terms = out
    return res


def _scalar_str(c: Scalar) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    return repr(float(c))
