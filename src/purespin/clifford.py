"""Clifford algebra engine over a bilinear space with a diagonal Gram matrix.

The defining relation used throughout is

    w1 w2 + w2 w1 = <w1, w2> 1,

so a generator squares to (1/2)<w, w>.  The literature is split on a factor
of two here; every formula downstream (Pin normalization, the idempotent
built from dual Lagrangian bases, the spinor actions) is written against
this relation and a conformance test pins it.

Products are computed on blade bit masks (bit i of a mask is generator i,
the table ``multivector._mask_blades``).  Over a diagonal Gram g a product of
two blades is one blade,

    e_I e_J = (-1)^s Π_{k ∈ I ∩ J} (g_kk / 2) e_{I △ J},

with s the number of pairs a ∈ I, b ∈ J with a > b: an XOR and a sign from
bit counts, the bitmap representation of Dorst, Fontijne and Mann, *Geometric
Algebra for Computer Science* (2007).  A non-diagonal Gram is refused; every
space a command, criterion or benchmark builds is diagonal.

Each product runs in its operands' own number type.  The blade factors are
memoized per pair of masks as integers over one common denominator D^dim,
D clearing every g_kk/2, with the floats they stand for.  With an exact Gram
and int/Fraction operands the product accumulates in Python ints, and one
Fraction is built per output blade.  Otherwise it runs on floats, with each
float factor rounded as the generator-word recursion (the tests' oracle)
rounds it, so float products are bit for bit those of the recursion.

The Clifford group acts on the spin module.  Over a split Gram (as many
positive entries as negative ones) W is isometric to V ⊕ V*, and the spin
representation ρ: Cl(W) → End(Λ V*) of ``spinor`` is an isomorphism, so
``group_action`` works on 2^n × 2^n matrices: it reads ρ(g) and ρ(α(g)) off a
table of ρ(e_I) over the blade masks, built on its first call, inverts ρ(g),
and reads each α(g) e_j g⁻¹ back by the trace pairing.  A Gram that is not
split is refused; the tests keep the regular representation, a 4^n × 4^n
solve, as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from . import exact
from .bilinear import DEFAULT_TOL, BilinearSpace
from .multivector import Blade, Multivector, Scalar, _mask_blades
from .spinor import rho_of_columns

HALF = Fraction(1, 2)

__all__ = [
    "CliffordAlgebra",
    "CliffordElement",
    "PinElement",
    "NotInCliffordGroup",
    "factor_into_reflections",
    "reflection_matrix",
    "projector_p",
]


class NotInCliffordGroup(ValueError):
    """Raised when an element fails a Clifford/Pin group membership requirement."""


class CliffordAlgebra:
    """Clifford algebra Cl(W) of a bilinear space with a diagonal Gram, with memoized blade products."""

    def __init__(self, space: BilinearSpace):
        gram = space.gram_exact
        if any(gram[i][j] != 0 for i in range(space.dim) for j in range(space.dim) if i != j):
            raise ValueError("the Clifford engine needs a diagonal Gram matrix")
        self.space = space
        self.dim = space.dim
        self._exact = space.is_exact()
        squares = [HALF * gram[k][k] for k in range(self.dim)]  # e_k² = g_kk/2
        # exact: D clears every e_k², the squares are kept as the integers D·e_k², and a blade
        # factor Π e_k² over m contractions is D^(dim - m)·Π D·e_k² over _den = D^dim
        self._root = math.lcm(*(f.denominator for f in squares)) if self._exact else 1
        self._squares = [int(f * self._root) for f in squares] if self._exact else squares
        self._den = self._root ** self.dim
        # mask_i << dim | mask_j -> (mask of e_I e_J, its factor over _den, that factor as a float)
        self._products: dict[int, tuple[int, int, float]] = {}
        self._masks = {b: m for m, b in enumerate(_mask_blades(self.dim))}
        self.blades: list[Blade] = [
            b for k in range(self.dim + 1) for b in combinations(range(self.dim), k)
        ]

    # -- elements -------------------------------------------------------- #

    def element(self, mv: Multivector) -> "CliffordElement":
        if mv.dim != self.dim:
            raise ValueError("dimension mismatch")
        return CliffordElement(self, mv)

    def scalar(self, c=1) -> "CliffordElement":
        return self.element(Multivector.scalar(self.dim, c))

    def vector(self, coeffs: Sequence) -> "CliffordElement":
        return self.element(Multivector.from_vector(coeffs))

    # -- core product ---------------------------------------------------- #

    def _blade_product(self, i: int, j: int) -> tuple[int, int, float]:
        """e_I e_J for the blades of masks i and j: (mask of I △ J, factor over ``_den``, float factor).

        The sign counts the pairs a ∈ I, b ∈ J with a > b, one bit count per shift.  The factor
        multiplies the squares e_k² over I ∩ J from the largest k down, the order in which the
        generator-word recursion contracts them, so float factors keep its rounding.
        """
        common = i & j
        factor = self._root ** (self.dim - common.bit_count())
        for k in reversed(range(common.bit_length())):
            if common >> k & 1:
                factor = self._squares[k] * factor
        swaps, shifted = 0, i >> 1
        while shifted:
            swaps += (shifted & j).bit_count()
            shifted >>= 1
        if swaps & 1:
            factor = -factor
        out = self._products[i << self.dim | j] = (i ^ j, factor, factor / self._den)
        return out

    def mul_masks(self, xs: dict[int, Scalar], ys: dict[int, Scalar], exact_ints: bool) -> dict:
        """The product of two elements given as {blade mask: coefficient}.

        With ``exact_ints`` the coefficients are ints and so is the product, over ``_den``
        (bilinear: integer operands over any common scale compare exactly); otherwise the
        coefficients are floats.  Pairs run in operand order and a vanishing sum drops its blade.
        """
        out: dict[int, Scalar] = {}
        shift, products = self.dim, self._products
        for i, a in xs.items():
            for j, b in ys.items():
                m, k, f = products.get(i << shift | j) or self._blade_product(i, j)
                s = out.get(m, 0) + a * b * (k if exact_ints else f)
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return out

    def mul(self, x: Multivector, y: Multivector) -> Multivector:
        exact_ints = self._exact and _is_exact(x) and _is_exact(y)
        if exact_ints:
            (dx, xs), (dy, ys) = (exact.scale_to_integers(z.terms.values()) for z in (x, y))
        else:
            xs, ys = ([float(c) for c in z.terms.values()] for z in (x, y))
        masks, table = self._masks, _mask_blades(self.dim)
        out = self.mul_masks(dict(zip(map(masks.get, x.terms), xs)),
                             dict(zip(map(masks.get, y.terms), ys)), exact_ints)
        res = Multivector.zero(self.dim)
        if exact_ints:
            den = dx * dy * self._den
            res.terms = {table[m]: Fraction(v, den) for m, v in out.items()}
        else:
            res.terms = {table[m]: v for m, v in out.items()}
        return res

    def transpose(self, x: Multivector) -> Multivector:
        """Canonical anti-automorphism, reversing each generator word: (−1)^{k(k−1)/2} on grade k."""
        res = Multivector.zero(self.dim)
        res.terms = {b: -c if len(b) % 4 > 1 else c for b, c in x.terms.items()}
        return res

    # -- Clifford and Pin groups on the spin module ---------------------- #

    @cached_property
    def _spin_table(self) -> tuple[np.ndarray, np.ndarray]:
        """ρ(e_I) on Λ V* for every blade mask I (shape (4^n, 2^n, 2^n)), and tr(ρ(e_I)²) for each.

        A split Gram (as many positive entries as negative ones) makes W isometric to V ⊕ V*:
        the i-th generator of each sign goes to √|g_kk|(e_i ± ½e^i), so ρ(e_k)² = g_kk/2 = e_k²
        and ρ extends to an isomorphism Cl(W) → End(Λ V*).  Built on the first call.
        """
        diag = np.diag(self.space.gram)
        pos, neg = np.flatnonzero(diag > 0), np.flatnonzero(diag < 0)
        n = len(pos)
        if len(neg) != n or 2 * n != self.dim:
            raise ValueError("the spin module needs a split Gram: as many positive as negative entries")
        ws = np.zeros((2 * n, self.dim))
        for half, idx in ((0.5, pos), (-0.5, neg)):
            root = np.sqrt(np.abs(diag[idx]))
            ws[np.arange(n), idx] = root
            ws[n + np.arange(n), idx] = half * root
        size = 1 << n
        gens = rho_of_columns(ws, np.eye(size)).transpose(0, 2, 1)  # ρ(e_k)
        table = np.empty((1 << self.dim, size, size))
        table[0] = np.eye(size)
        for k in range(self.dim):  # e_I = e_{I \ k} e_k for k the largest index of I
            table[1 << k:2 << k] = table[:1 << k] @ gens[k]
        return table, np.einsum("iab,iba->i", table, table)

    def group_action(self, g: Multivector) -> tuple[bool, np.ndarray]:
        """Membership in the Clifford group and the induced matrix on W, on the spin module.

        Returns (is_member, A) where A has columns α(g) e_j g^{-1}, α the grading
        automorphism; membership requires every column to be a pure vector, which
        forces A ∈ O(W).  With G = ρ(g), each column is read off α(G) ρ(e_j) G⁻¹ by
        the trace pairing: tr(ρ(e_I) ρ(e_J)) vanishes unless I = J.  A Gram that is
        not split is refused.
        """
        table, squares = self._spin_table
        coeffs = np.zeros(len(table))
        coeffs[[self._masks[b] for b in g.terms]] = [float(c) for c in g.terms.values()]
        big = np.tensordot(coeffs, table, 1)
        odd = np.bitwise_count(np.arange(len(table))) & 1
        twisted = np.tensordot(np.where(odd, -coeffs, coeffs), table, 1)  # ρ(α(g))
        try:
            inv = np.linalg.inv(big)
        except np.linalg.LinAlgError as err:
            raise NotInCliffordGroup("element is not invertible") from err
        res = np.linalg.norm(big @ inv - np.eye(len(big)))
        if not res <= 1e-6:  # a NaN residual too
            raise NotInCliffordGroup(f"element is not invertible (residual {res:.2e})")
        vectors = 1 << np.arange(self.dim)
        ys = twisted @ table[vectors] @ inv
        # row j: the coefficients of α(g) e_j g^{-1} on every blade
        y = ys.transpose(0, 2, 1).reshape(self.dim, -1) @ table.reshape(len(table), -1).T / squares
        a = y[:, vectors].T
        stray = np.linalg.norm(np.delete(y, vectors, axis=1), axis=1)
        ok = not np.any(stray > DEFAULT_TOL * np.maximum(1.0, np.linalg.norm(y, axis=1)) * 100)
        if ok:
            gmat = self.space.gram
            ok = bool(np.linalg.norm(a.T @ gmat @ a - gmat) <= 1e-6 * max(1.0, np.linalg.norm(gmat)))
        return ok, a


def _is_exact(x: Multivector) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in x.terms.values())


@dataclass
class CliffordElement:
    """Element of a fixed Clifford algebra; operators use the Clifford product."""

    algebra: CliffordAlgebra
    mv: Multivector

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        if other.algebra is not self.algebra:
            raise ValueError("elements of different algebras")
        return CliffordElement(self.algebra, self.algebra.mul(self.mv, other.mv))

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(self.algebra, self.mv + other.mv)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(self.algebra, self.mv - other.mv)

    def transpose(self) -> "CliffordElement":
        return CliffordElement(self.algebra, self.algebra.transpose(self.mv))


@dataclass
class PinElement:
    """Clifford group element normalized to g^T g = ±1."""

    g: CliffordElement
    norm_sign: int


def reflection_matrix(w: np.ndarray, space: BilinearSpace) -> np.ndarray:
    """Matrix of the reflection y -> y - 2<w,y>/<w,w> w."""
    w = np.asarray(w, dtype=float)
    gw = space.gram @ w
    c = float(w @ gw)
    if c == 0:
        raise ValueError("reflection vector is isotropic")
    return np.eye(space.dim) - (2.0 / c) * np.outer(w, gw)


def _orthogonal_basis(space: BilinearSpace) -> list[np.ndarray]:
    """Basis with <b_i, b_j> = ±δ_ij, from the spectral form of the Gram matrix."""
    lam, q = np.linalg.eigh(space.gram)
    return [q[:, i] / math.sqrt(abs(lam[i])) for i in range(space.dim)]


def factor_into_reflections(A, space: BilinearSpace) -> list[np.ndarray]:
    """Write an orthogonal map as a product of reflections in non-isotropic vectors.

    Returns vectors w_1, ..., w_k with A = R_{w_1} ∘ ... ∘ R_{w_k}.  Each basis
    direction is fixed by one reflection when possible, by two otherwise; the
    candidate with the larger |<w,w>| is preferred to stay clear of the
    isotropic cone.  For a definite form k <= dim W; in split signature the
    two-reflection fallback can push k up to 2 dim W.
    """
    A = np.asarray(A, dtype=float)
    gmat = space.gram
    defect = np.linalg.norm(A.T @ gmat @ A - gmat)
    if defect > 1e-6 * max(1.0, np.linalg.norm(gmat)):
        raise ValueError(f"matrix is not orthogonal for this form (defect {defect:.2e})")
    gram_scale = max(1.0, float(np.linalg.norm(gmat, 2)))
    cut = 1e3 * DEFAULT_TOL
    reflections: list[np.ndarray] = []
    m = A.copy()
    for v in _orthogonal_basis(space):
        mv = m @ v
        if np.linalg.norm(mv - v) <= cut:
            continue
        w1 = mv - v
        w2 = mv + v
        n1 = abs(float(w1 @ gmat @ w1))
        n2 = abs(float(w2 @ gmat @ w2))
        # one reflection unless Mv - v is dangerously close to the isotropic
        # cone, in which case route through -v with two reflections
        if n1 > cut * gram_scale * float(w1 @ w1):
            reflections.append(w1 / np.linalg.norm(w1))
            m = reflection_matrix(w1, space) @ m
        elif n2 > cut * gram_scale * float(w2 @ w2):
            # R_v R_{w2} maps Mv through -v back to v.
            reflections.append(w2 / np.linalg.norm(w2))
            reflections.append(v)
            m = reflection_matrix(v, space) @ reflection_matrix(w2, space) @ m
        else:  # pragma: no cover - excluded by |<v,v>| = 1
            raise ValueError("no usable reflection vector found")
    if np.linalg.norm(m - np.eye(space.dim)) > 1e-7:
        raise ValueError("reflection factorization failed to converge")
    return reflections


def pin_lift_from_reflections(algebra: CliffordAlgebra, vectors: Sequence[np.ndarray]) -> PinElement:
    """Pin lift of a product of reflections: normalized Clifford product of the vectors."""
    g = algebra.scalar(1)
    sign = 1
    for w in vectors:
        c = HALF * algebra.space.pairing(w, w)
        g = g * algebra.vector(np.asarray(w, dtype=float) / math.sqrt(abs(c)))
        sign *= 1 if c > 0 else -1
    return PinElement(g, sign)


def projector_p(algebra: CliffordAlgebra, e_basis: Sequence, f_basis: Sequence) -> CliffordElement:
    """Idempotent p = Π e_i f^i from dual bases of transverse Lagrangians.

    Requires <e_i, f^j> = δ_ij (checked); then p² = p, E p = 0, p F = 0 and
    p − 1 lies in the left ideal generated by E.
    """
    n = len(e_basis)
    for i in range(n):
        for j in range(n):
            expect = 1 if i == j else 0
            val = algebra.space.pairing_exact(list(e_basis[i]), list(f_basis[j])) \
                if algebra.space.is_exact() and not isinstance(e_basis[i], np.ndarray) \
                else algebra.space.pairing(e_basis[i], f_basis[j])
            if abs(float(val) - expect) > 1e-9:
                raise ValueError("bases are not dual-normalized")
    p = algebra.scalar(1)
    for i in range(n):
        p = p * (algebra.vector(e_basis[i]) * algebra.vector(f_basis[i]))
    return p
