"""Bilinear spaces, subspaces, and the Lagrangian Grassmannian of a split form.

A :class:`BilinearSpace` is R^m with a nondegenerate symmetric Gram matrix;
subspaces are stored as basis matrices (columns).  Because bases are not
unique, equality of subspaces is decided by comparing orthogonal projectors
at a tolerance.  Exact (rational) Gram data is carried alongside the float
matrix when available so the Clifford layer can compute exactly.

``DEFAULT_TOL`` is the package's one rank cut: null spaces, column spaces,
the purity of spinors and the independence of bases all discard singular
values at or below it times the largest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "BilinearSpace",
    "Subspace",
    "LagrangianSubspace",
    "make_split_space",
    "transverse",
    "transverse_spans",
    "haar_orthogonal",
    "random_orthogonal",
    "nullspace_basis",
    "column_space_basis",
    "subspace_distance",
    "projector_distances",
]


def nullspace_basis(m: np.ndarray, tol: float = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace, rank cut at tol * max(s_max, scale).

    ``scale`` sets an absolute noise floor so that matrices that are zero up
    to roundoff are treated as zero rather than full rank.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return np.eye(m.shape[1])
    u, s, vh = np.linalg.svd(m)
    cut = tol * max(s[0] if s.size else 0.0, scale)
    r = int(np.sum(s > cut))
    return vh[r:].T


def column_space_basis(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[1] == 0:
        return m
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cut = tol * (s[0] if s.size else 1.0)
    r = int(np.sum(s > cut))
    return u[:, :r]


def _projector(basis: np.ndarray) -> np.ndarray:
    if basis.shape[1] == 0:
        return np.zeros((basis.shape[0], basis.shape[0]))
    q = column_space_basis(basis)
    return q @ q.T


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance between the orthogonal projectors of two spans."""
    diff = _projector(np.atleast_2d(a)) - _projector(np.atleast_2d(b))
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def _projectors(bases: np.ndarray) -> np.ndarray:
    """Orthogonal projectors onto the column spans of a stack of nonzero bases (N, m, k).

    Each span is cut at ``DEFAULT_TOL`` like ``column_space_basis``: the left
    singular vectors past the cut get weight zero.
    """
    u, s, _ = np.linalg.svd(bases, full_matrices=False)
    q = u * (s > DEFAULT_TOL * s[:, :1])[:, None, :]
    return q @ q.transpose(0, 2, 1)


def projector_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``subspace_distance`` of each pair of a stack: the bases a[i] and b[i], shapes (N, m, k) and (N, m, l)."""
    return np.linalg.norm(_projectors(a) - _projectors(b), 2, axis=(1, 2))


class BilinearSpace:
    """Finite-dimensional real space with a nondegenerate symmetric form."""

    def __init__(self, gram):
        rows = [list(r) for r in gram]
        self.dim = len(rows)
        self.gram_exact = rows  # entries as given (Fraction/int/float)
        self.gram = np.array([[float(x) for x in r] for r in rows])
        if not np.allclose(self.gram, self.gram.T, atol=DEFAULT_TOL):
            raise ValueError("Gram matrix must be symmetric")
        if abs(np.linalg.det(self.gram)) < DEFAULT_TOL:
            raise ValueError("Gram matrix must be nondegenerate")

    def pairing(self, u, v) -> float:
        return float(np.asarray(u, dtype=float) @ self.gram @ np.asarray(v, dtype=float))

    def pairing_exact(self, u: Sequence, v: Sequence):
        return sum(
            u[i] * self.gram_exact[i][j] * v[j]
            for i in range(self.dim)
            for j in range(self.dim)
            if self.gram_exact[i][j] != 0
        )

    def signature(self) -> tuple[int, int]:
        eig = np.linalg.eigvalsh(self.gram)
        return int(np.sum(eig > 0)), int(np.sum(eig < 0))

    def is_exact(self) -> bool:
        return all(
            isinstance(x, (int, Fraction)) for row in self.gram_exact for x in row
        )

    def __repr__(self) -> str:  # pragma: no cover
        p, q = self.signature()
        return f"BilinearSpace(dim={self.dim}, signature=({p},{q}))"


class Subspace:
    """Span of the columns of ``basis`` inside a bilinear space."""

    def __init__(self, ambient: BilinearSpace, basis, check_rank: bool = True):
        self.ambient = ambient
        self.basis = np.atleast_2d(np.asarray(basis, dtype=float))
        if self.basis.shape[0] != ambient.dim:
            raise ValueError("basis rows must match ambient dimension")
        if check_rank and self.basis.shape[1]:
            s = np.linalg.svd(self.basis, compute_uv=False)
            if s[-1] <= DEFAULT_TOL * s[0]:
                raise ValueError("basis columns are not linearly independent")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return _projector(self.basis)

    def distance(self, other: "Subspace") -> float:
        return float(np.linalg.norm(self.projector() - other.projector(), 2))

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient, np.zeros((self.ambient.dim, 0)), check_rank=False)
        stacked = np.hstack([self.basis, -other.basis])
        ker = nullspace_basis(stacked)
        vecs = self.basis @ ker[: self.dim]
        return Subspace(self.ambient, column_space_basis(vecs), check_rank=False)

    def gram_on_basis(self) -> np.ndarray:
        return self.basis.T @ self.ambient.gram @ self.basis

    def is_isotropic(self, tol: float = DEFAULT_TOL) -> bool:
        if self.dim == 0:
            return True
        scale = max(1.0, float(np.linalg.norm(self.basis, 2)) ** 2)
        return float(np.abs(self.gram_on_basis()).max()) <= tol * scale

    def is_lagrangian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.ambient.dim == 2 * self.dim and self.is_isotropic(tol)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace(dim={self.dim} in {self.ambient.dim})"


class LagrangianSubspace(Subspace):
    """Maximal isotropic subspace: E = E^⊥.

    ``check=False`` skips both the rank and the Lagrangian test, for bases
    that are Lagrangian and of full rank by construction.
    """

    def __init__(self, ambient: BilinearSpace, basis, check: bool = True):
        super().__init__(ambient, basis, check_rank=check)
        if check and not self.is_lagrangian():
            raise ValueError("subspace is not Lagrangian")


def make_split_space(n: int) -> BilinearSpace:
    """R^{n,n}: <e_i, e_j> = ±δ_ij with + for i = j <= n, − for i = j > n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gram = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        gram[i][i] = 1
        gram[n + i][n + i] = -1
    return BilinearSpace(gram)


def transverse(E: Subspace, F: Subspace) -> bool:
    return bool(transverse_spans(E.basis, F.basis))


def transverse_spans(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether span(a[i]) ⊕ span(b[i]) is the whole space, for stacks of bases (..., m, k) and (..., m, l).

    The dimensions must add up to m, and [a b] must have full rank at the cut
    ``DEFAULT_TOL``·s_max.
    """
    if a.shape[-1] + b.shape[-1] != a.shape[-2]:
        return np.zeros(a.shape[:-2], dtype=bool)
    s = np.linalg.svd(np.concatenate([a, b], axis=-1), compute_uv=False)
    return s[..., -1] > DEFAULT_TOL * s[..., 0]


def haar_orthogonal(gaussians: np.ndarray) -> np.ndarray:
    """The orthogonal factors of QR of a stack of square matrices (..., n, n), signed so that R has a
    positive diagonal: Haar-ish random orthogonal matrices for Gaussian draws."""
    q, r = np.linalg.qr(gaussians)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix from QR of a Gaussian matrix."""
    return haar_orthogonal(rng.standard_normal((n, n)))
