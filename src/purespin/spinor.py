"""Spinor modules of the doubled space V ⊕ V*.

The doubled space carries the pairing form <v⊕α, v'⊕α'> = α(v') + α'(v),
which is split of signature (n, n) with V and V* as distinguished
Lagrangians.  The contravariant module is Λ V* with

    ρ(v ⊕ α) φ = ι(v) φ + α ∧ φ,

which satisfies ρ(w)ρ(w') + ρ(w')ρ(w) = <w, w'> id on the nose (no extra
factor of two with this pairing).  The covariant module Λ V is the same
action with V and V* exchanged: ρ(v ⊕ α) acts on Λ V as the contravariant
ρ(α ⊕ v) on the same coefficients, so it needs no code of its own.
Coordinates: indices 0..n-1 are V, indices n..2n-1 are V*.

The ρ table.  A blade of Λ V* is the bit mask of its indices.  ρ(e_i) = ι(e_i)
clears bit i and ρ(ε^i) = ε^i ∧ sets it, both with the sign (-1)^(set bits
below i), so ρ of each of the 2n basis generators is a signed partial
permutation P_k of the blades (``rho_generators``).  Every matrix of ρ in this
package is read off that one table: ρ(w) = Σ_k w_k P_k (``rho_of_columns``)
and the action matrices behind null spaces and fixed lines; products of
generators are composed only by ``rho_words``, which serves the word matrices
of the spinor representation, d_CE (``GroupModel.chevalley_eilenberg_triples``)
and the spin generators of ``geometry.PinLift``.  ``rho_contravariant`` stays
the sparse route for applying ρ(w) to a form, and the tests' oracle for the
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import exact
from .bilinear import (
    DEFAULT_TOL,
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
)
from .multivector import Multivector

__all__ = [
    "PAIRING_CUT",
    "DoubledSpace",
    "PureSpinor",
    "pure_spinor",
    "rho_generators",
    "rho_words",
    "rho_of_columns",
    "mask_vector",
    "from_mask_vector",
    "rho_contravariant",
    "null_space",
    "spinor_of_lagrangian",
    "chevalley_pairing",
    "transversality_by_pairing",
    "fixed_line_dimension",
]


class DoubledSpace:
    """V ⊕ V* with the canonical split pairing."""

    def __init__(self, n: int):
        self.n = n
        gram = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            gram[i][n + i] = 1
            gram[n + i][i] = 1
        self.space = BilinearSpace(gram)

    def v_star_subspace(self) -> LagrangianSubspace:
        basis = np.vstack([np.zeros((self.n, self.n)), np.eye(self.n)])
        return LagrangianSubspace(self.space, basis)

    def rho_word_matrix(self, indices) -> np.ndarray:
        """Integer matrix of ρ(w_{i1}) ρ(w_{i2}) ... on Λ V* for generator indices of V ⊕ V*.

        Rows and columns are the blades by bit mask (``rho_words``).
        """
        size = 1 << self.n
        target, sign = rho_words(self.n, [indices], np.arange(size))
        m = np.zeros((size, size), dtype=np.int64)
        cols = np.flatnonzero(target[0] >= 0)
        m[target[0, cols], cols] = sign[0, cols]
        return m


@lru_cache(maxsize=None)
def _grade_masks(n: int) -> np.ndarray:
    """Blade masks of Λ V* by grade, then lexicographically (read-only): the row
    order of the action matrices."""
    masks = np.array([sum(1 << i for i in b) for k in range(n + 1) for b in combinations(range(n), k)])
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=None)
def rho_generators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ρ table: ρ of the basis e_0..e_{n-1}, ε^0..ε^{n-1} of V ⊕ V* on Λ V*.

    Read-only integer arrays (target, sign) of shape (2n, 2^n), indexed by the
    generator and the bit mask of a blade: P_k sends blade m to sign[k, m]
    times blade target[k, m], or to zero where target[k, m] = -1.
    """
    masks = np.arange(1 << n)
    target = np.empty((2 * n, 1 << n), dtype=np.int64)
    sign = np.empty((2 * n, 1 << n), dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        has = (masks & bit) != 0
        target[i] = np.where(has, masks ^ bit, -1)
        target[n + i] = np.where(has, -1, masks | bit)
        sign[i] = sign[n + i] = 1 - 2 * (np.bitwise_count(masks & (bit - 1)).astype(np.int64) % 2)
    target.flags.writeable = sign.flags.writeable = False
    return target, sign


def rho_words(n: int, words, masks) -> tuple[np.ndarray, np.ndarray]:
    """ρ(w_{i1}) ··· ρ(w_{ir}) on the blades ``masks`` for each word (i1, ..., ir) of ``words``.

    Each word is composed right to left as signed partial permutations of the
    ρ table.  Returns integer arrays (target, sign) of shape (len(words),
    len(masks)): the word sends blade masks[c] to sign[w, c] times blade
    target[w, c], or to zero where target[w, c] = -1 (and sign[w, c] = 0).
    An empty word list gives empty arrays.
    """
    table, table_sign = rho_generators(n)
    # (words, letters); an empty list has no letters to infer
    words = np.asarray(words, dtype=np.int64).reshape(len(words), -1 if len(words) else 0)
    target = np.tile(np.asarray(masks, dtype=np.int64), (len(words), 1))
    sign = np.ones_like(target)
    for gen in words.T[::-1, :, None]:
        at = np.maximum(target, 0)
        sign = sign * table_sign[gen, at]
        target = np.where(target >= 0, table[gen, at], -1)
    return target, np.where(target >= 0, sign, 0)


def _rho_each(x: np.ndarray) -> np.ndarray:
    """P_k x for each of the 2n generators: x is (..., 2^n) over the blade masks, the result (2n, ..., 2^n)."""
    n = x.shape[-1].bit_length() - 1
    target, sign = rho_generators(n)
    # P_k is the transpose of P_k' for k' = (k + n) mod 2n, so P_k x gathers
    # through the table row of k': (P_k x)[t] = sign[k', t] x[target[k', t]]
    source = np.roll(target, n, axis=0)
    weight = np.roll(np.where(target >= 0, sign, 0), n, axis=0)
    return np.moveaxis(x[..., source] * weight, -2, 0)


def rho_of_columns(ws: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ρ(w_j) x = Σ_k w_kj P_k x for every column w_j of ``ws`` (shape (2n, m)).

    x holds forms as dense vectors over the blade masks, shape (..., 2^n);
    the result has shape (m, ..., 2^n).  Float arrays give floats and object
    arrays of ints give exact ints.
    """
    return np.tensordot(ws.T, _rho_each(x), axes=1)


def mask_vector(phi: Multivector, exact_ints: bool = False) -> np.ndarray:
    """φ as a dense vector over the blade masks.

    With ``exact_ints`` the int/Fraction coefficients are scaled to integers
    over their common denominator (an object array of ints proportional to φ).
    """
    coeffs = list(phi.terms.values())
    if exact_ints:
        coeffs = exact.scale_to_integers(coeffs)[1]
    vec = np.zeros(1 << phi.dim, dtype=object if exact_ints else float)
    for blade, c in zip(phi.terms, coeffs):
        vec[sum(1 << i for i in blade)] = c
    return vec


@lru_cache(maxsize=None)
def _mask_blades(n: int) -> tuple[tuple[int, ...], ...]:
    """The blade of every mask below 2^n, by mask (a table: building the tuples dominates on su3)."""
    return tuple(tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n))


def from_mask_vector(vec: np.ndarray) -> Multivector:
    """The inverse of ``mask_vector``: the form with the nonzero entries of a float vector."""
    masks = np.flatnonzero(vec)
    out = Multivector.zero(vec.size.bit_length() - 1)  # the blades are valid: no re-validation
    out.terms = dict(zip(map(_mask_blades(out.dim).__getitem__, masks.tolist()), vec[masks].tolist()))
    return out


def rho_contravariant(doubled: DoubledSpace, w, phi: Multivector) -> Multivector:
    """ρ(v ⊕ α) φ = ι(v) φ + α ∧ φ on forms φ ∈ Λ V*."""
    v = list(w[: doubled.n])
    a = list(w[doubled.n:])
    out = phi.contract(v)
    alpha = Multivector.from_vector(a)
    if alpha:
        out = out + alpha.wedge(phi)
    return out


@dataclass
class PureSpinor:
    """A spinor with Lagrangian null space, cached."""

    doubled: DoubledSpace
    form: Multivector
    null: LagrangianSubspace


def _spinor_action_matrix(doubled: DoubledSpace, phi: Multivector):
    """Columns ρ(w_k) φ over the generator basis of the doubled space, stacked.

    Exact coefficients give an integer matrix proportional to the exact one
    (the same null space).
    """
    exact_ok = all(isinstance(c, (int, Fraction)) for c in phi.terms.values())
    cols = _rho_each(mask_vector(phi, exact_ok))[:, _grade_masks(doubled.n)]
    if exact_ok:
        return cols.T.tolist(), True
    # structural zeros as +0.0: LAPACK picks reflector signs by the sign of zeros too
    return cols.T + 0.0, False


def null_space(doubled: DoubledSpace, phi: Multivector, diagnostics: bool = False):
    """Null space {w : ρ(w)φ = 0} of a contravariant spinor and a purity flag.

    With ``diagnostics`` the spectral-gap report backing the float-path
    dimension decision is returned as a third value.
    """
    if not phi:
        raise ValueError("null space of the zero spinor is undefined")
    m, exact_path = _spinor_action_matrix(doubled, phi)
    diag = {"exact": exact_path, "gap_ratio": math.inf, "gap_ok": True}
    if exact_path:
        basis_vecs = exact.nullspace(m)
        basis = (
            np.array([[float(x) for x in vec] for vec in basis_vecs]).T
            if basis_vecs else np.zeros((2 * doubled.n, 0))
        )
    else:
        u, s, vh = np.linalg.svd(m) if m.size else (None, np.zeros(0), None)
        cut = DEFAULT_TOL * (s[0] if s.size else 1.0)
        r = int(np.sum(s > cut))
        # the dimension decision is trusted when retained and discarded
        # singular values are separated by a spectral gap of more than 1e6
        if 0 < r < len(s):
            diag["gap_ratio"] = float(s[r - 1] / max(s[r], 1e-300))
            diag["gap_ok"] = diag["gap_ratio"] > 1e6
        basis = vh[r:].T
    sub = Subspace(doubled.space, basis, check_rank=False)
    is_pure = sub.dim == doubled.n
    if sub.dim and not sub.is_isotropic(1e-7):
        raise AssertionError("null space of a nonzero spinor must be isotropic")
    if diagnostics:
        return sub, is_pure, diag
    return sub, is_pure


def pure_spinor(doubled: DoubledSpace, form: Multivector) -> PureSpinor:
    """A constructed spinor with its null space at the rank cut ``DEFAULT_TOL``, asserted pure."""
    null, pure = null_space(doubled, form)
    if not pure:
        raise AssertionError("constructed spinor is not pure")
    return PureSpinor(doubled, form, LagrangianSubspace(doubled.space, null.basis, check=False))


def _range_data(E: LagrangianSubspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, ann, ω_S) of a Lagrangian E ⊂ V ⊕ V* from one SVD top = U Σ Vᵀ of its V-block.

    At the rank cut ``DEFAULT_TOL``·s_max, S = U_r spans ran E and ann = U_{r:}
    is its annihilator (the orthogonal complement: V* pairs with V by the dot
    product).  E's basis times V_r Σ_r⁻¹ lifts each s_i to s_i ⊕ α_i ∈ E, so
    ω_S(s_i, s_j) = α_i(s_j) is (bottom V_r Σ_r⁻¹)ᵀ U_r, antisymmetrized.
    """
    n = E.ambient.dim // 2
    u, s, vh = np.linalg.svd(E.basis[:n])
    r = int(np.sum(s > DEFAULT_TOL * s[0]))
    alpha = E.basis[n:] @ (vh[:r].T / s[:r])
    omega = alpha.T @ u[:, :r]
    return u[:, :r], u[:, r:], 0.5 * (omega - omega.T)  # kill numerical symmetric residue


def _annihilator_volume(ann: np.ndarray) -> Multivector:
    """μ = a_1 ∧ ... ∧ a_k over the columns of ``ann`` (the scalar 1 when k = 0)."""
    mu = Multivector.scalar(ann.shape[0])
    for col in ann.T:
        mu = mu.wedge(Multivector.from_vector(col))
    return mu


def spinor_of_lagrangian(doubled: DoubledSpace, E: LagrangianSubspace) -> PureSpinor:
    """Contravariant pure spinor e^{-ω_S} ∧ μ with null space E.

    μ is the volume element of an orthonormal basis of the annihilator of
    ran(E), read from the basis of E.  The result depends on that choice
    only by scale.
    """
    s_basis, ann, omega_s = _range_data(E)
    mu = _annihilator_volume(ann)
    # S is orthonormal, so ω_S extends to V as S ω_S Sᵀ
    two_form = Multivector.from_antisymmetric_matrix(s_basis @ omega_s @ s_basis.T)
    form = (-two_form).exp_wedge().wedge(mu)
    if not form.has_pure_parity():
        raise AssertionError("constructed spinor has mixed parity")
    return pure_spinor(doubled, form)


def chevalley_pairing(phi: Multivector, psi: Multivector):
    """Top coefficient of φ^T ∧ ψ in the standard trivialization of the pairing line."""
    return phi.transpose_sign().wedge(psi).top_coefficient()


# Two pure spinors are transverse when |(φ, ψ)| exceeds this cut.
PAIRING_CUT = 1e-8


def transversality_by_pairing(phi: PureSpinor, psi: PureSpinor) -> bool:
    return abs(float(chevalley_pairing(phi.form, psi.form))) > PAIRING_CUT


def fixed_line_dimension(doubled: DoubledSpace, E: LagrangianSubspace,
                         exact_basis=None) -> int:
    """Dimension of {φ ∈ Λ V* : ρ(w)φ = 0 for all w ∈ E}.

    The matrices ρ(w) = Σ_k w_k P_k of a basis of E are read off the ρ table
    and stacked.  With ``exact_basis`` (columns over the rationals, each
    scaled to integers) the rank is exact; otherwise SVD at the rank cut
    ``DEFAULT_TOL``.
    """
    size = 1 << doubled.n
    if exact_basis is not None:
        ws = np.array([exact.scale_to_integers(list(w))[1] for w in exact_basis], dtype=object).T
        eye = np.eye(size, dtype=object)
    else:
        ws, eye = E.basis, np.eye(size)
    # rho_of_columns(ws, eye)[b, s] is column s of ρ(w_b)
    stacked = rho_of_columns(ws, eye).transpose(0, 2, 1).reshape(-1, size)
    if exact_basis is not None:
        return size - exact.rank(stacked.tolist())
    s = np.linalg.svd(stacked, compute_uv=False)
    cut = DEFAULT_TOL * (s[0] if s.size else 1.0)
    return int(size - np.sum(s > cut))
