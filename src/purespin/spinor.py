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
and the spin generators of ``geometry.PinLift``.  ``rho_of_columns`` applies
ρ(w) to dense forms: the reflection chain of ``dirac`` and the table of ρ(e_I)
on which ``CliffordAlgebra.group_action`` acts.  ``rho_contravariant``, ρ(w) on
a ``Multivector`` by contraction and wedge, is the tests' oracle for the table.

Pure spinors.  ``PureSpinor.form`` is a dense float vector over the blade
masks, and the production route is stacked: ``spinors_of_lagrangians`` builds
the spinors e^{-ω_S} ∧ μ of a stack of Lagrangians from one batched SVD of
their V-blocks, applying μ = a_1 ∧ ... ∧ a_k and e^{-ω_S} as wedge operators
read off the ρ table (``wedge_exp``), and ``pure_null_spaces`` takes the null
spaces of a stack of spinors from one batched SVD of their action matrices,
asserting purity and isotropy for every row.  ``spinor_of_lagrangian`` and the
float path of ``null_space`` are the stack of one.  The Chevalley pairing is a
signed dot product of dense forms.  ``null_space`` keeps an exact path for a
``Multivector`` with int/Fraction coefficients (``exact.nullspace``), and
``from_mask_vector`` is the exit where a ``Multivector`` is still needed.
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
from .multivector import Multivector, _mask_blades

__all__ = [
    "PAIRING_CUT",
    "DoubledSpace",
    "PureSpinor",
    "has_pure_parity",
    "pure_null_spaces",
    "wedge_exp",
    "rho_generators",
    "rho_words",
    "rho_of_columns",
    "mask_vector",
    "from_mask_vector",
    "rho_contravariant",
    "null_space",
    "spinors_of_lagrangians",
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


@lru_cache(maxsize=None)
def _rho_gathers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ρ table as gathers (read-only (source, weight), shape (2n, 2^n)): (P_k x)[t] = weight[k, t] x[source[k, t]].

    P_k is the transpose of P_k' for k' = (k + n) mod 2n, so P_k x gathers
    through the table row of k'.  A blade that P_k does not reach has weight 0.
    """
    target, sign = rho_generators(n)
    source = np.roll(target, n, axis=0)
    weight = np.roll(np.where(target >= 0, sign, 0), n, axis=0)
    source.flags.writeable = weight.flags.writeable = False
    return source, weight


def _rho_each(x: np.ndarray) -> np.ndarray:
    """P_k x for each of the 2n generators: x is (..., 2^n) over the blade masks, the result (2n, ..., 2^n)."""
    source, weight = _rho_gathers(x.shape[-1].bit_length() - 1)
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


def from_mask_vector(vec: np.ndarray) -> Multivector:
    """The inverse of ``mask_vector``: the form with the nonzero entries of a float vector."""
    masks = np.flatnonzero(vec)
    out = Multivector.zero(vec.size.bit_length() - 1)  # the blades are valid: no re-validation
    out.terms = dict(zip(map(_mask_blades(out.dim).__getitem__, masks.tolist()), vec[masks].tolist()))
    return out


def rho_contravariant(doubled: DoubledSpace, w, phi: Multivector) -> Multivector:
    """ρ(v ⊕ α) φ = ι(v) φ + α ∧ φ on forms φ ∈ Λ V*: the sparse route, the tests' oracle of the ρ table."""
    v = list(w[: doubled.n])
    a = list(w[doubled.n:])
    out = phi.contract(v)
    alpha = Multivector.from_vector(a)
    if alpha:
        out = out + alpha.wedge(phi)
    return out


@dataclass
class PureSpinor:
    """A spinor, dense over the blade masks, with its Lagrangian null space cached."""

    doubled: DoubledSpace
    form: np.ndarray
    null: LagrangianSubspace


@lru_cache(maxsize=None)
def _parities(n: int) -> np.ndarray:
    """Grade mod 2 of every blade mask below 2^n (read-only)."""
    out = np.bitwise_count(np.arange(1 << n)) % 2
    out.flags.writeable = False
    return out


def has_pure_parity(forms: np.ndarray) -> np.ndarray:
    """Per row of dense forms (N, 2^n): whether every nonzero coefficient has one parity of grade."""
    nonzero = forms != 0
    odd = nonzero @ _parities(forms.shape[-1].bit_length() - 1)
    return (odd == 0) | (odd == nonzero.sum(axis=1))


@lru_cache(maxsize=None)
def _action_gathers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The gathers of ``_rho_gathers`` on the rows of an action matrix, the blade masks by grade
    (``_grade_masks``): row k, read-only, gives ρ(w_k)φ on those blades."""
    source, weight = _rho_gathers(n)
    masks = _grade_masks(n)
    source, weight = source[:, masks], weight[:, masks]
    source.flags.writeable = weight.flags.writeable = False
    return source, weight


def _null_spaces(forms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float null spaces {w : ρ(w)φ = 0} of dense forms (N, 2^n), asserted isotropic.

    One batched SVD of the action matrices, whose rows are the blades by grade
    and whose columns are ρ(w_k)φ over the generators.  Returns the singular
    values (N, 2n), the right singular vectors vh (N, 2n, 2n) and the ranks
    at the cut ``DEFAULT_TOL``·s_max: the null space of row i is spanned by
    vh[i, rank[i]:].
    """
    if not forms.any(axis=1).all():
        raise ValueError("null space of the zero spinor is undefined")
    n = forms.shape[-1].bit_length() - 1
    source, weight = _action_gathers(n)
    # structural zeros as +0.0: LAPACK picks reflector signs by the sign of zeros too
    m = (forms[:, source] * weight).transpose(0, 2, 1) + 0.0
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = (s > DEFAULT_TOL * s[:, :1]).sum(axis=1)
    # the pairing on the rows of vh, where both lie in the null space: vh G vhᵀ with G = [[0, I], [I, 0]]
    cross = vh[:, :, :n] @ vh[:, :, n:].transpose(0, 2, 1)
    null = np.arange(2 * n) >= rank[:, None]
    gram = np.abs(cross + cross.transpose(0, 2, 1)) * (null[:, :, None] & null[:, None, :])
    # the basis is orthonormal, so the scale of Subspace.is_isotropic is 1
    if (gram > 1e-7).any():
        raise AssertionError("null space of a nonzero spinor must be isotropic")
    return s, vh, rank


def pure_null_spaces(doubled: DoubledSpace, forms: np.ndarray) -> np.ndarray:
    """Null spaces of constructed spinors (N, 2^n) at the rank cut ``DEFAULT_TOL``, asserted pure.

    Returns orthonormal bases (N, 2n, n); a stack with any spinor that is not
    pure is refused.
    """
    _, vh, rank = _null_spaces(forms)
    if (rank != doubled.n).any():
        raise AssertionError("constructed spinor is not pure")
    return vh[:, doubled.n:].transpose(0, 2, 1)


def null_space(doubled: DoubledSpace, phi, diagnostics: bool = False):
    """Null space {w : ρ(w)φ = 0} of a contravariant spinor and a purity flag.

    φ is a dense float vector over the blade masks or a ``Multivector``; one
    with int/Fraction coefficients takes the exact path.  With
    ``diagnostics`` the spectral-gap report backing the float-path dimension
    decision is returned as a third value.
    """
    exact_path = isinstance(phi, Multivector) and all(
        isinstance(c, (int, Fraction)) for c in phi.terms.values())
    diag = {"exact": exact_path, "gap_ratio": math.inf, "gap_ok": True}
    if exact_path:
        if not phi:
            raise ValueError("null space of the zero spinor is undefined")
        source, weight = _action_gathers(doubled.n)
        basis_vecs = exact.nullspace((mask_vector(phi, exact_ints=True)[source] * weight).T.tolist())
        basis = (
            np.array([[float(x) for x in vec] for vec in basis_vecs]).T
            if basis_vecs else np.zeros((2 * doubled.n, 0))
        )
        sub = Subspace(doubled.space, basis, check_rank=False)
        if sub.dim and not sub.is_isotropic(1e-7):
            raise AssertionError("null space of a nonzero spinor must be isotropic")
    else:
        vec = mask_vector(phi) if isinstance(phi, Multivector) else phi
        s, vh, rank = _null_spaces(vec[None])
        s, r = s[0], int(rank[0])
        # the dimension decision is trusted when retained and discarded
        # singular values are separated by a spectral gap of more than 1e6
        if 0 < r < len(s):
            diag["gap_ratio"] = float(s[r - 1] / max(s[r], 1e-300))
            diag["gap_ok"] = diag["gap_ratio"] > 1e6
        sub = Subspace(doubled.space, vh[0, r:].T, check_rank=False)
    is_pure = sub.dim == doubled.n
    if diagnostics:
        return sub, is_pure, diag
    return sub, is_pure


def _range_data(bases: np.ndarray):
    """(rows, S, ann, ω_S) for each rank r of the V-blocks of Lagrangian bases (N, 2n, n).

    One batched SVD top = U Σ Vᵀ of the V-blocks.  At the rank cut
    ``DEFAULT_TOL``·s_max, S = U_r spans ran E and ann = U_{r:} is its
    annihilator (the orthogonal complement: V* pairs with V by the dot
    product).  E's basis times V_r Σ_r⁻¹ lifts each s_i to s_i ⊕ α_i ∈ E, so
    ω_S(s_i, s_j) = α_i(s_j) is (bottom V_r Σ_r⁻¹)ᵀ U_r, antisymmetrized.
    Yields the indices of the rows of rank r with their stacks (M, n, r),
    (M, n, n - r) and (M, r, r).
    """
    n = bases.shape[-1]
    u, s, vh = np.linalg.svd(bases[:, :n])
    ranks = (s > DEFAULT_TOL * s[:, :1]).sum(axis=1)
    for r in sorted(set(ranks.tolist())):
        rows = np.flatnonzero(ranks == r)
        s_basis = u[rows, :, :r]
        alpha = bases[rows, n:] @ (vh[rows, :r].transpose(0, 2, 1) / s[rows, None, :r])
        omega = alpha.transpose(0, 2, 1) @ s_basis
        # kill numerical symmetric residue
        yield rows, s_basis, u[rows, :, r:], 0.5 * (omega - omega.transpose(0, 2, 1))


def _wedge_images(x: np.ndarray) -> np.ndarray:
    """ε^i ∧ x for each i < n: x is (N, 2^n) over the blade masks, the result (N, n, 2^n)."""
    n = x.shape[-1].bit_length() - 1
    source, weight = _rho_gathers(n)
    return x[:, source[n:]] * weight[n:]


def _one(count: int, n: int) -> np.ndarray:
    """``count`` copies of the form 1, dense over the blade masks."""
    out = np.zeros((count, 1 << n))
    out[:, 0] = 1.0
    return out


@lru_cache(maxsize=None)
def _upper(n: int) -> np.ndarray:
    """1 above the diagonal of an n × n matrix, else 0 (read-only)."""
    out = np.triu(np.ones((n, n)), 1)
    out.flags.writeable = False
    return out


def wedge_exp(omega: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^ω ∧ x for each row: ω a stack (N, n, n) of antisymmetric matrices, read above the diagonal
    as Σ_{i<j} ω_ij ε^i ∧ ε^j, and x dense forms (N, 2^n).

    ω ∧ y = Σ_i ε^i ∧ (Σ_{j>i} ω_ij ε^j ∧ y), read off the ρ table; ω has at
    most ⌊n/2⌋ nonzero powers.
    """
    n = omega.shape[-1]
    source, weight = _rho_gathers(n)
    upper = omega * _upper(n)
    rows = np.arange(n)[:, None]
    out = term = x
    for p in range(1, n // 2 + 1):
        inner = upper @ _wedge_images(term)
        term = (inner[:, rows, source[n:]] * weight[n:]).sum(axis=1) / p
        out = out + term
    return out


def spinors_of_lagrangians(doubled: DoubledSpace, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contravariant pure spinors e^{-ω_S} ∧ μ of Lagrangians E (bases (N, 2n, n)), with their null spaces.

    μ = a_1 ∧ ... ∧ a_k is the volume element of an orthonormal basis of the
    annihilator of ran(E), read from the basis of E; a spinor depends on that
    choice only by scale.  Returns the dense forms (N, 2^n) and orthonormal
    bases of their null spaces (N, 2n, n), every one asserted pure.
    """
    forms = np.empty((len(bases), 1 << doubled.n))
    for rows, s_basis, ann, omega_s in _range_data(bases):
        mu = _one(len(rows), doubled.n)
        for j in reversed(range(ann.shape[-1])):  # a_j ∧ (a_{j+1} ∧ ... ∧ a_k)
            mu = np.einsum("Ni,Nik->Nk", ann[:, :, j], _wedge_images(mu))
        # S is orthonormal, so ω_S extends to V as S ω_S Sᵀ
        forms[rows] = wedge_exp(-(s_basis @ omega_s @ s_basis.transpose(0, 2, 1)), mu)
    if not has_pure_parity(forms).all():
        raise AssertionError("constructed spinor has mixed parity")
    return forms, pure_null_spaces(doubled, forms)


def spinor_of_lagrangian(doubled: DoubledSpace, E: LagrangianSubspace) -> PureSpinor:
    """Contravariant pure spinor e^{-ω_S} ∧ μ with null space E: ``spinors_of_lagrangians`` of one."""
    forms, nulls = spinors_of_lagrangians(doubled, E.basis[None])
    return PureSpinor(doubled, forms[0], LagrangianSubspace(doubled.space, nulls[0], check=False))


@lru_cache(maxsize=None)
def _pairing_signs(n: int) -> np.ndarray:
    """By the mask of I: (-1)^{k(k-1)/2} for k = |I| (the transpose φ^T) times the sign of
    e_I ∧ e_{I^c} against e_0 ∧ ... ∧ e_{n-1} (read-only)."""
    masks = np.arange(1 << n)
    k = np.bitwise_count(masks).astype(np.int64)
    # each index i of I passes the i - |I ∩ [0, i)| indices of I^c below it
    swaps = sum((masks >> i & 1) * (i - np.bitwise_count(masks & ((1 << i) - 1)).astype(np.int64))
                for i in range(n))
    out = np.where((k * (k - 1) // 2 + swaps) % 2, -1.0, 1.0)
    out.flags.writeable = False
    return out


def chevalley_pairing(phi: np.ndarray, psi: np.ndarray):
    """(φ, ψ): top coefficient of φ^T ∧ ψ in the standard trivialization of the pairing line.

    φ and ψ are dense forms (..., 2^n) over the blade masks; the result has
    shape (...).  The top blade of e_I ∧ e_J needs J = I^c, whose mask is
    2^n - 1 - mask(I): ψ read backwards.
    """
    n = phi.shape[-1].bit_length() - 1
    return np.sum(phi * _pairing_signs(n) * psi[..., ::-1], axis=-1)


# Two pure spinors are transverse when |(φ, ψ)| exceeds this cut.
PAIRING_CUT = 1e-8


def transversality_by_pairing(phi: np.ndarray, psi: np.ndarray):
    """|(φ, ψ)| > ``PAIRING_CUT`` for dense forms (..., 2^n)."""
    return np.abs(chevalley_pairing(phi, psi)) > PAIRING_CUT


def fixed_line_dimension(doubled: DoubledSpace, basis) -> int:
    """Dimension of {φ ∈ Λ V* : ρ(w)φ = 0 for all w ∈ E}, exactly, for a basis of E over the rationals.

    ``basis`` lists the columns of E, with int/Fraction entries; each column
    is scaled to integers.  The matrices ρ(w) = Σ_k w_k P_k of the columns
    are read off the ρ table and stacked, and their rank is exact.
    """
    size = 1 << doubled.n
    ws = np.array([exact.scale_to_integers(list(w))[1] for w in basis], dtype=object).T
    # rho_of_columns(ws, eye)[b, s] is column s of ρ(w_b)
    stacked = rho_of_columns(ws, np.eye(size, dtype=object)).transpose(0, 2, 1).reshape(-1, size)
    return size - exact.rank(stacked.tolist())
