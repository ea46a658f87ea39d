"""The left-invariant exterior derivative on matrix groups, and its finite-difference oracle.

Differential forms are carried in left trivialization: at a base point g the
value of a form field is a form over the Lie algebra whose arguments are
left-invariant frame coordinates (θ^L values of tangent vectors).  The
exterior derivative is the left-invariant formula

    dα(g) = Σ_j e^j ∧ X_j α(g) + d_CE α(g),

with X_j α(g) the derivative along the left-invariant field of e_j and d_CE
the Chevalley–Eilenberg differential of the Lie algebra
(``GroupModel.chevalley_eilenberg_triples``).  From exact derivatives X_j α,
``left_invariant_derivative`` assembles it on dense forms (vectors over the
blade masks) and ``two_form_derivative`` on 2-forms as antisymmetric
matrices: every d a command reports.  The tests' oracle
``fd_exterior_derivative`` feeds the dense one the O(h²) central quotients
(α(g e^{h e_j}) - α(g e^{-h e_j})) / 2h of a :class:`Multivector` field.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .groups import GroupModel
from .multivector import Multivector
from .spinor import from_mask_vector, mask_vector, rho_of_columns

FormField = Callable[[np.ndarray], Multivector]

__all__ = [
    "FD_STEP",
    "chevalley_eilenberg",
    "fd_exterior_derivative",
    "left_invariant_derivative",
    "three_form_norm",
    "two_form_derivative",
]

FD_STEP = 1e-4


def _central_quotients(stencil: Iterable[tuple[Multivector, Multivector]], h: float) -> np.ndarray:
    """The quotients (f₊_j - f₋_j) / 2h over the stencil pairs (f₊_j, f₋_j), as dense rows.

    The step is checked before the stencil is consumed, so a lazy stencil
    evaluates nothing for a refused step.
    """
    if h < 1e-300:
        raise ValueError("step underflow")
    return np.array([mask_vector(p) - mask_vector(m) for p, m in stencil]) * (1.0 / (2.0 * h))


def _wedge_partials(partials: np.ndarray) -> np.ndarray:
    """Σ_j e^j ∧ partials[j] over the rows of a (d, 2^d) array, with e^j ∧ = ρ(0 ⊕ e^j)."""
    d = partials.shape[0]
    return np.einsum("jj...->...", rho_of_columns(np.eye(2 * d, d, -d), partials))


def chevalley_eilenberg(model: GroupModel, alpha: np.ndarray) -> np.ndarray:
    """d_CE α = -½ Σ c_ij^k ε^i ∧ ε^j ∧ ι(e_k) α, from the model's sparse triples, form by form of α (..., 2^d)."""
    rows, cols, vals = model.chevalley_eilenberg_triples
    return np.array([np.bincount(rows, vals * form[cols], minlength=1 << model.dim)
                     for form in alpha.reshape(-1, 1 << model.dim)]).reshape(alpha.shape)


def left_invariant_derivative(model: GroupModel, value: np.ndarray,
                              partials: np.ndarray) -> np.ndarray:
    """dα(g) = Σ_j e^j ∧ X_j α(g) + d_CE α(g) from α(g) (..., 2^d) and the rows X_j α(g) (d, ..., 2^d)."""
    return _wedge_partials(partials) + chevalley_eilenberg(model, value)


def two_form_derivative(model: GroupModel | None, value: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """dω (D, D, D) of a 2-form ω (antisymmetric (D, D)) from its partials X_i ω (D, D, D).

    dω_ijk = X_iω_jk - X_jω_ik + X_kω_ij - ω([e_i,e_j],e_k) + ω([e_i,e_k],e_j) - ω([e_j,e_k],e_i),
    brackets read off ``model.structure``; ``model`` None is a vector space (no bracket terms).
    """
    rows = partials  # the cyclic sum of X_iω_jk - ω([e_j,e_k],e_i)
    if model is not None:
        rows = partials - np.tensordot(model.structure, value, 1).transpose(2, 0, 1)
    return rows + rows.transpose(1, 2, 0) + rows.transpose(2, 0, 1)


def three_form_norm(tensor: np.ndarray) -> float:
    """‖Σ_{i<j<k} t_ijk e^i ∧ e^j ∧ e^k‖, the ``Multivector.norm`` of an antisymmetric (D, D, D) tensor."""
    i, j, k = np.ogrid[:len(tensor), :len(tensor), :len(tensor)]
    return float(np.linalg.norm(tensor[(i < j) & (j < k)]))


def fd_exterior_derivative(model: GroupModel, field: FormField, g,
                           h: float = FD_STEP) -> Multivector:
    """Exterior derivative of a left-trivialized form field at g.

    Differences the field along the left-invariant fields of the basis and
    adds the exact Chevalley–Eilenberg term (see the module docstring).
    """
    value = mask_vector(field(g))
    plus, minus = model.exp(h * np.eye(model.dim)), model.exp(-h * np.eye(model.dim))  # row i: exp(±h e_i)
    stencil = ((field(model.mul(g, p)), field(model.mul(g, m))) for p, m in zip(plus, minus))
    return from_mask_vector(left_invariant_derivative(model, value, _central_quotients(stencil, h)))

