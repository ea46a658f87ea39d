"""The left-invariant exterior derivative on matrix groups, and its finite-difference routes.

Differential forms are carried in left trivialization: at a base point g the
value of a form field is a :class:`Multivector` over the Lie algebra whose
arguments are left-invariant frame coordinates (θ^L values of tangent
vectors).  The exterior derivative is the left-invariant formula

    dα(g) = Σ_j e^j ∧ X_j α(g) + d_CE α(g),

with X_j α(g) the derivative along the left-invariant field of e_j and d_CE
the Chevalley–Eilenberg differential of the Lie algebra
(``GroupModel.chevalley_eilenberg_triples``), which is exact.
``left_invariant_derivative`` assembles it from derivatives the caller
supplies (the invariant spinors have exact ones, see
``geometry.PinLift.forms_near``); ``fd_exterior_derivative`` feeds it the
central quotients (α(g e^{h e_j}) - α(g e^{-h e_j})) / 2h, which are O(h²).
No chart frame is differentiated.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .groups import GroupModel
from .multivector import Multivector
from .spinor import mask_vector

FormField = Callable[[np.ndarray], Multivector]

__all__ = [
    "FD_STEP",
    "chevalley_eilenberg",
    "fd_exterior_derivative",
    "fd_exterior_derivative_flat",
    "left_invariant_derivative",
    "lie_derivative_residual",
]

FD_STEP = 1e-4


def _central_quotients(stencil: Iterable[tuple[Multivector, Multivector]],
                       h: float) -> Iterable[Multivector]:
    """The quotients (f₊_j - f₋_j) / 2h over the stencil pairs (f₊_j, f₋_j), lazily.

    The step is checked before the stencil is consumed, so a lazy stencil
    evaluates nothing for a refused step.
    """
    if h < 1e-300:
        raise ValueError("step underflow")
    return ((plus - minus).scale(1.0 / (2.0 * h)) for plus, minus in stencil)


def _wedge_partials(partials: Iterable[Multivector], dim: int) -> Multivector:
    """Σ_j e^j ∧ partials[j], j = 0, 1, ..."""
    out = Multivector.zero(dim)
    for j, partial in enumerate(partials):
        out = out + Multivector.basis_vector(dim, j).wedge(partial)
    return out


def chevalley_eilenberg(model: GroupModel, alpha: Multivector) -> Multivector:
    """d_CE α = -½ Σ c_ij^k ε^i ∧ ε^j ∧ ι(e_k) α, from the model's sparse triples."""
    rows, cols, vals = model.chevalley_eilenberg_triples
    out = np.bincount(rows, vals * mask_vector(alpha)[cols], minlength=1 << model.dim)
    return Multivector(model.dim, {
        tuple(i for i in range(model.dim) if m >> i & 1): float(out[m])
        for m in np.flatnonzero(out)})


def left_invariant_derivative(model: GroupModel, value: Multivector,
                              partials: Iterable[Multivector]) -> Multivector:
    """dα(g) = Σ_j e^j ∧ X_j α(g) + d_CE α(g) from α(g) and the derivatives X_j α(g), j = 0..d-1."""
    return _wedge_partials(partials, model.dim) + chevalley_eilenberg(model, value)


def fd_exterior_derivative(model: GroupModel, field: FormField, g,
                           h: float = FD_STEP) -> Multivector:
    """Exterior derivative of a left-trivialized form field at g.

    Differences the field along the left-invariant fields of the basis and
    adds the exact Chevalley–Eilenberg term (see the module docstring).
    """
    def along(j: int, sign: float) -> Multivector:
        step = np.zeros(model.dim)
        step[j] = sign * h
        return field(model.mul(g, model.exp(step)))

    stencil = ((along(j, 1.0), along(j, -1.0)) for j in range(model.dim))
    return left_invariant_derivative(model, field(g), _central_quotients(stencil, h))


def fd_exterior_derivative_flat(field: Callable[[np.ndarray], Multivector], x0,
                                h: float = FD_STEP) -> Multivector:
    """Exterior derivative of a form field on a vector space (flat chart).

    Uses d(Σ f_I dx^I) = Σ_j dx^j ∧ ∂_j(Σ f_I dx^I) with central differences.
    """
    x0 = np.asarray(x0, dtype=float)
    stencil = ((field(x0 + s), field(x0 - s)) for s in h * np.eye(x0.size))
    return _wedge_partials(_central_quotients(stencil, h), x0.size)


def lie_derivative_residual(model: GroupModel, field: FormField, g, vector_field) -> float:
    """‖L_X ω‖ at g by Cartan's formula, for invariance checks.

    ``vector_field`` maps a group element to left-trivialized coordinates.
    """
    d_of = fd_exterior_derivative(model, field, g)
    x = np.asarray(vector_field(g), dtype=float)
    term1 = d_of.contract(list(x))

    def contracted(point):
        return field(point).contract(list(np.asarray(vector_field(point), dtype=float)))

    term2 = fd_exterior_derivative(model, contracted, g)
    return (term1 + term2).norm()
