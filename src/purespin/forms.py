"""Finite-difference exterior calculus on matrix groups.

Differential forms are carried in left trivialization: at a base point g the
value of a form field is a :class:`Multivector` over the Lie algebra whose
arguments are left-invariant frame coordinates (θ^L values of tangent
vectors).  The exterior derivative is computed in the normal chart
x -> g exp(Σ x_i ξ_i): the chart frame at x is the analytic differential of
exp, so only the outer difference quotient is approximate (O(h²) central
differences).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .groups import GroupModel
from .multivector import Multivector

FormField = Callable[[np.ndarray], Multivector]

__all__ = [
    "FD_STEP",
    "fd_exterior_derivative",
    "fd_exterior_derivative_flat",
    "lie_derivative_residual",
]

FD_STEP = 1e-4


def _chart_value(model: GroupModel, field: FormField, g, x: np.ndarray) -> Multivector:
    """Chart components of the field at coordinate x: pull back by the chart frame."""
    point = model.mul(g, model.exp(x))
    frame = model.dexp_frame(x)
    return field(point).pullback(frame)


def fd_exterior_derivative(model: GroupModel, field: FormField, g,
                           h: float = FD_STEP) -> Multivector:
    """Exterior derivative of a left-trivialized form field at g.

    The flat derivative of the chart components at x = 0 in the normal chart
    centered at g, whose coordinate frame at the center is the left-invariant
    frame.
    """
    return fd_exterior_derivative_flat(lambda x: _chart_value(model, field, g, x),
                                       np.zeros(model.dim), h)


def fd_exterior_derivative_flat(field: Callable[[np.ndarray], Multivector], x0,
                                h: float = FD_STEP) -> Multivector:
    """Exterior derivative of a form field on a vector space (flat chart).

    Uses d(Σ f_I dx^I) = Σ_j dx^j ∧ ∂_j(Σ f_I dx^I) with central differences.
    """
    if h < 1e-300:
        raise ValueError("step underflow")
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    out = Multivector.zero(d)
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        partial = (field(x0 + step) - field(x0 - step)).scale(1.0 / (2.0 * h))
        out = out + Multivector.basis_vector(d, j).wedge(partial)
    return out


def lie_derivative_residual(model: GroupModel, field: FormField, g, vector_field,
                            h: float = FD_STEP) -> float:
    """‖L_X ω‖ at g by Cartan's formula, for invariance checks.

    ``vector_field`` maps a group element to left-trivialized coordinates.
    """
    d_of = fd_exterior_derivative(model, field, g, h)
    x = np.asarray(vector_field(g), dtype=float)
    term1 = d_of.contract(list(x))

    def contracted(point):
        return field(point).contract(list(np.asarray(vector_field(point), dtype=float)))

    term2 = fd_exterior_derivative(model, contracted, g, h)
    return (term1 + term2).norm()
