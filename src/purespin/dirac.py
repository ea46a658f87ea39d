"""Linear Dirac structures and Dirac maps on V ⊕ V*.

A linear Dirac structure is a Lagrangian subspace E of the doubled space.
Forward/backward images under a linear map A : V -> V' are computed from the
relation  v⊕α ~_A v'⊕α'  iff  v' = Av and α = A*α', as subspaces; the tests
check them against the spinor line (pushforward/pullback), which must agree
whenever the spinor route is nonzero.

For an inner product B on V, the isometry V ⊕ V̄ -> V ⊕ V* sends an
orthogonal map A to

    A^κ = [[(A+I)/2,      (A-I) B^{-1}   ],
           [B (A-I)/4,    B (A+I) B^{-1}/2]]

acting on (vector, covector-coefficient) columns.  A^κ(V) is the graph of
the 2-form  x, y -> -B((I-A)(I+A)^{-1} x, y)/2, which yields the closed-form
pure spinor of an orthogonal map.  On the locus det(A + I) = 0 it is ρ(Ã^κ) 1
along a reflection factorization of A, applied to the dense form 1 one
reflection at a time through the ρ table (``spinor.rho_of_columns``): the Pin
route, independent of the closed form, and the check of both the closed form
and the spin lift of geometry.PinLift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bilinear import (
    DEFAULT_TOL,
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
    column_space_basis,
    nullspace_basis,
    projector_distances,
)
from .clifford import factor_into_reflections
from .spinor import (
    DoubledSpace,
    PureSpinor,
    _one,
    has_pure_parity,
    pure_null_spaces,
    rho_of_columns,
    wedge_exp,
)

LinearDirac = LagrangianSubspace

__all__ = [
    "LinearDirac",
    "OrthogonalLift",
    "graph_of_two_form",
    "gauge_transform",
    "dirac_image",
    "dirac_preimage",
    "is_strong_dirac",
    "kappa_embed",
    "kappa_lagrangians",
    "spinors_of_orthogonal",
    "spinor_of_orthogonal",
]


# --------------------------------------------------------------------------- #
# graphs and gauge transformations

def graph_of_two_form(doubled: DoubledSpace, omega) -> LinearDirac:
    """Gr_ω = {v ⊕ ω(v,·)} for an antisymmetric matrix ω."""
    m = np.asarray(omega, dtype=float)
    basis = np.vstack([np.eye(doubled.n), m.T])
    return LagrangianSubspace(doubled.space, basis)


def graph_of_bivector_subspace(doubled: DoubledSpace, pi) -> LinearDirac:
    """Gr_π = {π(·,α) ⊕ α} = {(Pa, a)} for an antisymmetric matrix P."""
    p = np.asarray(pi, dtype=float)
    basis = np.vstack([p, np.eye(doubled.n)])
    return LagrangianSubspace(doubled.space, basis)


def gauge_transform(E: LinearDirac, tau) -> LinearDirac:
    """Image of E under v ⊕ α -> v ⊕ (α + ι_v τ) for an antisymmetric matrix τ."""
    n = E.ambient.dim // 2
    t = np.asarray(tau, dtype=float)
    block = np.block([[np.eye(n), np.zeros((n, n))], [t.T, np.eye(n)]])
    return LagrangianSubspace(E.ambient, block @ E.basis, check=False)


# --------------------------------------------------------------------------- #
# Dirac maps

def _transport(a: np.ndarray, E: LinearDirac, doubled_out: DoubledSpace,
               forward: bool) -> LinearDirac:
    """Image of E through the relation ~_A, checked to be Lagrangian.

    v ⊕ Aᵀα' ~_A Av ⊕ α' for every v ⊕ α': the two sides are the blocks
    S = [[I,0],[0,Aᵀ]] and T = [[A,0],[0,I]] applied to one vector u.  The
    forward image is {Tu : Su ∈ E}, the backward image {Su : Tu ∈ E}.
    """
    n_out, n_in = a.shape
    source = np.block([
        [np.eye(n_in), np.zeros((n_in, n_out))],
        [np.zeros((n_in, n_in)), a.T],
    ])
    target = np.block([
        [a, np.zeros((n_out, n_out))],
        [np.zeros((n_out, n_in)), np.eye(n_out)],
    ])
    constraint, out_map = (source, target) if forward else (target, source)
    proj = E.projector()
    k = nullspace_basis((np.eye(constraint.shape[0]) - proj) @ constraint)
    basis = column_space_basis(out_map @ k)
    out = LagrangianSubspace(doubled_out.space, basis, check=False)
    if not out.is_lagrangian(1e-7):
        direction = "forward" if forward else "backward"
        raise AssertionError(f"{direction} image of a Lagrangian must be Lagrangian")
    return out


def _meets(E: LinearDirac, basis: np.ndarray, covectors: bool = False) -> bool:
    """Whether E meets span(basis) ⊕ 0, or 0 ⊕ span(basis), in a nonzero vector."""
    if basis.shape[1] == 0:
        return False
    pad = np.zeros_like(basis)
    block = np.vstack([pad, basis] if covectors else [basis, pad])
    return E.intersection(Subspace(E.ambient, block, check_rank=False)).dim > 0


def dirac_image(A, E: LinearDirac, doubled_target: DoubledSpace) -> tuple[LinearDirac, bool]:
    """Forward image E' = {w' : ∃ w ∈ E, w ~_A w'} and a strongness flag.

    The subspace formula always produces a Lagrangian; the flag reports
    whether the covariant spinor line pushes forward without dying, which is
    exactly the strong Dirac condition E ∩ (ker A ⊕ 0) = 0.
    """
    a = np.asarray(A, dtype=float)
    image = _transport(a, E, doubled_target, forward=True)
    return image, is_strong_dirac(a, E)


def dirac_preimage(A, F_target: LinearDirac, doubled_source: DoubledSpace) -> tuple[LinearDirac, bool]:
    """Backward image F = {w : ∃ w' ∈ F', w ~_A w'} and a pullback-nonzero flag."""
    a = np.asarray(A, dtype=float)
    pre = _transport(a, F_target, doubled_source, forward=False)
    # pullback of the spinor line dies iff F' ∩ (0 ⊕ ann(ran A)) ≠ 0
    ann = nullspace_basis(a.T)
    return pre, not _meets(F_target, ann, covectors=True)


def is_strong_dirac(A, E: LinearDirac) -> bool:
    """E ∩ (ker A ⊕ 0) = 0."""
    return not _meets(E, nullspace_basis(np.asarray(A, dtype=float)))


# --------------------------------------------------------------------------- #
# the orthogonal-map family of Lagrangians and spinors

def kappa_embed(A, B: BilinearSpace) -> np.ndarray:
    """Block matrix of A^κ on V ⊕ V* for A orthogonal with respect to B; a stack (..., n, n) of maps
    gives the stack of their blocks."""
    a = np.asarray(A, dtype=float)
    n = a.shape[-1]
    g = B.gram
    defect = float(np.max(np.linalg.norm(a.swapaxes(-1, -2) @ g @ a - g, axis=(-2, -1))))
    if defect > 1e-6 * max(1.0, np.linalg.norm(g)):
        raise ValueError(f"matrix is not B-orthogonal (defect {defect:.2e})")
    g_inv = np.linalg.inv(g)
    return np.block([
        [(a + np.eye(n)) / 2, (a - np.eye(n)) @ g_inv],
        [g @ (a - np.eye(n)) / 4, g @ (a + np.eye(n)) @ g_inv / 2],
    ])


def kappa_lagrangians(maps: np.ndarray, v_columns: np.ndarray) -> np.ndarray:
    """Bases (N, 2n, n) of A^κ(V) where ``v_columns`` is true, else of A^κ(V*), for a stack of
    orthogonal maps (N, n, n) with B = I."""
    n = maps.shape[-1]
    k = kappa_embed(maps, BilinearSpace(np.eye(n)))
    return np.where(v_columns[:, None, None], k[..., :n], k[..., n:])


@dataclass
class OrthogonalLift:
    """Pure spinor data for an orthogonal map: ψ with N_ψ = A^κ(V), and the route taken."""

    psi: PureSpinor
    method: str  # "closed" or "reflections"


def _cayley_two_form(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Matrices of the 2-forms x,y -> B((I-A)(I+A)^{-1} x, y)/2 (exponent of ψ) for a stack of maps A."""
    eye = np.eye(a.shape[-1])
    c = np.linalg.solve((eye + a).transpose(0, 2, 1), (eye - a).transpose(0, 2, 1)).transpose(0, 2, 1)
    m = -0.5 * g @ c  # c = (I-A)(I+A)^{-1}
    return 0.5 * (m - m.transpose(0, 2, 1))


def _reflection_chain(vectors, B: BilinearSpace, seed: np.ndarray) -> np.ndarray:
    """Apply ρ(κ(w ⊕ 0)) for each Pin-normalized reflection vector, right to left, to a dense form."""
    out = seed
    for w in reversed(list(vectors)):
        w = np.asarray(w, dtype=float)
        c = 0.5 * B.pairing(w, w)
        w_hat = w / math.sqrt(abs(c))
        out = rho_of_columns(np.concatenate([w_hat, 0.5 * (B.gram @ w_hat)])[:, None], out)[0]
    return out


def spinors_of_orthogonal(a: np.ndarray, B: BilinearSpace, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Pure spinors ψ of a stack of orthogonal maps (N, n, n), with N_ψ = A^κ(V) checked for each.

    "closed": |det((A+I)/2)|^{1/2} exp(two-form), refused if any det(A+I)
    is too small; "reflections": ρ(Ã^κ) 1 along a reflection factorization
    of each map, one map at a time.  Returns the dense forms (N, 2^n) and
    orthonormal bases of their null spaces (N, 2n, n).
    """
    n = a.shape[-1]
    eye = np.eye(n)
    if method == "closed":
        if np.any(np.abs(np.linalg.det(a + eye)) <= 1e3 * DEFAULT_TOL):
            raise ValueError("det(A+I) too small for the closed form")
        scale = np.sqrt(np.abs(np.linalg.det((a + eye) / 2)))
        forms = wedge_exp(_cayley_two_form(a, B.gram), _one(len(a), n)) * scale[:, None]
    elif method == "reflections":
        forms = np.array([_reflection_chain(factor_into_reflections(x, B), B, _one(1, n)[0]) for x in a])
    else:
        raise ValueError(f"unknown method {method!r}")
    if not has_pure_parity(forms).all():
        raise AssertionError("orthogonal-map spinor has mixed parity")
    nulls = pure_null_spaces(DoubledSpace(n), forms)
    if np.any(projector_distances(nulls, kappa_embed(a, B)[..., :n]) > 1e-6):
        raise AssertionError("null space of ψ does not match A^κ(V)")
    return forms, nulls


def spinor_of_orthogonal(A, B: BilinearSpace) -> OrthogonalLift:
    """Pure spinor ψ of an orthogonal map, with N_ψ = A^κ(V): ``spinors_of_orthogonal`` of one.

    The closed form |det((A+I)/2)|^{1/2} exp(two-form) is used away from
    det(A+I) = 0; otherwise ψ = ρ(Ã^κ) 1 through a reflection factorization.
    The overall sign is lift-dependent; the closed form gives ψ(I) = 1.
    """
    a = np.asarray(A, dtype=float)
    n = a.shape[0]
    closed = abs(float(np.linalg.det(a + np.eye(n)))) > 1e3 * DEFAULT_TOL
    method = "closed" if closed else "reflections"
    forms, nulls = spinors_of_orthogonal(a[None], B, method)
    doubled = DoubledSpace(n)
    return OrthogonalLift(
        PureSpinor(doubled, forms[0], LagrangianSubspace(doubled.space, nulls[0], check=False)), method)
