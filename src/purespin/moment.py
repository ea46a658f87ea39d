"""Pointwise verification of group-valued moment map structures.

A q-Hamiltonian space is represented by samples: at a point x of the carrier
manifold we keep a tangent frame (abstractly: its size m), the 2-form matrix
on the frame, the moment value Φ(x), the left-trivialized moment
differential, and the action map sending Lie algebra elements to frame
coordinates of their generating vectors.  Every axiom checked here is linear
algebra at the point plus first derivatives, so no atlas machinery is
needed; model spaces (conjugacy classes, the double D(G) from its defining
formula and the fused double as its internal fusion, exponentials of
coadjoint orbits) are provided as closures producing such records at
arbitrary points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import DEFAULT_TOL, column_space_basis, nullspace_basis, subspace_distance
from .dirac import (
    dirac_image,
    gauge_transform,
    graph_of_bivector_subspace,
    graph_of_two_form,
)
from .forms import fd_exterior_derivative, three_form_norm, two_form_derivative
from .geometry import (
    PinLift,
    _lift_density,
    _pivoted_frame,
    cartan_dirac_fiber,
    class_point,
    eta_multivector,
    ghjw_matrix,
)
from .groups import GroupModel, expm, product_model
from .multivector import Multivector
from .spinor import DoubledSpace

__all__ = [
    "QHamPoint",
    "moment_condition_residual",
    "minimal_degeneracy",
    "strong_dirac_equivalence",
    "conjugacy_qham_point",
    "DoubleFactory",
    "fuse",
    "tau_matrix",
    "mult_eta_identity_residual",
    "fused_three_form_residual",
    "qham_volume_top",
    "kirillov_poisson_matrix",
    "homotopy_two_form",
    "exp_orbit_qham_point",
    "exp_dirac_report",
]


@dataclass
class QHamPoint:
    """Pointwise data of a 2-form + group-valued moment structure.

    ``dphi`` has shape (m, d): row i holds the left-trivialized coordinates
    of dΦ(u_i).  ``action`` has shape (m, d): action @ ξ gives the frame
    coordinates of the generating vector ξ^♯ at the point.
    """

    model: GroupModel
    omega: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    action: np.ndarray

    @property
    def frame_dim(self) -> int:
        return self.omega.shape[0]


# --------------------------------------------------------------------------- #
# axiom checks

def moment_condition_residual(p: QHamPoint) -> float:
    """max | ι(ξ^♯)ω - B(((Ad_Φ + 1)/2) dΦ(·), ξ) | over the bases."""
    ad = p.model.Ad(p.phi)
    d = p.model.dim
    lhs = p.omega.T @ p.action
    rhs = p.dphi @ ((np.eye(d) + ad) / 2.0).T @ p.model.B
    return float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0


def minimal_degeneracy(p: QHamPoint) -> dict:
    """Both forms of the kernel condition, and whether they agree.

    Original: ker ω = {ξ^♯ : Ad_Φ ξ = -ξ}.  Elegant: ker ω ∩ ker dΦ = 0.
    Null spaces, ker ω ∩ ker dΦ among them (of [ker ω, -ker dΦ]), are cut at 1e-8·max(s_max, 1).
    """
    tol = 1e-8
    ker_omega = nullspace_basis(p.omega, tol, scale=1.0)
    eig = nullspace_basis(p.model.Ad(p.phi) + np.eye(p.model.dim), tol, scale=1.0)
    flipped = column_space_basis(p.action @ eig, tol) if eig.size else np.zeros((p.frame_dim, 0))
    original = (ker_omega.shape[1] == flipped.shape[1]
                and subspace_distance(ker_omega, flipped) <= 1e-6)
    ker_dphi = nullspace_basis(p.dphi.T, tol, scale=1.0)
    elegant = nullspace_basis(np.hstack([ker_omega, -ker_dphi]), tol, scale=1.0).shape[1] == 0
    return {
        "original": original,
        "elegant": elegant,
        "consistent": original == elegant,
        "kernel_dim": int(ker_omega.shape[1]),
    }


def strong_dirac_equivalence(p: QHamPoint) -> dict:
    """Compare the axiom pair (moment + kernel) with the Dirac-map formulation.

    The tangent map dΦ must carry the graph of ω onto the invariant
    Lagrangian fiber at Φ(x), strongly; pointwise this is equivalent to the
    two axioms holding.  The image must match the fiber to a projector
    distance of 1e-7.
    """
    m, d = p.frame_dim, p.model.dim
    doubled_m = DoubledSpace(m) if m else None
    doubled_g = DoubledSpace(d)
    a = p.dphi.T
    target = cartan_dirac_fiber(p.model, p.phi, doubled_g)
    if m == 0:
        return {"axioms": True, "dirac": True, "agree": True}
    graph = graph_of_two_form(doubled_m, p.omega)
    image, strong = dirac_image(a, graph, doubled_g)
    dirac_ok = bool(image.dim == target.dim and image.distance(target) <= 1e-7 and strong)
    axioms_ok = bool(
        moment_condition_residual(p) <= 1e-8 and minimal_degeneracy(p)["original"]
    )
    return {"axioms": axioms_ok, "dirac": dirac_ok, "agree": axioms_ok == dirac_ok}


# --------------------------------------------------------------------------- #
# model spaces

def conjugacy_qham_point(model: GroupModel, g) -> QHamPoint:
    """A conjugacy class with its invariant 2-form, moment map the inclusion."""
    pt = class_point(model, g)
    u = pt.frame
    omega = ghjw_matrix(pt)
    gen = pt.section - np.eye(model.dim)
    action, *_ = np.linalg.lstsq(u, gen, rcond=None) if u.size else (np.zeros((0, model.dim)),)
    return QHamPoint(model, omega, np.asarray(g), u.T, action)


def fuse(p: QHamPoint) -> QHamPoint:
    """Internal fusion of a point over G × G into one over G.

    With Φ = (Φ1, Φ2) and dΦ, the action split by the two factors:
    Φ = Φ1 Φ2, ω += ½ B(dΦ1, Ad_Φ2 dΦ2) antisymmetrized (the pullback of the
    twist 2-form), dΦ = Ad_Φ2⁻¹ dΦ1 + dΦ2 and the diagonal action.
    """
    model, second = getattr(p.model, "factors", (p.model, None))
    if second is None or model.name != second.name:
        raise ValueError(f"fusion takes a point over G x G, not over {p.model.name!r}")
    d, r = model.dim, model.rep_dim
    phi1, phi2 = p.phi[:r, :r], p.phi[r:, r:]
    dphi1, dphi2 = p.dphi[:, :d], p.dphi[:, d:]
    ad2 = model.Ad(phi2)
    cross = 0.5 * dphi1 @ model.B @ ad2 @ dphi2.T
    return QHamPoint(model, p.omega + (cross - cross.T), model.mul(phi1, phi2),
                     dphi1 @ model.Ad_inverse(ad2).T + dphi2,
                     p.action[:, :d] + p.action[:, d:])


class DoubleFactory:
    """Double and fused-double points of a base group G.

    The double D(G) = G × G carries the moment (ab, a⁻¹b⁻¹) into G × G and
    the 2-form ω = ½ B(a*θ^L, b*θ^R) + ½ B(a*θ^R, b*θ^L); the fused double
    is its internal fusion, with moment the commutator a b a⁻¹ b⁻¹.
    """

    def __init__(self, base: GroupModel):
        self.base = base
        self.product = product_model(base, base)

    def double_point(self, a, b) -> QHamPoint:
        """D(G) at (a, b) in the left-trivialized frame (e_i, 0), (0, e_i) of its two factors."""
        base = self.base
        eye = np.eye(base.dim)
        a_inv, b_inv = base.inv(a), base.inv(b)
        ad_a, ad_b = base.Ad(a, a_inv), base.Ad(b, b_inv)
        ad_a_inv, ad_b_inv = base.Ad_inverse(ad_a), base.Ad_inverse(ad_b)
        k = 0.5 * (base.B @ ad_b + ad_a.T @ base.B)
        omega = np.block([[np.zeros_like(k), k], [-k.T, np.zeros_like(k)]])
        dphi = np.block([[ad_b_inv.T, -(ad_b @ ad_a).T], [eye, -ad_b.T]])
        action = np.block([[ad_a_inv, -eye], [-eye, ad_b_inv]])
        phi = _prod_pair(base, base.mul(a, b), base.mul(a_inv, b_inv))
        return QHamPoint(self.product, omega, phi, dphi, action)

    def fused_double_point(self, a, b) -> QHamPoint:
        return fuse(self.double_point(a, b))


# --------------------------------------------------------------------------- #
# the fusion 2-form and the product 3-form identity

def tau_matrix(model: GroupModel, g2) -> np.ndarray:
    """Matrix of the twist 2-form on T(G×G) at (g1, g2) in left trivialization.

    τ((x1,x2),(y1,y2)) = (B(x1, Ad_{g2} y2) - B(y1, Ad_{g2} x2)) / 2; the
    value is independent of g1.
    """
    d = model.dim
    blk = 0.5 * model.B @ model.Ad(g2)
    out = np.zeros((2 * d, 2 * d))
    out[:d, d:] = blk
    out[d:, :d] = -blk.T
    return out


def mult_eta_identity_residual(base: GroupModel, prod: GroupModel, a, b) -> float:
    """‖Mult*η - pr1*η - pr2*η - dτ‖ at (a, b) on exact tensors: dτ from ``_tau_partials``
    by ``two_form_derivative`` on ``prod``, each η a contraction of -½T."""
    d = base.dim
    tau = tau_matrix(base, b)
    pulled = lambda m: _eta_between(base, m, m.T, m)  # η(m·, m·, m·)
    d_mult = np.hstack([base.Ad_inverse(base.Ad(b)), np.eye(d)])
    residual = (pulled(d_mult) - pulled(np.eye(d, 2 * d)) - pulled(np.eye(d, 2 * d, d))
                - two_form_derivative(prod, tau, _tau_partials(base, tau)))
    return three_form_norm(residual)


def _tau_partials(base: GroupModel, tau: np.ndarray) -> np.ndarray:
    """X_c τ (2d, 2d, 2d) from τ at (a, b): zero along the first factor; along e_c of the
    second, the off-diagonal block ½·B·Ad(b)·ad(e_c), since X_c Ad(b) = Ad(b)·ad(e_c)."""
    d = base.dim
    blocks = tau[:d, d:] @ base.ad(np.eye(d))
    partials = np.zeros((2 * d,) * 3)
    partials[d:, :d, d:] = blocks
    partials[d:, d:, :d] = -blocks.mT
    return partials


def _prod_pair(base: GroupModel, a, b) -> np.ndarray:
    r = base.rep_dim
    out = np.zeros((2 * r, 2 * r), dtype=complex)
    out[:r, :r] = a
    out[r:, r:] = b
    return out


def fused_three_form_residual(factory: DoubleFactory, a, b) -> float:
    """‖dω^fus - Φ*η‖ at (a, b) on the fused double (first structure axiom)."""
    base, prod = factory.base, factory.product
    r = base.rep_dim

    def omega_field(point):
        mat = np.asarray(point)
        p = factory.fused_double_point(mat[:r, :r], mat[r:, r:])
        return Multivector.from_antisymmetric_matrix(p.omega)

    center = factory.fused_double_point(a, b)
    d_omega = fd_exterior_derivative(prod, omega_field, _prod_pair(base, a, b))
    rhs = eta_multivector(base).pullback(center.dphi.T)
    return (d_omega - rhs).norm()


# --------------------------------------------------------------------------- #
# volume densities

def qham_volume_top(p: QHamPoint, pin: PinLift) -> float:
    """Frame density of the top part of e^ω ∧ Φ*ψ.

    Read off without building the product: with A_K = dΦ[:, K] (m × r) for
    a blade K = (k_1 < ... < k_r) of ψ at Φ(x), the density is
    Σ_K ψ_K (-1)^{r(r-1)/2} Pf([[ω, A_K], [-A_K^T, 0]])
    (see ``geometry.frame_volume_density``).
    """
    return float(_lift_density(pin, p.phi, p.omega, p.dphi.T))


# --------------------------------------------------------------------------- #
# exponentials

def kirillov_poisson_matrix(model: GroupModel, x) -> np.ndarray:
    """Linear Poisson structure at x, indices raised by B: P_ij = B(x, [ξ^i, ξ^j]).

    With (x·T)_jk = B(x, [e_j, e_k]) read off the invariant tensor T,
    P = B⁻ᵀ (x·T) B⁻¹.
    """
    x_dot_t = np.tensordot(np.asarray(x, dtype=float), model.invariant_tensor, 1)
    return model.B_inv.T @ x_dot_t @ model.B_inv


def homotopy_two_form(model: GroupModel, x) -> np.ndarray:
    """Radial homotopy of the pulled-back 3-form: ϖ_x(u,v) = ∫₀¹ t² (exp*η)_{tx}(x,u,v) dt.

    In closed form (Alekseev–Malkin–Meinrenken) ϖ_x = B·F(ad_x) with
    F(z) = (sinh z − z)/z², antisymmetrized; F(ad_x) is one ``_sinh_quotient``.
    """
    out = model.B @ _sinh_quotient(model.ad(np.asarray(x, dtype=float)))
    return 0.5 * (out - out.T)


def _sinh_quotient(a: np.ndarray) -> np.ndarray:
    """F(A) = (sinh A − A)/A² = ½(φ₂(A) − φ₂(−A)) for each matrix of a stack (..., n, n), where
    φ₂(A) = (e^A − 1 − A)/A² is the (1, 3) block of exp [[A, I, 0], [0, 0, I], [0, 0, 0]]; both
    signs go through one ``groups.expm``."""
    n = a.shape[-1]
    block = np.zeros((2,) + a.shape[:-2] + (3 * n, 3 * n))
    block[0, ..., :n, :n] = a
    block[1, ..., :n, :n] = -a
    block[..., :n, n:2 * n] = block[..., n:2 * n, 2 * n:] = np.eye(n)
    phi2 = expm(block)[..., :n, 2 * n:]
    return 0.5 * (phi2[0] - phi2[1])


def _eta_between(model: GroupModel, left, moved, right) -> np.ndarray:
    """leftᵀ (moved·η) right, η = -½T, over stacks: [i, j] = η(moved, left e_i, right e_j)."""
    return left.mT @ np.tensordot(moved, -0.5 * model.invariant_tensor, 1) @ right


def _homotopy_partials(model: GroupModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ϖ(x) (d, d) and its partials ∂_jϖ(x) (d, d, d) from one ``_sinh_quotient`` of the d blocks
    [[ad_x, ad(e_j)], [0, ad_x]]: the upper-right block of F of each is ∂_jF(ad_x) (Mathias 1996),
    and its upper-left block is F(ad_x), read off the first.  Both are B·(·), antisymmetrized."""
    d = model.dim
    block = np.zeros((d, 2 * d, 2 * d))
    block[:, :d, :d] = block[:, d:, d:] = model.ad(x)
    block[:, :d, d:] = model.ad(np.eye(d))
    quotients = _sinh_quotient(block)
    w, partials = model.B @ quotients[0, :d, :d], model.B @ quotients[:, :d, d:]
    return 0.5 * (w - w.T), 0.5 * (partials - partials.mT)


def exp_orbit_qham_point(model: GroupModel, x) -> QHamPoint:
    """Adjoint-orbit point made q-Hamiltonian through the exponential.

    ω = (orbit symplectic form) + restriction of the homotopy 2-form,
    Φ = exp, dΦ the trivialized differential of exp.
    """
    x = np.asarray(x, dtype=float)
    d = model.dim
    neg_ad = -model.ad(x)
    u, z = _pivoted_frame(neg_ad)  # the orbit tangent {[ζ, x]}
    kks = z.T @ np.tensordot(x, model.invariant_tensor, 1) @ z
    w = homotopy_two_form(model, x)
    omega = kks + u.T @ w @ u
    t_frame = model.dexp_frame(x)
    dphi = (t_frame @ u).T
    action, *_ = np.linalg.lstsq(u, neg_ad, rcond=None) if u.size else (np.zeros((0, d)),)
    return QHamPoint(model, omega, model.exp(x), dphi, action)


def exp_dirac_report(model: GroupModel, x) -> dict:
    """The two halves of the exponential theorem at x.

    (i) d(homotopy form) = exp*η, d the flat ``two_form_derivative`` of exact
    partials; (ii) the trivialized differential of exp is a strong Dirac map
    from the gauged Poisson graph to the invariant Lagrangian fiber at exp x.
    """
    x = np.asarray(x, dtype=float)
    d = model.dim
    t_frame = model.dexp_frame(x)
    jac = abs(float(np.linalg.det(t_frame)))
    if jac < 1e3 * DEFAULT_TOL:
        raise ValueError("point is outside the domain where exp is a local diffeomorphism")
    w, partials = _homotopy_partials(model, x)
    d_w = two_form_derivative(None, w, partials)
    exterior_residual = three_form_norm(d_w - _eta_between(model, t_frame, t_frame.T, t_frame))

    doubled = DoubledSpace(d)
    graph = graph_of_bivector_subspace(doubled, kirillov_poisson_matrix(model, x))
    gauged = gauge_transform(graph, w)
    target = cartan_dirac_fiber(model, model.exp(x), doubled)
    image, strong = dirac_image(t_frame, gauged, doubled)
    return {
        "exterior_residual": exterior_residual,
        "dirac_distance": image.distance(target),
        "strong": bool(strong),
        "jacobian": jac,
    }
