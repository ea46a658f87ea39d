"""Lecture facts stated as code that no command runs: the tests' oracles and glue.

Each function here restates an identity of the lectures through a route of
its own, or builds the data a test compares a production route against.
The package runs none of them; the tests import this module by name
(``tests/`` is on ``sys.path`` under pytest's default import mode).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from purespin.bilinear import (
    DEFAULT_TOL,
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
    make_split_space,
    nullspace_basis,
)
from purespin.clifford import HALF, CliffordAlgebra, NotInCliffordGroup, PinElement, factor_into_reflections
from purespin.dirac import _reflection_chain, dirac_image, is_strong_dirac, kappa_embed
from purespin.forms import FD_STEP, fd_exterior_derivative, two_form_derivative
from purespin.geometry import _trivector, section_matrix
from purespin.groups import GroupModel, _ProductModel, expm, product_model
from purespin.moment import QHamPoint, _eta_between, minimal_degeneracy
from purespin.multivector import Multivector
from purespin.spinor import (
    DoubledSpace,
    PureSpinor,
    _range_data,
    chevalley_pairing,
    from_mask_vector,
    mask_vector,
    null_space,
    pure_null_spaces,
    spinor_of_lagrangian,
)


# --------------------------------------------------------------------------- #
# the Lagrangian Grassmannian of R^{n,n}

def lagrangian_from_orthogonal(A) -> LagrangianSubspace:
    """E_A = {(Av, v)} in R^{n,n}; Lagrangian exactly when A is orthogonal."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    defect = np.linalg.norm(A.T @ A - np.eye(n))
    if defect > 1000 * DEFAULT_TOL:
        raise ValueError(f"matrix is not orthogonal (‖AᵀA−I‖ = {defect:.2e})")
    basis = np.vstack([A, np.eye(n)])
    return LagrangianSubspace(make_split_space(n), basis)


def orthogonal_from_lagrangian(E: Subspace) -> np.ndarray:
    """Recover the unique A with E = E_A (split space, standard basis)."""
    n = E.ambient.dim // 2
    top, bottom = E.basis[:n], E.basis[n:]
    # E cannot meet the definite first factor, so the bottom block is invertible.
    return top @ np.linalg.inv(bottom)


def same_component(E: LagrangianSubspace, F: LagrangianSubspace) -> bool:
    """Same component of the Lagrangian Grassmannian iff n + dim(E∩F) is even."""
    n = E.ambient.dim // 2
    return (n + E.intersection(F).dim) % 2 == 0


# --------------------------------------------------------------------------- #
# Pin normalization

def _is_square(q: Fraction) -> bool:
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def random_sparse_exact(algebra: CliffordAlgebra, rng) -> Multivector:
    """Criterion 1's draw as a Multivector of Fractions: five blades and coefficients p/q, a later
    blade overwriting an earlier one; the oracle of ``suites._sparse_integer_element``."""
    out = {}
    for _ in range(5):
        blade = tuple(sorted(rng.choice(algebra.dim, size=int(rng.integers(0, algebra.dim + 1)),
                                        replace=False)))
        out[blade] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
    return Multivector(algebra.dim, out)


def pin_normalize(algebra: CliffordAlgebra, g: Multivector) -> PinElement:
    """Scale g ∈ Γ(W) so that g^T g = ±1."""
    t = algebra.mul(algebra.transpose(g), g)
    c = t.scalar_part()
    stray = math.sqrt(sum(float(v) ** 2 for b, v in t.terms.items() if b != ()))
    if stray > 1e-8 * max(1.0, abs(float(c))) or c == 0:
        raise NotInCliffordGroup("g^T g is not a nonzero scalar")
    sign = 1 if float(c) > 0 else -1
    if isinstance(c, (int, Fraction)):
        root = Fraction(abs(c)) ** HALF if _is_square(Fraction(abs(c))) else None
        if root is not None:
            return PinElement(algebra.element(g.scale(1 / root)), sign)
    scale = 1.0 / math.sqrt(abs(float(c)))
    return PinElement(algebra.element(g.map_coeff(lambda v: float(v) * scale)), sign)


# --------------------------------------------------------------------------- #
# the Clifford group in the regular representation

def parity(x: Multivector) -> Multivector:
    """Grading automorphism α: +1 on even words, -1 on odd words."""
    return Multivector(x.dim, {b: (c if len(b) % 2 == 0 else -c) for b, c in x.terms.items()})


def regular_group_action(algebra: CliffordAlgebra, g: Multivector) -> tuple[bool, np.ndarray]:
    """The oracle of ``CliffordAlgebra.group_action``: α(g) e_j g⁻¹ as Clifford products, with g⁻¹
    from a float solve of the 4^n × 4^n matrix of y -> g y on the blade basis (n ≤ 3), under the same
    membership rule; any diagonal Gram."""
    index = {b: i for i, b in enumerate(algebra.blades)}
    left = np.zeros((len(index), len(index)))
    for j, blade in enumerate(algebra.blades):
        for b, c in algebra.mul(g, Multivector(algebra.dim, {blade: 1})).terms.items():
            left[index[b], j] = float(c)
    one = np.zeros(len(index))
    one[index[()]] = 1.0
    try:
        sol = np.linalg.solve(left, one)
    except np.linalg.LinAlgError as err:
        raise NotInCliffordGroup("element is not invertible") from err
    if not np.linalg.norm(left @ sol - one) <= 1e-6:
        raise NotInCliffordGroup("element is not invertible")
    g_inv = Multivector(algebra.dim, {b: sol[i] for b, i in index.items() if sol[i] != 0})
    a = np.zeros((algebra.dim, algebra.dim))
    ok = True
    for j in range(algebra.dim):
        y = algebra.mul(algebra.mul(parity(g), Multivector(algebra.dim, {(j,): 1})), g_inv)
        stray = math.sqrt(sum(float(c) ** 2 for b, c in y.terms.items() if len(b) != 1))
        ok = ok and not stray > DEFAULT_TOL * max(1.0, y.norm()) * 100
        for b, c in y.terms.items():
            if len(b) == 1:
                a[b[0], j] = float(c)
    gmat = algebra.space.gram
    return ok and bool(np.linalg.norm(a.T @ gmat @ a - gmat) <= 1e-6 * max(1.0, np.linalg.norm(gmat))), a


# --------------------------------------------------------------------------- #
# the doubled space V ⊕ V*

def v_subspace(doubled: DoubledSpace) -> LagrangianSubspace:
    """V ⊕ 0, the Lagrangian killing the spinor 1."""
    basis = np.vstack([np.eye(doubled.n), np.zeros((doubled.n, doubled.n))])
    return LagrangianSubspace(doubled.space, basis)


def distance_from(sub: Subspace, v) -> float:
    """‖P v - v‖ / max(1, ‖v‖) for the orthogonal projector P onto ``sub``: 0 when v lies in it."""
    return float(np.linalg.norm(sub.projector() @ v - v)) / max(1.0, float(np.linalg.norm(v)))


def swap_halves(x: np.ndarray) -> np.ndarray:
    """Exchange the V and V* halves of the rows of x: v ⊕ α -> α ⊕ v.

    On Λ V the covariant action is ρ(v ⊕ α)χ = ι(α)χ + v ∧ χ, the
    contravariant ρ(α ⊕ v) on the same coefficients; so the covariant null
    space of χ is the contravariant one with its halves swapped.
    """
    n = len(x) // 2
    return np.concatenate([x[n:], x[:n]])


def graph_two_form_of(E: LagrangianSubspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Range, induced 2-form, and kernel of a Lagrangian E ⊂ V ⊕ V*.

    Returns (S, omega_S, kernel): S an orthonormal n×r basis of the range in
    V, omega_S the r×r matrix ω_S(s_i, s_j) = α_i(s_j) for lifts s_i ⊕ α_i ∈ E,
    and kernel an orthonormal basis of {v : (v, 0) ∈ E}.  Lifts differ by
    0 ⊕ ann(S) ⊂ E, so the kernel is S·ker ω_S, cut at ``DEFAULT_TOL``·max(s_max, 1).
    """
    s_basis, _, omega_s = _one_range(E)
    return s_basis, omega_s, s_basis @ nullspace_basis(omega_s, scale=1.0)


def _one_range(E: LagrangianSubspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, ann, ω_S) of one Lagrangian: the stacked range data of a stack of one."""
    (_, s_basis, ann, omega_s), = _range_data(E.basis[None])
    return s_basis[0], ann[0], omega_s[0]


def annihilator_volume(ann: np.ndarray) -> Multivector:
    """μ = a_1 ∧ ... ∧ a_k over the columns of ``ann`` (the scalar 1 when k = 0)."""
    mu = Multivector.scalar(ann.shape[0])
    for col in ann.T:
        mu = mu.wedge(Multivector.from_vector(col))
    return mu


def spinor_of_lagrangian_by_wedges(E: LagrangianSubspace) -> Multivector:
    """e^{-ω_S} ∧ μ of a Lagrangian as sparse ``Multivector`` wedges: the oracle of the dense route."""
    s_basis, ann, omega_s = _one_range(E)
    two_form = Multivector.from_antisymmetric_matrix(s_basis @ omega_s @ s_basis.T)
    return (-two_form).exp_wedge().wedge(annihilator_volume(ann))


def transpose_sign(phi: Multivector) -> Multivector:
    """Degree-k part multiplied by (-1)^{k(k-1)/2} (reversal on wedge blades)."""
    return Multivector(
        phi.dim,
        {b: (c if (len(b) * (len(b) - 1) // 2) % 2 == 0 else -c) for b, c in phi.terms.items()},
    )


def chevalley_pairing_by_wedges(phi: Multivector, psi: Multivector):
    """Top coefficient of φ^T ∧ ψ through a ``Multivector`` wedge: the oracle of the dense pairing."""
    return transpose_sign(phi).wedge(psi).terms.get(tuple(range(phi.dim)), 0)


def pure_spinor(doubled: DoubledSpace, form) -> PureSpinor:
    """A constructed spinor (a ``Multivector`` or a dense form), dense, with its null space at the rank
    cut ``DEFAULT_TOL``, asserted pure."""
    vec = mask_vector(form) if isinstance(form, Multivector) else form
    null = pure_null_spaces(doubled, vec[None])[0]
    return PureSpinor(doubled, vec, LagrangianSubspace(doubled.space, null, check=False))


def decompose_pure_spinor(doubled: DoubledSpace,
                          phi: Multivector) -> tuple[np.ndarray, np.ndarray, Multivector]:
    """Write a contravariant pure spinor as e^{-ω} ∧ μ.

    Returns (S, omega_S, mu): the range basis of N_φ, the induced 2-form on
    it, and the annihilator volume factor μ scaled so that the round trip
    e^{-ω} ∧ μ reproduces φ.
    """
    null, pure = null_space(doubled, phi)
    if not pure:
        raise ValueError("spinor is not pure")
    s_basis, ann, omega_s = _one_range(LagrangianSubspace(doubled.space, null.basis, check=False))
    mu = annihilator_volume(ann)
    # the lowest-degree part of e^{-ω} ∧ μ is μ itself: match scale on its largest coefficient
    blade = max(mu.terms, key=lambda k: abs(mu.terms[k]))
    return s_basis, omega_s, mu.scale(phi.terms.get(blade, 0) / mu.terms[blade])


def star_to_covariant(phi: Multivector) -> Multivector:
    """Star duality Λ V* -> Λ V against the standard basis volume form."""
    n = phi.dim
    out = {}
    full = tuple(range(n))
    for blade, c in phi.terms.items():
        comp = tuple(i for i in full if i not in blade)
        # sign of the shuffle (blade, comp) relative to the volume order
        perm = list(blade) + list(comp)
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        out[comp] = out.get(comp, 0) + sign * c
    return Multivector(n, out)


# --------------------------------------------------------------------------- #
# linear Dirac structures

def contraction_by_bivector(pi_mv: Multivector, phi: Multivector) -> Multivector:
    """ι(π)φ, extending contraction to Λ V so that ι(a ∧ b) = ι(b) ∘ ι(a)."""
    out = Multivector.zero(phi.dim)
    for blade, c in pi_mv.terms.items():
        img = phi
        for idx in blade:  # ι(a) acts first: ι(a ∧ b) = ι(b) ι(a)
            vec = [0.0] * phi.dim
            vec[idx] = 1
            img = img.contract(vec)
        out = out + img.scale(c)
    return out


def graph_of_bivector(doubled: DoubledSpace, pi) -> PureSpinor:
    """Pure spinor e^{-ι(π)} μ whose null space is Gr_π, μ the unit top form."""
    n = doubled.n
    pi_mv = Multivector.from_antisymmetric_matrix(np.asarray(pi, dtype=float))
    form = Multivector.zero(n)
    term = Multivector.top(n)
    k = 0
    sign = 1
    while term:
        form = form + term.scale(sign * (1.0 / math.factorial(k)))
        k += 1
        sign = -sign
        term = contraction_by_bivector(pi_mv, term)
        if k > n:
            break
    return pure_spinor(doubled, form)


def gauge_transform_spinor(phi: Multivector, tau) -> Multivector:
    """Spinor-level gauge transformation e^{-τ} ∧ φ."""
    t = Multivector.from_antisymmetric_matrix(np.asarray(tau, dtype=float))
    return (-t).exp_wedge().wedge(phi)


def b_volume_form(B: BilinearSpace) -> Multivector:
    """Riemannian volume form sqrt|det B| ε^1 ∧ ... ∧ ε^n of the inner product."""
    return Multivector.top(B.dim, math.sqrt(abs(float(np.linalg.det(B.gram)))))


def phi_of_orthogonal(A, B: BilinearSpace) -> PureSpinor:
    """Pure spinor ρ(Ã^κ) μ with null space A^κ(V*), μ the B-volume form."""
    a = np.asarray(A, dtype=float)
    n = a.shape[0]
    doubled = DoubledSpace(n)
    form = _reflection_chain(factor_into_reflections(a, B), B, mask_vector(b_volume_form(B)))
    phi = pure_spinor(doubled, form)
    expected = Subspace(doubled.space, kappa_embed(a, B)[:, n:], check_rank=False)
    if phi.null.distance(expected) > 1e-6:
        raise AssertionError("null space of φ does not match A^κ(V*)")
    return phi


def pullback_transversality(A, E: LagrangianSubspace, E_target: LagrangianSubspace,
                            psi_target: PureSpinor, doubled_source: DoubledSpace,
                            doubled_target: DoubledSpace) -> PureSpinor:
    """Pull a transverse partner of E' back to a transverse partner of E.

    Requires A to be a strong Dirac map (E, E'): E ∩ (ker A ⊕ 0) = 0 and the
    forward image of E is E' to a projector distance of 1e-8.  Then
    ψ = A*ψ' is a nonzero pure spinor and N_ψ is transverse to E.
    """
    a = np.asarray(A, dtype=float)
    image, _ = dirac_image(a, E, doubled_target)
    if not (image.dim == E_target.dim and image.distance(E_target) <= 1e-8
            and is_strong_dirac(a, E)):
        raise ValueError("map is not a strong Dirac map for (E, E')")
    psi = from_mask_vector(psi_target.form).pullback(a)
    if psi.norm() <= 1e-12:
        raise AssertionError("pullback of the transverse spinor vanished")
    pulled = pure_spinor(doubled_source, psi)
    phi_e = spinor_of_lagrangian(doubled_source, E)
    if abs(float(chevalley_pairing(phi_e.form, pulled.form))) <= 1e-12:
        raise AssertionError("pullback spinor is not transverse to E")
    return pulled


# --------------------------------------------------------------------------- #
# forms on a group

def structure_trivector(model: GroupModel) -> Multivector:
    """A fixed representative of the structure trivector, indices raised by B^{-1}.

    Only the ray matters: the scalar multiple relating (d+η)ψ to the cubic
    section action is fitted, not asserted.
    """
    b_inv = model.B_inv
    return _trivector(np.einsum("abc,ai,bj,ck->ijk", model.invariant_tensor, b_inv, b_inv, b_inv,
                                optimize=True))


def tensor_stencil_derivative(model: GroupModel, field, g, h: float) -> np.ndarray:
    """dω (D, D, D) at g of a 2-form field whose values are antisymmetric (D, D) matrices.

    The partials are the central quotients (ω(g e^{h e_i}) − ω(g e^{−h e_i})) / 2h of the
    matrices, O(h²); ``two_form_derivative`` assembles them with the bracket terms.  Unlike
    ``fd_exterior_derivative`` it builds no dense forms over the 2^D blade masks.
    """
    plus, minus = model.exp(h * np.eye(model.dim)), model.exp(-h * np.eye(model.dim))  # row i: exp(±h e_i)
    rows = np.array([field(model.mul(g, p)) - field(model.mul(g, m)) for p, m in zip(plus, minus)])
    return two_form_derivative(model, field(g), rows / (2.0 * h))


def moment_covector(model: GroupModel, g, xi) -> np.ndarray:
    """Coefficient vector of the 1-form B((θ^L + θ^R)/2, ξ) at g."""
    a = section_matrix(model, g)
    return model.B @ (np.eye(model.dim) + a) @ np.asarray(xi, dtype=float) / 2.0


def moment_form_field(model: GroupModel, xi):
    def field(point):
        return Multivector.from_vector(moment_covector(model, point, xi))
    return field


def lie_derivative_residual(model: GroupModel, field, g, vector_field) -> float:
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


# --------------------------------------------------------------------------- #
# the homotopy 2-form as an integral

def dexp_frame_jets(model: GroupModel, ts: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F = dexp_frame(t x) (n, 1, d, d) and G_j = ∂_j[F(t x)] (n, d, d, d) for the n scales t of ts:
    the (2, 3) and (1, 3) blocks of exp [[-ad_{tx}, -t·ad(e_j), 0], [0, -ad_{tx}, I], [0, 0, 0]]
    (Mathias 1996), the n × d blocks in one ``groups.expm``."""
    d = model.dim
    block = np.zeros((len(ts), d, 3 * d, 3 * d))
    block[..., :d, :d] = block[..., d:2 * d, d:2 * d] = -model.ad(ts[:, None] * x)[:, None]
    block[..., :d, d:2 * d] = -ts[:, None, None, None] * model.ad(np.eye(d))
    block[..., d:2 * d, 2 * d:] = np.eye(d)
    blocks = expm(block)
    return blocks[:, :1, d:2 * d, 2 * d:], blocks[..., :d, 2 * d:]


def homotopy_partials_by_quadrature(model: GroupModel, x) -> np.ndarray:
    """∂_jϖ(x) as (d, d, d) from ϖ_x = ∫₀¹ t² Fᵀ(Fx·η)F dt, F = dexp_frame(t x), antisymmetrized:
    a 32-node Gauss-Legendre sum of the product rule
    ∂_j[Fᵀ(Fx·η)F] = G_jᵀ(Fx·η)F + Fᵀ(Fx·η)G_j + Fᵀ((G_j x + F e_j)·η)F."""
    x = np.asarray(x, dtype=float)
    ts, ws = np.polynomial.legendre.leggauss(32)
    ts = 0.5 * (ts + 1.0)
    frames, derivs = dexp_frame_jets(model, ts, x)
    moved = frames @ x
    terms = (_eta_between(model, derivs, moved, frames) + _eta_between(model, frames, moved, derivs)
             + _eta_between(model, frames, derivs @ x + frames[:, 0].mT, frames))  # F e_j: row j of Fᵀ
    out = np.tensordot(0.5 * ws * ts * ts, terms, 1)
    return 0.5 * (out - out.mT)


# --------------------------------------------------------------------------- #
# q-Hamiltonian points

def infinitesimal_invariance_residual(point_builder, p: QHamPoint, xi) -> float:
    """‖L(ξ^♯) ω‖ estimated by differencing the 2-form along the flow.

    ``point_builder`` maps a group element h to the QHamPoint at the
    transported carrier point h·x; invariance of ω is checked through the
    frame-coherent builder, not through any particular chart.
    """
    h = FD_STEP
    exp_plus = p.model.exp(np.asarray(xi, dtype=float) * h)
    exp_minus = p.model.exp(-np.asarray(xi, dtype=float) * h)
    om_plus = point_builder(exp_plus).omega
    om_minus = point_builder(exp_minus).omega
    return float(np.max(np.abs(om_plus - om_minus))) / (2 * h)


def regular_value_report(p: QHamPoint) -> dict:
    """Pointwise data for reduction at the identity value of the moment map.

    No quotient is built; this only reports whether the moment value is the
    identity, the rank of its differential there, and the kernel dimensions
    entering the local regular-value criterion.
    """
    at_identity = bool(np.linalg.norm(np.asarray(p.phi) - p.model.identity()) < 1e-9)
    rank = p.dphi.shape[1] - nullspace_basis(p.dphi, scale=1.0).shape[1]
    return {
        "moment_is_identity": at_identity,
        "dphi_rank": rank,
        "dphi_kernel_dim": p.frame_dim - rank,
        "omega_kernel_dim": minimal_degeneracy(p)["kernel_dim"],
    }


def change_frame(p: QHamPoint, s) -> QHamPoint:
    """The data of p in the frame u'_i = Σ_j s[j, i] u_j."""
    s = np.asarray(s, dtype=float)
    return QHamPoint(p.model, s.T @ p.omega @ s, p.phi, s.T @ p.dphi, np.linalg.solve(s, p.action))


# --------------------------------------------------------------------------- #
# the double through the swap extension

class SwapDoubleModel(_ProductModel):
    """Z2 ⋉ (G × G): pairs with an optional swap, as block matrices.

    (1, (g1, g2)) -> [[g1, 0], [0, g2]]; (σ, (g1, g2)) -> [[0, g1], [g2, 0]].
    The group law of the semidirect product is plain matrix multiplication;
    the Lie algebra, B and logarithm are those of G × G.
    """

    def __init__(self, base: GroupModel):
        super().__init__(base, base)
        self.name = f"z2wr-{base.name}"
        self.base = base

    def pair(self, g1, g2, swap: bool = False) -> np.ndarray:
        r = self.base.rep_dim
        out = np.zeros((2 * r, 2 * r), dtype=complex)
        if swap:
            out[:r, r:] = g1
            out[r:, :r] = g2
        else:
            out[:r, :r] = g1
            out[r:, r:] = g2
        return out


def symmetric_space_record(wreath: SwapDoubleModel, c) -> QHamPoint:
    """The base group as a zero-2-form moment space over the swap extension.

    Points are group elements c; the moment is c -> (σ, (c, c⁻¹)), whose
    image is the conjugacy class of the swap element.  The frame is the
    left-trivialized chart on c; the 2-form vanishes identically.
    """
    base = wreath.base
    db = base.dim
    c_inv = base.inv(c)
    ad_c = base.Ad(c, c_inv)
    dphi = np.hstack([(-ad_c).T, np.eye(db)])  # row i = (-Ad_c e_i, e_i)
    action = np.hstack([base.Ad_inverse(ad_c), -np.eye(db)])
    return QHamPoint(wreath, np.zeros((db, db)), wreath.pair(c, c_inv, swap=True), dphi, action)


def fuse_records(rec1: QHamPoint, rec2: QHamPoint) -> QHamPoint:
    """Fusion of two spaces over one group on the direct sum of their frames:
    Φ = Φ1 Φ2, ω = ω1 ⊕ ω2 + ½ B(dΦ1, Ad_Φ2 dΦ2) antisymmetrized, diagonal action."""
    model = rec1.model
    m1, m2 = rec1.frame_dim, rec2.frame_dim
    dphi1 = np.vstack([rec1.dphi, np.zeros((m2, model.dim))])
    dphi2 = np.vstack([np.zeros((m1, model.dim)), rec2.dphi])
    ad2 = model.Ad(rec2.phi)
    cross = 0.5 * dphi1 @ model.B @ ad2 @ dphi2.T
    omega = np.zeros((m1 + m2, m1 + m2))
    omega[:m1, :m1], omega[m1:, m1:] = rec1.omega, rec2.omega
    return QHamPoint(model, omega + (cross - cross.T), model.mul(rec1.phi, rec2.phi),
                     dphi1 @ model.Ad_inverse(ad2).T + dphi2,
                     np.vstack([rec1.action, rec2.action]))


def double_by_swap_extension(base: GroupModel, a, b) -> QHamPoint:
    """D(G) at (a, b) as the fusion of the records of a and c = b⁻¹ over Z2 ⋉ (G × G).

    Their fused moment (σ, (a, a⁻¹))·(σ, (c, c⁻¹)) = (1, (a c⁻¹, a⁻¹ c)) is
    (ab, a⁻¹b⁻¹) on the identity component G × G.  The frame moves from the
    chart on c to the left-trivialized chart on b = c⁻¹, whose vector e_i is
    -Ad_b e_i on c.
    """
    wreath = SwapDoubleModel(base)
    fused = fuse_records(symmetric_space_record(wreath, a),
                         symmetric_space_record(wreath, base.inv(b)))
    d = base.dim
    transport = np.zeros((2 * d, 2 * d))
    transport[:d, :d] = np.eye(d)
    transport[d:, d:] = -base.Ad(b)
    return change_frame(QHamPoint(product_model(base, base), fused.omega, fused.phi, fused.dphi,
                                  fused.action), transport)
