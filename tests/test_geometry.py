"""Invariant Dirac geometry: sections, forms, spinors, volumes, brackets."""

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    distance_from,
    graph_two_form_of,
    lie_derivative_residual,
    moment_form_field,
    phi_of_orthogonal,
    structure_trivector,
)
from purespin.bilinear import BilinearSpace, LagrangianSubspace, subspace_distance, transverse
from purespin.dirac import kappa_embed, spinors_of_orthogonal
from purespin.forms import fd_exterior_derivative, fd_exterior_derivative_flat
from purespin.geometry import (
    PinLift,
    _cubic_action,
    _pfaffians,
    cartan_dirac_fiber,
    cartan_dirac_integrability,
    cartan_section_bases,
    cartan_section_jet,
    class_point,
    class_points,
    conjugacy_volume_top,
    conjugacy_volume_tops,
    courant_bracket,
    eta_multivector,
    frame_volume_density,
    ghjw_matrix,
    ghjw_value,
    leaf_two_form_residual,
    pfaffian,
    random_class_point,
    random_class_points,
    section_matrix,
    su2_class_from_trace,
    volume_density_oracle,
)
from purespin.groups import get_model
from purespin.multivector import Multivector
from purespin.spinor import (
    DoubledSpace,
    from_mask_vector,
    mask_vector,
    null_space,
    rho_contravariant,
)


def _f_fiber(model, g, doubled) -> LagrangianSubspace:
    """F_g, spanned by the f-sections."""
    return LagrangianSubspace(doubled.space, cartan_section_bases(model, g)[1], check=False)


def _sharp(model, g, xi) -> np.ndarray:
    """ξ^♯(g) = (A_g - I) ξ in left-trivialized coordinates."""
    return (section_matrix(model, g) - np.eye(model.dim)) @ xi


class TestCartanSections:
    def test_values_at_identity(self, su2):
        e_mat, f_mat = cartan_section_bases(su2, su2.identity())
        assert np.linalg.norm(e_mat[:3]) < 1e-12
        assert np.allclose(e_mat[3:], np.eye(3))
        assert np.allclose(f_mat[:3], np.eye(3))
        assert np.linalg.norm(f_mat[3:]) < 1e-12

    def test_lagrangian_and_transverse(self, su2, rng):
        d = DoubledSpace(3)
        for _ in range(10):
            g = su2.random_element(rng)
            e = cartan_dirac_fiber(su2, g, d)
            f = _f_fiber(su2, g, d)
            assert e.is_lagrangian(1e-9) and f.is_lagrangian(1e-9)
            assert transverse(e, f)

    def test_fibers_are_kappa_images(self, su2, rng):
        d = DoubledSpace(3)
        b = BilinearSpace(su2.B)
        for _ in range(10):
            g = su2.random_element(rng)
            k = kappa_embed(section_matrix(su2, g), b)
            assert subspace_distance(cartan_dirac_fiber(su2, g, d).basis, k[:, 3:]) < 1e-10
            assert subspace_distance(_f_fiber(su2, g, d).basis, k[:, :3]) < 1e-10

    def test_range_is_class_tangent(self, su2, rng):
        g = su2.random_element(rng)
        pt = class_point(su2, g)
        s, _, _ = graph_two_form_of(cartan_dirac_fiber(su2, g))
        assert subspace_distance(s, pt.frame) < 1e-10

    def test_induced_form_is_the_class_form(self, su2, rng):
        # Prop-level invariant: the 2-form induced by the fiber on its range
        # coincides with the invariant class 2-form, pointwise
        for _ in range(10):
            g = su2.random_element(rng)
            e = cartan_dirac_fiber(su2, g)
            s, omega_e, _ = graph_two_form_of(e)
            gen = section_matrix(su2, g) - np.eye(3)
            params = np.linalg.lstsq(gen, s, rcond=None)[0]
            m = s.shape[1]
            gh = np.zeros((m, m))
            for i in range(m):
                for j in range(m):
                    gh[i, j] = ghjw_value(su2, g, params[:, i], params[:, j])
            assert np.linalg.norm(gh - omega_e) < 1e-10

    def test_su3_fibers(self, su3, rng):
        d = DoubledSpace(8)
        g = su3.random_element(rng, 0.6)
        e = cartan_dirac_fiber(su3, g, d)
        f = _f_fiber(su3, g, d)
        assert e.is_lagrangian(1e-8) and f.is_lagrangian(1e-8) and transverse(e, f)


class TestClassForm:
    def test_vanishes_at_identity(self, su2, rng):
        for _ in range(5):
            xi, zeta = su2.random_algebra(rng), su2.random_algebra(rng)
            assert abs(ghjw_value(su2, su2.identity(), xi, zeta)) < 1e-14

    def test_vanishes_on_square_central_class(self, su2, rng):
        # elements of trace zero square to the central -1
        g0 = su2_class_from_trace(0.0)
        pt = random_class_point(su2, g0, rng)
        assert np.linalg.norm(np.asarray(pt.g) @ np.asarray(pt.g) + np.eye(2)) < 1e-12
        assert np.linalg.norm(ghjw_matrix(pt)) < 1e-12

    def test_nonzero_on_generic_class(self, su2, rng):
        pt = random_class_point(su2, su2_class_from_trace(1.0), rng)
        assert np.linalg.norm(ghjw_matrix(pt)) > 1e-6

    def test_antisymmetric(self, su2, rng):
        g = su2.random_element(rng)
        xi, zeta = su2.random_algebra(rng), su2.random_algebra(rng)
        assert abs(ghjw_value(su2, g, xi, zeta) + ghjw_value(su2, g, zeta, xi)) < 1e-12

    def test_depends_only_on_generated_vectors(self, su2, rng):
        # shifting an argument by a centralizer direction changes nothing
        g = su2.random_element(rng)
        a = section_matrix(su2, g)
        from purespin.bilinear import nullspace_basis
        fixed = nullspace_basis(a - np.eye(3), scale=1.0)
        if fixed.shape[1]:
            xi, zeta = su2.random_algebra(rng), su2.random_algebra(rng)
            shifted = xi + fixed[:, 0]
            assert abs(ghjw_value(su2, g, xi, zeta)
                       - ghjw_value(su2, g, shifted, zeta)) < 1e-12


class TestEta:
    def test_abelian_vanishes(self, torus3):
        assert not eta_multivector(torus3)

    def test_su2_value(self, su2):
        # η(x,y,z) = -B(x,[y,z])/2 gives coefficient -1/2 on the basis triple
        eta = eta_multivector(su2)
        assert abs(eta.coeff((0, 1, 2)) + 0.5) < 1e-14

    def test_contraction_identity(self, su2, rng):
        # ι(ξ^♯) η = -d B((θ^L+θ^R)/2, ξ): the normalization-pinning contract
        eta = eta_multivector(su2)
        for _ in range(10):
            g = su2.random_element(rng)
            xi = su2.random_algebra(rng)
            lhs = eta.contract(list(_sharp(su2, g, xi)))
            rhs = fd_exterior_derivative(su2, moment_form_field(su2, xi), g).scale(-1.0)
            assert (lhs - rhs).norm() < 1e-4

    def test_d_eta_zero_on_su3(self, su3, rng):
        eta = eta_multivector(su3)
        g = su3.random_element(rng, 0.5)
        d_eta = fd_exterior_derivative(su3, lambda point: eta, g)
        assert d_eta.norm() < 1e-4

    def test_dd_vanishes(self, su2, rng):
        # d of an exact 1-form: d(df) ≈ 0
        g = su2.random_element(rng)

        def f_field(point):
            return Multivector.scalar(3, float(np.real(np.trace(point))))

        def df_field(point):
            return fd_exterior_derivative(su2, f_field, point, h=1e-4)

        ddf = fd_exterior_derivative(su2, df_field, g, h=1e-4)
        assert ddf.norm() < 1e-6

    def test_d_of_invariant_one_form(self, su2, rng):
        # for a constant-coefficient 1-form β, dβ(x, y) = -β([x, y])
        b = rng.standard_normal(3)
        beta = Multivector.from_vector(b)
        g = su2.random_element(rng)
        d_beta = fd_exterior_derivative(su2, lambda point: beta, g)
        expect = {}
        for i in range(3):
            for j in range(i + 1, 3):
                ei, ej = np.eye(3)[i], np.eye(3)[j]
                expect[(i, j)] = -float(b @ su2.bracket(ei, ej))
        assert (d_beta - Multivector(3, expect)).norm() < 1e-6

    def test_step_underflow_rejected(self, su2):
        with pytest.raises(ValueError):
            fd_exterior_derivative(su2, lambda p: Multivector.scalar(3), su2.identity(), h=0.0)
        with pytest.raises(ValueError):
            fd_exterior_derivative_flat(lambda x: Multivector.scalar(3), np.zeros(3), h=0.0)

    def test_bi_invariant_form_has_zero_lie_derivative(self, su2, rng):
        eta = eta_multivector(su2)
        xi = su2.random_algebra(rng)
        g = su2.random_element(rng)
        res = lie_derivative_residual(su2, lambda p: eta, g, lambda p: _sharp(su2, p, xi))
        assert res < 1e-4


class TestPinLiftForms:
    def test_identity_values(self, su2, su2_pin):
        psi, phi = su2_pin.forms_at(su2.identity())
        assert (psi - Multivector.scalar(3, 1.0)).norm() < 1e-12
        assert (phi - Multivector.top(3, 1.0)).norm() < 1e-12

    def test_su2_branch_matches_half_trace(self, su2, su2_pin, rng):
        for _ in range(10):
            g = su2.random_element(rng, 1.5)
            psi, _ = su2_pin.forms_at(g)
            assert abs(psi.scalar_part() - float(np.real(np.trace(g))) / 2) < 1e-9

    def test_null_spaces(self, su2, su2_pin, rng):
        d = DoubledSpace(3)
        g = su2.random_element(rng)
        psi, phi = su2_pin.forms_at(g)
        ns_psi, pure_psi = null_space(d, psi)
        ns_phi, pure_phi = null_space(d, phi)
        assert pure_psi and ns_psi.distance(_f_fiber(su2, g, d)) < 1e-10
        assert pure_phi and ns_phi.distance(cartan_dirac_fiber(su2, g, d)) < 1e-10

    def test_closed_form_agreement_up_to_sign(self, su2, su2_pin, rng):
        for _ in range(10):
            g = su2.random_element(rng)
            if abs(np.linalg.det(section_matrix(su2, g) + np.eye(3))) < 1e-3:
                continue
            psi, _ = su2_pin.forms_at(g)
            a = section_matrix(su2, g)
            closed = from_mask_vector(spinors_of_orthogonal(a[None], BilinearSpace(su2.B), "closed")[0][0])
            assert min((psi - closed).norm(), (psi + closed).norm()) < 1e-9

    def test_singular_locus_top_degree_dominant(self, su2, su2_pin):
        # at trace zero the degree-0 part dies and the 2-form part carries ψ
        g = su2_class_from_trace(0.0)
        psi, _ = su2_pin.forms_at(g)
        assert abs(psi.scalar_part()) < 1e-9
        assert psi.grade(2).norm() > 0.4

    def test_ad_invariance(self, su2, su2_pin, rng):
        for _ in range(5):
            g = su2.random_element(rng)
            h = su2.random_element(rng)
            conj = h @ g @ np.linalg.inv(h)
            psi_g, phi_g = su2_pin.forms_at(g)
            psi_c, phi_c = su2_pin.forms_at(conj)
            ad_h = su2.Ad(h)
            assert (psi_c.pullback(ad_h) - psi_g).norm() < 1e-8
            assert (phi_c.pullback(ad_h) - phi_g).norm() < 1e-8

    def test_so3_requires_unsigned_mode(self):
        from purespin.groups import so3_model
        so3 = so3_model()
        pin = PinLift(so3)
        with pytest.raises(ValueError):
            pin.forms_at(np.eye(3))
        psi, phi = pin.forms_at_unsigned(np.eye(3))
        assert psi.norm() > 0

    def test_central_elements_track_the_double_cover(self, su2, su2_pin):
        # -1 in the 2x2 model lifts to the nontrivial deck transformation,
        # so the invariant spinor there is the constant -1
        psi, phi = su2_pin.forms_at(-np.eye(2, dtype=complex))
        assert (psi + Multivector.scalar(3, 1.0)).norm() < 1e-12
        assert (phi + Multivector.top(3, 1.0)).norm() < 1e-12

    def test_su3_center_lifts_trivially(self, su3):
        # an order-three center admits no nontrivial sign character
        pin = PinLift(su3)
        psi, _ = pin.forms_at(np.exp(2j * np.pi / 3) * np.eye(3))
        assert (psi - Multivector.scalar(8, 1.0)).norm() < 1e-9

    def test_wrapped_logarithm_region(self, su3, rng):
        # elements whose principal matrix logarithm is not traceless still
        # get a coherent sign: the traceless logarithm moves one eigen-angle
        # by a whole turn
        angles = np.array([2.5, 2.5, 2 * np.pi - 5.0])
        h = su3.random_element(rng)
        g = h @ np.diag(np.exp(1j * angles)) @ np.linalg.inv(h)
        assert abs(np.angle(np.linalg.eigvals(g)).sum()) > 1  # indeed wrapped
        assert np.linalg.norm(su3.exp(su3.log(g)) - g) < 1e-12
        pin = PinLift(su3)
        psi, _ = pin.forms_at(g)
        d = DoubledSpace(8)
        ns, pure = null_space(d, psi)
        assert pure and ns.distance(_f_fiber(su3, g, d)) < 1e-8

    def test_su3_psi_pure_with_correct_null_space(self, su3, rng):
        pin = PinLift(su3)
        d = DoubledSpace(8)
        g = su3.random_element(rng, 0.5)
        psi, phi = pin.forms_at(g)
        ns, pure = null_space(d, psi)
        assert pure and ns.distance(_f_fiber(su3, g, d)) < 1e-8

    def test_su3_class_volume_nonzero(self, su3, rng):
        pin = PinLift(su3)
        pt = class_point(su3, su3.random_element(rng, 0.6))
        assert pt.class_dim in (4, 6)
        assert abs(conjugacy_volume_top(pt, pin)) > 1e-8


def _overlap(x: Multivector, y: Multivector) -> float:
    return sum(float(c) * float(y.terms.get(b, 0.0)) for b, c in x.terms.items())


def _equal_up_to_sign(x: Multivector, y: Multivector) -> float:
    return min((x - y).norm(), (x + y).norm()) / y.norm()


class TestSpinLiftExponential:
    """The spin-lift route against the independent reflection (Pin) route."""

    @staticmethod
    def _pin_route(model, g):
        a = section_matrix(model, g)
        b = BilinearSpace(model.B)
        psi = spinors_of_orthogonal(a[None], b, "reflections")[0][0]
        return from_mask_vector(psi), from_mask_vector(phi_of_orthogonal(a, b).form)

    def test_su3_matches_pin_route(self, su3, rng):
        pin = PinLift(su3)
        for scale in (0.5, 1.5, 3.0):
            g = su3.random_element(rng, scale)
            psi, phi = pin.forms_at(g)
            ref_psi, ref_phi = self._pin_route(su3, g)
            assert _equal_up_to_sign(psi, ref_psi) < 1e-10
            assert _equal_up_to_sign(phi, ref_phi) < 1e-10

    def test_semidirect_matches_pin_route(self, semidirect, rng):
        pin = PinLift(semidirect)
        for _ in range(4):
            g = semidirect.random_element(rng, 0.8)
            psi, phi = pin.forms_at(g)
            ref_psi, ref_phi = self._pin_route(semidirect, g)
            assert _equal_up_to_sign(psi, ref_psi) < 1e-10
            assert _equal_up_to_sign(phi, ref_phi) < 1e-10

    def test_so3_unsigned_matches_pin_route(self, rng):
        from purespin.groups import so3_model
        so3 = so3_model()
        pin = PinLift(so3)
        h = so3.random_element(rng)
        half_turn = h @ np.diag([1.0, -1.0, -1.0]) @ h.T  # eigenvalue -1 twice
        for g in [half_turn] + [so3.random_element(rng, 2.0) for _ in range(4)]:
            psi, phi = pin.forms_at_unsigned(g)
            ref_psi, ref_phi = self._pin_route(so3, g)
            assert _equal_up_to_sign(psi, ref_psi) < 1e-10
            assert _equal_up_to_sign(phi, ref_phi) < 1e-10

    def test_su3_sign_is_continuous_along_one_parameter_subgroups(self, su3, rng):
        # t -> exp(tξ) runs through the wrapped-logarithm region (t > 3/4 for
        # the diagonal direction) and past the central element at t = 1; the
        # lifted ψ must not jump to the other sign branch anywhere
        pin = PinLift(su3)
        h = su3.random_element(rng)
        diagonal = su3.coeffs(np.diag([1j, 1j, -2j]) * 2 * np.pi / 3)
        generic = su3.random_algebra(rng)
        generic *= 2 * np.pi / np.linalg.norm(generic)
        for xi in (diagonal, generic):
            prev = None
            for t in np.linspace(0.0, 1.5, 31):
                g = h @ su3.exp(t * xi) @ np.linalg.inv(h)
                psi, _ = pin.forms_at(g)
                if prev is not None:
                    assert _overlap(psi, prev) > 0.5 * psi.norm() * prev.norm(), t
                prev = psi
        center = pin.forms_at(h @ su3.exp(diagonal) @ np.linalg.inv(h))[0]
        assert (center - Multivector.scalar(8, 1.0)).norm() < 1e-9

    def test_element_outside_the_group_is_refused(self, su2, su2_pin):
        with pytest.raises(ValueError, match="no logarithm"):
            su2_pin.forms_at(np.diag([1j, 1j]))  # unitary but not special

    def test_element_outside_the_group_with_a_logarithm_in_the_algebra_is_refused(self, su2_pin):
        # the eigen-angle route gives x = 0 ∈ su(2), but exp 0 = I ≠ 2I
        with pytest.raises(ValueError, match="no logarithm"):
            su2_pin.forms_at(2.0 * np.eye(2))


class TestStencilLift:
    """forms_near's exact derivatives S_a·L(g) against the direct lift at g·exp(±h e_a)."""

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_matches_the_direct_lift(self, name, request, rng):
        # central differences of forms_at converge to the exact derivatives at O(h²)
        model = request.getfixturevalue(name)
        pin = PinLift(model)
        g = model.random_element(rng)
        center, derivatives = pin.forms_near(g)
        for got, expect in zip(center, pin.forms_at(g)):
            assert np.array_equal(got, mask_vector(expect))
        for a, exact in enumerate(zip(*derivatives)):  # exact = (X_a ψ, X_a φ)
            step = np.eye(model.dim)[a]
            gaps = []
            for h in (1e-3, 5e-4):
                plus = pin.forms_at(model.mul(g, model.exp(h * step)))
                minus = pin.forms_at(model.mul(g, model.exp(-h * step)))
                gaps.append([np.linalg.norm((mask_vector(p) - mask_vector(m)) / (2.0 * h) - x)
                             for p, m, x in zip(plus, minus, exact)])
            for k, x in enumerate(exact):
                scale = max(np.linalg.norm(x), 1.0)
                assert gaps[0][k] <= 10 * 1e-3 ** 2 * scale, (a, k)
                assert gaps[0][k] <= 1e-12 * scale or 3 <= gaps[0][k] / gaps[1][k] <= 5, (a, k)

    def test_refused_without_a_global_lift(self, rng):
        from purespin.groups import so3_model
        so3 = so3_model()
        pin = PinLift(so3)
        g = so3.random_element(rng)
        with pytest.raises(ValueError) as at:
            pin.forms_at(g)
        with pytest.raises(ValueError) as near:
            pin.forms_near(g)
        assert str(near.value) == str(at.value)

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_integrability_matches_the_group_derivative(self, name, request, rng):
        # fd_exterior_derivative of the directly lifted fields converges to the
        # exact residuals at second order
        model = request.getfixturevalue(name)
        pin = PinLift(model)
        eta = eta_multivector(model)
        g = model.random_element(rng)
        rep = cartan_dirac_integrability(model, g, pin)
        psi, phi = pin.forms_at(g)
        for k, (form, key) in enumerate(((psi, "psi_residual"), (phi, "phi_residual"))):
            gaps = [abs(rep[key] - (fd_exterior_derivative(
                model, lambda p: pin.forms_at(p)[k], g, h) + eta.wedge(form)).norm())
                for h in (1e-3, 5e-4)]
            scale = max(rep["psi_residual"], form.norm())
            assert gaps[0] <= 10 * 1e-3 ** 2 * scale, key
            assert 3 <= gaps[0] / gaps[1] <= 5, key
        # criterion 6's control
        assert rep["psi_residual"] >= 10 * rep["phi_residual"]

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_residuals_are_exact(self, name, request, rng):
        # φ is (d+η)-closed to roundoff, and the ψ residual is the cubic section
        # action to roundoff, with the one coefficient 1/4 on every model
        model = request.getfixturevalue(name)
        pin = PinLift(model)
        for _ in range(3):
            g = model.random_element(rng)
            rep = cartan_dirac_integrability(model, g, pin)
            assert rep["phi_residual"] <= 1e-12 * pin.forms_at(g)[1].norm()
            assert abs(rep["xi_fit_coefficient"] - 0.25) <= 1e-12
            assert rep["xi_fit_relative_residual"] <= 1e-12


class TestVolume:
    def test_central_class_density_is_unit(self, su2, su2_pin):
        pt = class_point(su2, -np.eye(2, dtype=complex))
        assert pt.class_dim == 0
        assert abs(conjugacy_volume_top(pt, su2_pin)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_trace_class_nonzero_density(self, su2, su2_pin, rng):
        for _ in range(20):
            pt = random_class_point(su2, su2_class_from_trace(0.0), rng)
            assert abs(conjugacy_volume_top(pt, su2_pin)) > 1e-6

    def test_oracle_agreement(self, su2, su2_pin, rng):
        for tr in (0.0, -0.9, 1.3):
            pt = random_class_point(su2, su2_class_from_trace(tr), rng)
            psi = su2_pin.forms_at(pt.g)[0]
            oracle = volume_density_oracle(ghjw_matrix(pt), psi, pt.frame)
            assert abs(conjugacy_volume_top(pt, su2_pin) - oracle) < 1e-9

    def test_density_is_a_spinor_pairing(self, su2, su2_pin, rng):
        # the frame density equals the pairing of e^{-ω} with the restricted ψ
        from purespin.spinor import chevalley_pairing
        pt = random_class_point(su2, su2_class_from_trace(0.5), rng)
        psi = su2_pin.forms_at(pt.g)[0].pullback(pt.frame)
        e_minus = (-Multivector.from_antisymmetric_matrix(ghjw_matrix(pt))).exp_wedge()
        pairing = float(chevalley_pairing(mask_vector(e_minus), mask_vector(psi)))
        assert abs(pairing - conjugacy_volume_top(pt, su2_pin)) < 1e-12

    def test_density_scales_with_frame_determinant(self, su2, su2_pin, rng):
        from purespin.geometry import ConjugacyClassPoint
        pt = random_class_point(su2, su2_class_from_trace(0.7), rng)
        s = rng.standard_normal((2, 2))
        while abs(np.linalg.det(s)) < 0.1:
            s = rng.standard_normal((2, 2))
        changed = ConjugacyClassPoint(su2, pt.g, pt.frame @ s, pt.params @ s, pt.section)
        d1 = conjugacy_volume_top(pt, su2_pin)
        d2 = conjugacy_volume_top(changed, su2_pin)
        assert abs(d2 - d1 * np.linalg.det(s)) < 1e-9 * max(1.0, abs(d1))

    def test_class_dimension_is_even(self, su2, rng):
        for _ in range(50):
            g = su2.random_element(rng, 2.0)
            assert class_point(su2, g).class_dim % 2 == 0

    def test_pfaffian_small_cases(self):
        a = np.array([[0.0, 3.0], [-3.0, 0.0]])
        assert pfaffian(a) == pytest.approx(3.0)
        b = np.zeros((4, 4))
        b[0, 1], b[1, 0] = 1.0, -1.0
        b[2, 3], b[3, 2] = 2.0, -2.0
        assert pfaffian(b) == pytest.approx(2.0)
        assert pfaffian(np.zeros((3, 3))) == 0.0


def _skew(rng, n):
    x = rng.standard_normal((n, n))
    return x - x.T


class TestFrameVolumeDensity:
    """The bordered-Pfaffian density against the independent minor expansion."""

    @staticmethod
    def _agrees_with_oracle(model, pin, pt):
        psi = (pin.forms_at(pt.g) if model.liftable else pin.forms_at_unsigned(pt.g))[0]
        omega = ghjw_matrix(pt)
        oracle = volume_density_oracle(omega, psi, pt.frame)
        density = frame_volume_density(omega, mask_vector(psi), pt.frame)
        assert abs(density - oracle) < 1e-10 * max(1.0, abs(oracle))
        return density

    def test_su3_class_points(self, su3, rng):
        pin = PinLift(su3)
        for _ in range(3):
            pt = random_class_point(su3, su3.random_element(rng), rng)
            assert pt.class_dim == 6
            assert abs(self._agrees_with_oracle(su3, pin, pt)) > 1e-6

    def test_semidirect_class_points(self, semidirect, rng):
        pin = PinLift(semidirect)
        for _ in range(3):
            pt = random_class_point(semidirect, semidirect.random_element(rng), rng)
            assert pt.class_dim > 0
            self._agrees_with_oracle(semidirect, pin, pt)

    def test_su2_singular_locus(self, su2, su2_pin, rng):
        # trace 0: det(A_g + I) = 0, where ψ has no Cayley-form expression
        for _ in range(5):
            pt = random_class_point(su2, su2_class_from_trace(0.0), rng)
            assert abs(np.linalg.det(section_matrix(su2, pt.g) + np.eye(3))) < 1e-9
            assert abs(self._agrees_with_oracle(su2, su2_pin, pt)) > 1e-6

    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_central_element_gives_the_scalar_part(self, name, su2, su3):
        model = {"su2": su2, "su3": su3}[name]
        n = model.basis[0].shape[0]
        g = np.exp(2j * np.pi / n) * np.eye(n)
        psi = PinLift(model).forms_at(g)[0]
        density = frame_volume_density(np.zeros((0, 0)), mask_vector(psi), np.zeros((model.dim, 0)))
        assert density == float(psi.scalar_part())
        assert abs(density) == pytest.approx(1.0, abs=1e-12)


def _greedy_pivots(gen: np.ndarray) -> list[int]:
    """The greedy pivot rule of the frames, one matrix at a time in plain loops."""
    scale = max(np.linalg.norm(gen, 2), 1.0)
    residual = [np.array(col, dtype=float) for col in gen.T]
    chosen = []
    while True:
        norms = [float(np.sqrt(r @ r)) for r in residual]
        top = max(norms)
        best = next(i for i, n in enumerate(norms) if n >= top - 64 * np.finfo(float).eps * scale)
        if norms[best] <= 1e3 * 1e-9 * scale:
            return chosen
        chosen.append(best)
        q = residual[best] / norms[best]
        residual = [r - (r @ q) * q for r in residual]


class TestStackedClassPoints:
    """Class points and densities of a stack against the same quantities one point at a time."""

    @staticmethod
    def _stacks(su2, su3, rng):
        h2 = su2.random_element(rng, count=20)
        h3 = su3.random_element(rng, count=20)
        # su3 at exp(0.7 X_8): four generator images of equal norm, a tie broken by index
        tie = su3.exp(0.7 * np.eye(8)[7])
        # a mixed-rank stack: two central elements among generic points
        mixed = np.concatenate([su3.random_element(rng, count=3),
                                [np.exp(2j * np.pi / 3) * np.eye(3)], su3.random_element(rng, count=2),
                                [np.eye(3, dtype=complex)]])
        return [(su2, h2 @ su2_class_from_trace(0.0) @ np.linalg.inv(h2)),
                (su3, h3 @ tie @ np.linalg.inv(h3)),
                (su3, mixed)]

    def test_stacked_frames_pick_the_per_point_pivots(self, su2, su3, rng):
        stacks = self._stacks(su2, su3, rng)
        for model, stack in stacks:
            points = class_points(model, stack)
            for g, pt in zip(stack, points):
                single = class_point(model, g)
                assert np.array_equal(pt.frame, single.frame)
                assert np.array_equal(pt.params, single.params)
                assert np.array_equal(pt.section, single.section)
                pivots = np.argmax(pt.params, axis=0).tolist()
                assert pivots == _greedy_pivots(section_matrix(model, g) - np.eye(model.dim))
        assert [pt.class_dim for pt in class_points(su3, stacks[2][1])] == [6, 6, 6, 0, 6, 6, 0]

    def test_stacked_draws_are_the_per_point_draws(self, su3):
        g0 = su3.exp(0.7 * np.eye(8)[7])
        stacked = random_class_points(su3, g0, np.random.default_rng(5), 6)
        rng = np.random.default_rng(5)
        for pt in stacked:
            single = random_class_point(su3, g0, rng)
            assert np.array_equal(pt.g, single.g) and np.array_equal(pt.frame, single.frame)

    @pytest.mark.parametrize("name", ["su2", "so3", "su3", "coadjoint-semidirect"])
    def test_stacked_densities_equal_single_densities_and_the_oracle(self, name, rng):
        model = get_model(name)
        pin = PinLift(model)
        g0 = su2_class_from_trace(0.4) if name == "su2" else model.random_element(rng)
        # and the identity: a class of dimension 0, stacked apart
        points = random_class_points(model, g0, rng, 5) + [class_point(model, model.identity())]
        stacked = conjugacy_volume_tops(points, pin)
        assert np.array_equal(stacked, [conjugacy_volume_top(pt, pin) for pt in points])
        for pt, density in zip(points, stacked):
            psi = (pin.forms_at(pt.g) if model.liftable else pin.forms_at_unsigned(pt.g))[0]
            oracle = volume_density_oracle(ghjw_matrix(pt), psi, pt.frame)
            oracle = oracle if model.liftable else abs(oracle)
            assert abs(density - oracle) <= 1e-12 * max(1.0, abs(oracle))


class TestPfaffianLTL:
    """The batched Parlett-Reid sweep against the recursive expansion."""

    def test_matches_recursive_expansion(self, rng):
        for n in range(0, 11, 2):
            stack = np.array([_skew(rng, n) for _ in range(3)])
            for a, pf in zip(stack, _pfaffians(stack)):
                assert pf == pytest.approx(pfaffian(a), rel=1e-10, abs=1e-12)

    def test_zero_leading_pivot(self, rng):
        for n in (4, 6, 8):
            a = _skew(rng, n)
            a[0, 1] = a[1, 0] = 0.0  # no pivoting would divide by zero here
            assert _pfaffians(a[None])[0] == pytest.approx(pfaffian(a), rel=1e-10, abs=1e-12)
            a[0, :] = a[:, 0] = 0.0  # no pivot at all: singular
            assert _pfaffians(a[None])[0] == 0.0

    def test_odd_and_empty_sizes(self, rng):
        for n in (1, 3, 5, 7):
            assert np.array_equal(_pfaffians(np.array([_skew(rng, n), _skew(rng, n)])), [0.0, 0.0])
        assert np.array_equal(_pfaffians(np.zeros((2, 0, 0))), [1.0, 1.0])

    def test_leaves_its_argument_alone(self, rng):
        a = np.array([_skew(rng, 6) for _ in range(3)])
        copy = a.copy()
        _pfaffians(a)
        assert np.array_equal(a, copy)

    def test_singular_matrices_leave_the_rest_of_the_stack_alone(self, rng):
        regular = [_skew(rng, 8) for _ in range(3)]
        alone = [_pfaffians(a[None])[0] for a in regular]
        zero_column = _skew(rng, 8)
        zero_column[:, 3] = zero_column[3, :] = 0.0  # singular at a later step
        stack = np.array([regular[0], np.zeros((8, 8)), regular[1], zero_column, regular[2]])
        with np.errstate(all="raise"):
            pf = _pfaffians(stack)
        assert np.all(np.isfinite(pf))
        assert pf[1] == 0.0 and pf[3] == 0.0
        assert np.array_equal(pf[[0, 2, 4]], alone)

    def test_symplectic_padding_changes_no_pfaffian(self, rng):
        for n in (0, 2, 4, 6):
            a = _skew(rng, n)
            for blocks in (1, 2, 3):
                padded = scipy.linalg.block_diag(a, *([[[0.0, 1.0], [-1.0, 0.0]]] * blocks))
                assert _pfaffians(padded[None])[0] == pytest.approx(
                    _pfaffians(a[None])[0], rel=1e-12, abs=1e-14)
                assert pfaffian(padded) == pytest.approx(pfaffian(a), rel=1e-12, abs=1e-14)


class TestIntegrability:
    def test_su2_phi_killed_psi_not(self, su2, su2_pin, rng):
        for _ in range(5):
            rep = cartan_dirac_integrability(su2, su2.random_element(rng), su2_pin)
            assert rep["phi_residual"] < 1e-4
            assert rep["psi_residual"] > 10 * max(rep["phi_residual"], 1e-12)
            assert rep["phi_same_parity_residual"] < 1e-8

    def test_structure_fit_constant_is_stable(self, su2, su2_pin, rng):
        lams = [cartan_dirac_integrability(su2, su2.random_element(rng), su2_pin)
                ["xi_fit_coefficient"] for _ in range(5)]
        assert max(lams) - min(lams) < 1e-6  # a single scalar fits all points

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_structure_action_against_the_sparse_route(self, name, request, rng):
        model = request.getfixturevalue(name)
        pin = PinLift(model)
        doubled = DoubledSpace(model.dim)
        for _ in range(2):
            g = model.random_element(rng)
            psi, _ = pin.forms_at(g)
            e_mat, _ = cartan_section_bases(model, g)
            expect = Multivector.zero(model.dim)
            for blade, coeff in structure_trivector(model).terms.items():
                img = psi
                for idx in reversed(blade):
                    img = rho_contravariant(doubled, e_mat[:, idx], img)
                expect = expect + img.scale(coeff)
            expect = mask_vector(expect)
            # the production route: T through the columns of e_mat·B⁻¹
            got = _cubic_action(model.invariant_tensor, e_mat @ model.B_inv, mask_vector(psi))
            assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect", "torus3"])
    def test_eta_wedge_against_the_sparse_route(self, name, request, rng):
        # the cubic ρ-action of η = -½T on the covector columns, against the dict wedge
        model = request.getfixturevalue(name)
        d = model.dim
        covectors = np.eye(2 * d, d, -d)
        eta = eta_multivector(model)
        blades = [tuple(i for i in range(d) if m >> i & 1) for m in range(1 << d)]
        for grade in range(d + 1):
            form = Multivector(d, {b: float(rng.standard_normal()) for b in blades if len(b) == grade})
            expect = mask_vector(eta.wedge(form))
            got = _cubic_action(-0.5 * model.invariant_tensor, covectors, mask_vector(form))
            assert np.abs(got - expect).max() <= 1e-14 * max(np.abs(expect).max(), 1.0), grade

    def test_abelian_everything_flat(self, torus3):
        pin = PinLift(torus3)
        g = torus3.exp([0.3, -0.2, 0.9])
        rep = cartan_dirac_integrability(torus3, g, pin)
        assert rep["phi_residual"] < 1e-10 and rep["psi_residual"] < 1e-10


def _constant_jet(value) -> tuple[np.ndarray, np.ndarray]:
    """A left-trivialized section that is constant: its rows X_a w vanish."""
    value = np.asarray(value, dtype=float)
    return value, np.zeros((value.size // 2, value.size))


def _fd_section_rows(model, g, xi, h):
    """Central quotients (e(ξ)(g e^{h e_a}) - e(ξ)(g e^{-h e_a})) / 2h, row a."""
    e = lambda point: cartan_section_jet(model, point, xi)[0]
    return np.array([(e(g @ model.exp(s)) - e(g @ model.exp(-s))) / (2 * h)
                     for s in h * np.eye(model.dim)])


class TestCourant:
    def test_abelian_constant_fields_commute(self, torus3, rng):
        w1 = _constant_jet([1.0, 0, 0, 0, 0, 0])
        w2 = _constant_jet([0, 1.0, 0, 0, 0, 0])
        br = courant_bracket(torus3, w1, w2)
        assert np.linalg.norm(br) <= 1e-15

    def test_left_invariant_fields_reduce_to_lie_bracket(self, su2, rng):
        xi, zeta = su2.random_algebra(rng), su2.random_algebra(rng)
        w1 = _constant_jet(np.concatenate([xi, np.zeros(3)]))
        w2 = _constant_jet(np.concatenate([zeta, np.zeros(3)]))
        br = courant_bracket(su2, w1, w2)
        assert np.linalg.norm(br[:3] - su2.bracket(xi, zeta)) <= 1e-13
        assert np.linalg.norm(br[3:]) <= 1e-15

    def test_closure_of_invariant_sections(self, su2, rng):
        eta = -0.5 * su2.invariant_tensor
        d = DoubledSpace(3)
        g = su2.random_element(rng)
        xi, zeta, chi = (su2.random_algebra(rng) for _ in range(3))
        br = courant_bracket(su2, cartan_section_jet(su2, g, xi),
                             cartan_section_jet(su2, g, zeta), eta=eta)
        assert abs(d.space.pairing(cartan_section_jet(su2, g, chi)[0], br)) <= 1e-13
        assert distance_from(cartan_dirac_fiber(su2, g, d), br) <= 1e-13

    @pytest.mark.parametrize("name", ["su3", "coadjoint-semidirect"])
    def test_closure_on_larger_models(self, name, rng):
        # E is closed under the η-twisted bracket on every model, to roundoff
        model = get_model(name)
        eta = -0.5 * model.invariant_tensor
        d = DoubledSpace(model.dim)
        for _ in range(3):
            g = model.random_element(rng, 0.8)
            xi, zeta, chi = (model.random_algebra(rng) for _ in range(3))
            br = courant_bracket(model, cartan_section_jet(model, g, xi),
                                 cartan_section_jet(model, g, zeta), eta=eta)
            assert abs(d.space.pairing(cartan_section_jet(model, g, chi)[0], br)) <= 1e-13
            assert distance_from(cartan_dirac_fiber(model, g, d), br) <= 1e-13

    def test_untwisted_bracket_does_not_close(self, su3, rng):
        # the control: without η the bracket of two e-sections leaves E.  (On su2
        # the vector parts (A - I)ξ span a plane, where η vanishes, so su3.)
        d = DoubledSpace(8)
        g = su3.random_element(rng, 0.8)
        xi, zeta = su3.random_algebra(rng), su3.random_algebra(rng)
        br = courant_bracket(su3, cartan_section_jet(su3, g, xi), cartan_section_jet(su3, g, zeta))
        assert distance_from(cartan_dirac_fiber(su3, g, d), br) > 1e-6

    def test_matches_the_finite_difference_bracket(self, su2, rng):
        # the derived bracket with d taken by the stencil on Multivector probes,
        # the route the exact partials replaced: the two agree to the stencil's O(h²)
        eta_tensor = -0.5 * su2.invariant_tensor
        eta = eta_multivector(su2)
        d = DoubledSpace(3)
        g = su2.random_element(rng)
        xi, zeta = su2.random_algebra(rng), su2.random_algebra(rng)
        fields = [lambda p, v=v: cartan_section_jet(su2, p, v)[0] for v in (xi, zeta)]
        exact = courant_bracket(su2, cartan_section_jet(su2, g, xi), cartan_section_jet(su2, g, zeta),
                                eta=eta_tensor)
        gaps = []
        for h in (1e-3, 5e-4):
            def d_plus_eta(field):
                return fd_exterior_derivative(su2, field, g, h) + eta.wedge(field(g))

            def bracket_on(probe):
                rho = lambda w, field: lambda p: rho_contravariant(d, w(p), field(p))
                const = lambda p: probe
                w1, w2 = fields
                x_probe = rho_contravariant(d, w2(g), d_plus_eta(const)) + d_plus_eta(rho(w2, const))
                return (rho_contravariant(d, w1(g), x_probe) - rho_contravariant(d, w2(g), d_plus_eta(rho(w1, const)))
                        - d_plus_eta(rho(w2, rho(w1, const))))

            alpha = bracket_on(Multivector.scalar(3, 1.0))
            stencil = np.array([bracket_on(Multivector(3, {(j,): 1})).scalar_part() for j in range(3)]
                               + [alpha.terms.get((i,), 0.0) for i in range(3)])
            gaps.append(np.linalg.norm(stencil - exact))
        assert gaps[0] <= 10 * 1e-3 ** 2 * np.linalg.norm(exact)
        assert 3 <= gaps[0] / gaps[1] <= 5


class TestSectionJets:
    @pytest.mark.parametrize("name", ["su2", "su3", "coadjoint-semidirect"])
    def test_rows_are_the_limit_of_central_quotients(self, name, rng):
        model = get_model(name)
        g = model.random_element(rng, 0.8)
        xi = model.random_algebra(rng)
        value, rows = cartan_section_jet(model, g, xi)
        assert np.abs(value - cartan_section_bases(model, g)[0] @ xi).max() <= 1e-15 * np.abs(value).max()
        gaps = [np.abs(_fd_section_rows(model, g, xi, h) - rows).max() for h in (1e-3, 5e-4)]
        assert gaps[0] <= 10 * 1e-3 ** 2 * np.abs(rows).max()
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5


class TestFormWrappers:
    def test_cartan_sections_per_argument(self, su2, rng):
        g = su2.random_element(rng)
        xi = su2.random_algebra(rng)
        e, f = (basis @ xi for basis in cartan_section_bases(su2, g))
        a, eye = section_matrix(su2, g), np.eye(3)
        assert np.allclose(e, cartan_section_jet(su2, g, xi)[0])
        assert np.allclose(f, np.concatenate([(eye + a) @ xi / 2, su2.B @ (a - eye) @ xi / 4]))


class TestLeafIdentity:
    def test_su2_classes_trivially_flat(self, su2, rng):
        # two-dimensional leaves carry no 3-forms; the identity degenerates to 0 = 0
        pt = random_class_point(su2, su2_class_from_trace(0.6), rng)
        assert leaf_two_form_residual(pt) < 1e-12

    def test_su3_generic_class(self, su3, rng):
        g = su3.random_element(rng, 0.7)
        pt = class_point(su3, g)
        assert pt.class_dim >= 4
        assert leaf_two_form_residual(pt) < 1e-4

    def test_semidirect_orbit_reduces_to_closed_form(self, semidirect, rng):
        mu = rng.standard_normal(3)
        g0 = np.eye(4)
        g0[:3, 3] = mu
        pt = random_class_point(semidirect, g0, rng)
        assert leaf_two_form_residual(pt) < 1e-8


class TestSemidirectLiouville:
    def test_class_volume_is_the_liouville_density(self, semidirect, rng):
        # on coadjoint-orbit classes the class volume reduces to the ordinary
        # Liouville density of the orbit symplectic form
        pin = PinLift(semidirect)
        for _ in range(10):
            mu = rng.standard_normal(3)
            g0 = np.eye(4)
            g0[:3, 3] = mu
            pt = random_class_point(semidirect, g0, rng)
            dens = conjugacy_volume_top(pt, pin)
            liouville = pfaffian(ghjw_matrix(pt))
            assert abs(dens - liouville) < 1e-10 * max(1.0, abs(liouville))
