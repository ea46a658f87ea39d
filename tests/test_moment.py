"""Moment-map verification: axioms, fusion, doubles, exponentials."""

from itertools import combinations

import numpy as np
import pytest

from oracles import (
    SwapDoubleModel,
    bracket,
    change_frame,
    dexp_frame_jets,
    double_by_swap_extension,
    eta_multivector,
    fused_three_form_residual,
    identity,
    homotopy_partials_by_quadrature,
    infinitesimal_invariance_residual,
    pairing,
    regular_value_report,
    structure_trivector,
    symmetric_space_record,
)
from purespin.geometry import (
    _FRAME_CUT,
    _PIVOT_TIE,
    ConjugacyClassPoint,
    PinLift,
    _pivoted_frames,
    class_point,
    conjugacy_volume_top,
    section_matrix,
    ghjw_matrix,
    random_class_point,
    su2_class_from_trace,
)
from purespin.cli import main
from purespin.groups import GroupModel, get_model, product_model
from purespin.moment import (
    _homotopy_partials,
    _tau_partials,
    DoubleFactory,
    QHamPoint,
    conjugacy_qham_point,
    exp_dirac_report,
    exp_orbit_qham_point,
    fuse,
    homotopy_two_form,
    kirillov_poisson_matrix,
    minimal_degeneracy,
    moment_condition_residual,
    mult_eta_identity_residual,
    qham_volume_top,
    strong_dirac_equivalence,
    tau_matrix,
)


@pytest.fixture(scope="module")
def factory(su2):
    return DoubleFactory(su2)


class TestMomentCondition:
    def test_classes_satisfy_it(self, su2, rng):
        for tr in (0.0, 0.5, -1.2):
            pt = random_class_point(su2, su2_class_from_trace(tr), rng)
            p = conjugacy_qham_point(su2, pt.g)
            assert moment_condition_residual(p) < 1e-10

    def test_single_point_space(self, su2):
        p = QHamPoint(su2, np.zeros((0, 0)), identity(su2), np.zeros((0, 3)), np.zeros((0, 3)))
        assert moment_condition_residual(p) == 0.0
        assert minimal_degeneracy(p)["original"]

    def test_detector_sensitivity(self, su2, rng):
        pt = random_class_point(su2, su2_class_from_trace(0.9), rng)
        p = conjugacy_qham_point(su2, pt.g)
        noise = 1e-3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        noisy = QHamPoint(su2, p.omega + noise, p.phi, p.dphi, p.action)
        res = moment_condition_residual(noisy)
        assert 1e-4 < res < 1e-2


class TestMinimalDegeneracy:
    def test_generic_class(self, su2, rng):
        p = conjugacy_qham_point(su2, random_class_point(su2, su2_class_from_trace(0.8), rng).g)
        md = minimal_degeneracy(p)
        assert md["original"] and md["elegant"] and md["consistent"]
        assert md["kernel_dim"] == 0

    def test_zero_trace_class_full_kernel(self, su2, rng):
        p = conjugacy_qham_point(su2, random_class_point(su2, su2_class_from_trace(0.0), rng).g)
        md = minimal_degeneracy(p)
        assert md["kernel_dim"] == 2
        assert md["original"] and md["elegant"] and md["consistent"]

    def test_broken_kernel_detected(self, su2, rng):
        # a degenerate 2-form whose kernel does not come from flipped directions
        pt = random_class_point(su2, su2_class_from_trace(0.8), rng)
        p = conjugacy_qham_point(su2, pt.g)
        md = minimal_degeneracy(QHamPoint(su2, np.zeros_like(p.omega), p.phi, p.dphi, p.action))
        assert not md["original"]


class TestEquivalence:
    def test_valid_points_agree_positively(self, su2, factory, rng):
        for _ in range(10):
            if rng.integers(2):
                p = conjugacy_qham_point(
                    su2, random_class_point(su2, su2_class_from_trace(float(rng.uniform(-1.5, 1.5))), rng).g)
            else:
                p = factory.fused_double_point(su2.random_element(rng), su2.random_element(rng))
            rep = strong_dirac_equivalence(p)
            assert rep["axioms"] and rep["dirac"] and rep["agree"]

    def test_perturbed_points_agree_negatively(self, su2, rng):
        for _ in range(10):
            p = conjugacy_qham_point(
                su2, random_class_point(su2, su2_class_from_trace(0.6), rng).g)
            noise = 1e-3 * rng.standard_normal((2, 2))
            noisy = QHamPoint(su2, p.omega + (noise - noise.T), p.phi, p.dphi, p.action)
            rep = strong_dirac_equivalence(noisy)
            assert not rep["axioms"] and not rep["dirac"] and rep["agree"]

    @pytest.mark.parametrize("name", ["su2", "so3", "su3", "coadjoint-semidirect"])
    def test_double_points_over_the_product(self, name, rng):
        # D(G) is q-Hamiltonian over G × G: valid points agree positively, noisy ones negatively
        model = get_model(name)
        factory = DoubleFactory(model)
        for _ in range(3):
            p = factory.double_point(model.random_element(rng), model.random_element(rng))
            rep = strong_dirac_equivalence(p)
            assert rep["axioms"] and rep["dirac"] and rep["agree"]
            noise = 1e-3 * rng.standard_normal(p.omega.shape)
            noisy = QHamPoint(p.model, p.omega + (noise - noise.T), p.phi, p.dphi, p.action)
            rep = strong_dirac_equivalence(noisy)
            assert not rep["axioms"] and not rep["dirac"] and rep["agree"]

    def test_perturbed_moment_differential_detected(self, su2, rng):
        p = conjugacy_qham_point(
            su2, random_class_point(su2, su2_class_from_trace(0.6), rng).g)
        noisy = QHamPoint(su2, p.omega, p.phi,
                          p.dphi + 1e-3 * rng.standard_normal(p.dphi.shape), p.action)
        rep = strong_dirac_equivalence(noisy)
        assert not rep["axioms"] and not rep["dirac"] and rep["agree"]


class TestFusion:
    def test_tau_at_identity_pair(self, su2, rng):
        xi1, xi2 = su2.random_algebra(rng), su2.random_algebra(rng)
        ze1, ze2 = su2.random_algebra(rng), su2.random_algebra(rng)
        val = np.concatenate([xi1, xi2]) @ tau_matrix(su2, identity(su2)) @ np.concatenate([ze1, ze2])
        expect = 0.5 * (pairing(su2, xi1, ze2) - pairing(su2, ze1, xi2))
        assert abs(val - expect) < 1e-12

    def test_tau_antisymmetric(self, su2, rng):
        g1, g2 = su2.random_element(rng), su2.random_element(rng)
        t = tau_matrix(su2, g2)
        assert np.linalg.norm(t + t.T) < 1e-12

    def test_fusing_with_trivial_factor_changes_nothing(self, su2, factory, rng):
        # a class point ⊕ the one-point space at the identity, over G × G
        pt = random_class_point(su2, su2_class_from_trace(0.4), rng)
        p = conjugacy_qham_point(su2, pt.g)
        zeros = np.zeros((p.frame_dim, 3))
        phi = np.zeros((4, 4), dtype=complex)
        phi[:2, :2], phi[2:, 2:] = p.phi, identity(su2)
        fused = fuse(QHamPoint(factory.product, p.omega, phi, np.hstack([p.dphi, zeros]),
                               np.hstack([p.action, zeros])))
        assert fused.model is su2
        assert np.linalg.norm(fused.omega - p.omega) < 1e-12
        assert np.linalg.norm(fused.phi - p.phi) < 1e-12
        assert np.linalg.norm(fused.dphi - p.dphi) < 1e-12
        assert np.linalg.norm(fused.action - p.action) < 1e-12

    def test_fuse_refuses_other_models(self, su2, rng):
        # G × H with H ≠ G, and a point over G itself
        mixed = product_model(su2, get_model("so3"))
        g = mixed.random_element(rng)
        p = QHamPoint(mixed, np.zeros((6, 6)), g, np.eye(6), np.eye(6))
        with pytest.raises(ValueError, match="fusion takes a point over G x G"):
            fuse(p)
        with pytest.raises(ValueError, match="fusion takes a point over G x G"):
            fuse(QHamPoint(su2, np.zeros((0, 0)), identity(su2), np.zeros((0, 3)), np.zeros((0, 3))))

    def test_mult_eta_identity(self, su2, factory, rng):
        for _ in range(3):
            a, b = su2.random_element(rng), su2.random_element(rng)
            assert mult_eta_identity_residual(su2, factory.product, a, b) <= 1e-13

    def test_abelian_identity_trivial(self, torus3):
        from purespin.groups import product_model
        prod = product_model(torus3, torus3)
        a = torus3.exp([0.2, 0.1, 0.0])
        b = torus3.exp([-0.3, 0.0, 0.5])
        assert mult_eta_identity_residual(torus3, prod, a, b) == 0.0


class TestDoubles:
    def test_symmetric_record_axioms(self, su2, rng):
        wr = SwapDoubleModel(su2)
        rec = symmetric_space_record(wr, su2.random_element(rng))
        assert moment_condition_residual(rec) < 1e-12
        md = minimal_degeneracy(rec)
        assert md["original"] and md["elegant"]

    def test_symmetric_record_moment_squares_central(self, su2, rng):
        wr = SwapDoubleModel(su2)
        rec = symmetric_space_record(wr, su2.random_element(rng))
        sq = rec.phi @ rec.phi
        assert np.linalg.norm(sq - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("name", ["su2", "so3", "su3", "coadjoint-semidirect"])
    def test_closed_form_is_the_fusion_of_records(self, name, rng):
        # ω, Φ, dΦ and the action against the swap-extension derivation of the oracles
        model = get_model(name)
        factory = DoubleFactory(model)
        for _ in range(5):
            a, b = model.random_element(rng), model.random_element(rng)
            p, q = factory.double_point(a, b), double_by_swap_extension(model, a, b)
            assert p.model is factory.product
            for field in ("omega", "phi", "dphi", "action"):
                assert np.abs(getattr(p, field) - getattr(q, field)).max() <= 1e-13, field

    def test_double_moment_components(self, su2, factory, rng):
        a, b = su2.random_element(rng), su2.random_element(rng)
        p = factory.double_point(a, b)
        mat = np.asarray(p.phi)
        assert np.linalg.norm(mat[:2, :2] - a @ b) < 1e-12
        assert np.linalg.norm(mat[2:, 2:] - np.linalg.inv(a) @ np.linalg.inv(b)) < 1e-12

    def test_double_axioms(self, su2, factory, rng):
        for _ in range(5):
            p = factory.double_point(su2.random_element(rng), su2.random_element(rng))
            assert moment_condition_residual(p) < 1e-10
            md = minimal_degeneracy(p)
            assert md["original"] and md["elegant"] and md["consistent"]

    def test_fused_double_moment_is_commutator(self, su2, factory, rng):
        a, b = su2.random_element(rng), su2.random_element(rng)
        p = factory.fused_double_point(a, b)
        comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        assert np.linalg.norm(p.phi - comm) < 1e-12

    def test_fused_double_axioms(self, su2, factory, rng):
        for _ in range(10):
            p = factory.fused_double_point(su2.random_element(rng), su2.random_element(rng))
            assert moment_condition_residual(p) < 1e-8
            md = minimal_degeneracy(p)
            assert md["original"] and md["elegant"] and md["consistent"]

    def test_fused_three_form_identity(self, su2, factory, rng):
        a, b = su2.random_element(rng), su2.random_element(rng)
        assert fused_three_form_residual(factory, a, b) < 1e-4

    def test_fused_double_at_degenerate_parameters(self, su2, factory, rng):
        # identity pair, commuting pair, central argument: the moment value has
        # no flipped directions there, so the 2-form must be nondegenerate
        cases = [
            (identity(su2), identity(su2)),
            (su2.exp(np.array([0.7, 0, 0])), su2.exp(np.array([1.1, 0, 0]))),
            (-identity(su2), su2.random_element(rng)),
        ]
        for a, b in cases:
            p = factory.fused_double_point(a, b)
            assert moment_condition_residual(p) < 1e-10
            md = minimal_degeneracy(p)
            assert md["kernel_dim"] == 0 and md["original"] and md["elegant"]


    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_b_is_inverted_once(self, name, request, rng, monkeypatch):
        # a and b for the double, plus the second moment component in the
        # fusion for a fused double
        model = request.getfixturevalue(name)
        factory = DoubleFactory(model)
        a, b = model.random_element(rng), model.random_element(rng)
        calls = []
        inv = GroupModel.inv
        monkeypatch.setattr(GroupModel, "inv", lambda self, g: calls.append(1) or inv(self, g))
        factory.double_point(a, b)
        assert len(calls) == 2
        calls.clear()
        factory.fused_double_point(a, b)
        assert len(calls) == 3


class TestFrameIndependence:
    def test_residuals_and_verdicts_stable(self, su2, factory, rng):
        p = factory.fused_double_point(su2.random_element(rng), su2.random_element(rng))
        s = rng.standard_normal((6, 6))
        while abs(np.linalg.det(s)) < 0.05:
            s = rng.standard_normal((6, 6))
        q = change_frame(p, s)
        assert moment_condition_residual(q) < 1e-6
        md_p, md_q = minimal_degeneracy(p), minimal_degeneracy(q)
        assert md_p["original"] == md_q["original"]
        assert md_p["kernel_dim"] == md_q["kernel_dim"]

    def test_density_transforms_by_determinant(self, su2, su2_pin, factory, rng):
        p = factory.fused_double_point(su2.random_element(rng), su2.random_element(rng))
        s = rng.standard_normal((6, 6))
        while abs(np.linalg.det(s)) < 0.05:
            s = rng.standard_normal((6, 6))
        d1 = qham_volume_top(p, su2_pin)
        d2 = qham_volume_top(change_frame(p, s), su2_pin)
        assert abs(d2 - d1 * np.linalg.det(s)) < 1e-8 * max(1.0, abs(d1 * np.linalg.det(s)))

    def test_su3_fused_double_density_transforms_by_determinant(self, su3, rng):
        pin = PinLift(su3)
        p = DoubleFactory(su3).fused_double_point(su3.random_element(rng),
                                                  su3.random_element(rng))
        s = np.eye(16) + 0.3 * rng.standard_normal((16, 16))
        det = np.linalg.det(s)
        assert abs(det) > 0.05
        d1 = qham_volume_top(p, pin)
        d2 = qham_volume_top(change_frame(p, s), pin)
        assert abs(abs(d1) - 1.0) < 1e-8
        assert abs(d2 - d1 * det) < 1e-8 * max(1.0, abs(d1 * det))


class TestVolumes:
    def test_class_routes_agree(self, su2, su2_pin, rng):
        for tr in (0.0, 0.8):
            pt = random_class_point(su2, su2_class_from_trace(tr), rng)
            p = conjugacy_qham_point(su2, pt.g)
            direct = conjugacy_volume_top(pt, su2_pin)
            via_moment = qham_volume_top(
                QHamPoint(su2, ghjw_matrix(pt), pt.g, pt.frame.T, p.action), su2_pin)
            assert abs(direct - via_moment) < 1e-10

    def test_point_density_is_unit(self, su2, su2_pin):
        p = QHamPoint(su2, np.zeros((0, 0)), identity(su2), np.zeros((0, 3)), np.zeros((0, 3)))
        assert abs(qham_volume_top(p, su2_pin)) == pytest.approx(1.0)

    def test_fused_double_density_nonzero(self, su2, su2_pin, factory, rng):
        for _ in range(10):
            p = factory.fused_double_point(su2.random_element(rng), su2.random_element(rng))
            assert abs(qham_volume_top(p, su2_pin)) > 1e-10


class TestInfinitesimalInvariance:
    def test_class_form_is_invariant(self, su2, rng):
        g0 = random_class_point(su2, su2_class_from_trace(0.7), rng).g
        base = conjugacy_qham_point(su2, g0)
        xi = su2.random_algebra(rng)

        def builder(h):
            # transport the carrier point and rebuild with the transported frame
            moved = h @ g0 @ np.linalg.inv(h)
            from purespin.geometry import ConjugacyClassPoint
            from purespin.geometry import ghjw_matrix as gm
            frame = su2.Ad(h) @ base.dphi.T
            section = su2.Ad(np.linalg.inv(moved))
            params = np.linalg.lstsq(section - np.eye(3), frame, rcond=None)[0]
            pt = ConjugacyClassPoint(su2, moved, frame, params, section)
            return QHamPoint(su2, gm(pt), moved, frame.T, np.zeros((2, 3)))

        assert infinitesimal_invariance_residual(builder, base, xi) < 1e-6


class TestRegularValue:
    def test_commuting_pair_maps_to_identity(self, su2, factory, rng):
        # commuting arguments put the fused-double moment at the identity
        x = su2.random_algebra(rng)
        a, b = su2.exp(x), su2.exp(0.6 * x)
        p = factory.fused_double_point(a, b)
        rep = regular_value_report(p)
        assert rep["moment_is_identity"]
        assert rep["dphi_rank"] + rep["dphi_kernel_dim"] == p.frame_dim

    def test_generic_pair_not_at_identity(self, su2, factory, rng):
        p = factory.fused_double_point(su2.random_element(rng), su2.random_element(rng))
        rep = regular_value_report(p)
        assert not rep["moment_is_identity"]
        assert rep["dphi_rank"] == 3 and rep["omega_kernel_dim"] == 0


HOMOTOPY_MODELS = ["su2", "so3", "su3", "coadjoint-semidirect", "torus3"]
HOMOTOPY_SCALES = (0.1, 0.7, 1.5, 3.0)


def _homotopy_model(name: str, request) -> GroupModel:
    # torus3, the abelian control where ϖ = 0, is a test fixture, not a registered model
    return request.getfixturevalue(name) if name == "torus3" else get_model(name)


class TestExponential:
    def test_kirillov_matrix_antisymmetric(self, su2, rng):
        p = kirillov_poisson_matrix(su2, su2.random_algebra(rng))
        assert np.linalg.norm(p + p.T) < 1e-12

    @pytest.mark.parametrize("group", ["su2", "so3", "su3", "coadjoint-semidirect"])
    def test_exp_reports_are_byte_identical(self, group, tmp_path):
        reports = []
        for run in range(2):
            path = tmp_path / f"exp-{run}.json"
            main(["qham", "verify", "--space", "exp", "--group", group, "--samples", "3",
                  "--seed", "7", "--out", str(path)])
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_homotopy_form_vanishes_at_origin(self, su2):
        assert np.linalg.norm(homotopy_two_form(su2, np.zeros(3))) < 1e-12

    @pytest.mark.parametrize("name", HOMOTOPY_MODELS)
    def test_homotopy_form_matches_quadrature_of_eta(self, name, request, rng):
        # ϖ_x(e_i, e_j) = ∫₀¹ t² η(F x, F e_i, F e_j) dt, F = dexp_frame(t x), by 32 Gauss-Legendre nodes
        model = _homotopy_model(name, request)
        eta = eta_multivector(model)
        ts, ws = np.polynomial.legendre.leggauss(32)
        for scale in HOMOTOPY_SCALES:
            x = model.random_algebra(rng, scale)
            expect = np.zeros((model.dim, model.dim))
            for t, w in zip(0.5 * (ts + 1.0), 0.5 * ws):
                frame = model.dexp_frame(t * x)
                for i in range(model.dim):
                    for j in range(model.dim):
                        expect[i, j] += w * t * t * eta.evaluate([frame @ x, frame[:, i], frame[:, j]])
            got = homotopy_two_form(model, x)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), scale
            # the ϖ the partials' blocks carry, and the partials against the product rule summed
            # over the same nodes
            w, partials = _homotopy_partials(model, x)
            assert np.abs(w - expect).max() <= 1e-13 * np.abs(expect).max(), scale
            expect = homotopy_partials_by_quadrature(model, x)
            assert np.abs(partials - expect).max() <= 1e-13 * np.abs(expect).max(), scale

    def test_origin_conditions_exact(self, su2):
        rep = exp_dirac_report(su2, 1e-8 * np.ones(3))
        assert rep["exterior_residual"] <= 1e-13
        assert rep["dirac_distance"] < 1e-8 and rep["strong"]

    def test_abelian_trivial(self, torus3):
        rep = exp_dirac_report(torus3, np.array([0.4, -0.2, 0.1]))
        assert rep["exterior_residual"] == 0.0
        assert rep["dirac_distance"] < 1e-10 and rep["strong"]

    def test_random_points(self, su2, rng):
        for _ in range(5):
            rep = exp_dirac_report(su2, su2.random_algebra(rng, 0.8))
            assert rep["exterior_residual"] <= 1e-13
            assert rep["dirac_distance"] < 1e-8 and rep["strong"]

    def test_outside_natural_domain_rejected(self, su2):
        xi = np.array([2 * np.pi, 0.0, 0.0])  # first singular radius of exp
        with pytest.raises(ValueError):
            exp_dirac_report(su2, xi)

    def test_exp_orbit_point_is_q_hamiltonian(self, su2, rng):
        for _ in range(5):
            p = exp_orbit_qham_point(su2, su2.random_algebra(rng, 0.9))
            assert moment_condition_residual(p) < 1e-8
            md = minimal_degeneracy(p)
            assert md["original"] and md["elegant"]
            assert strong_dirac_equivalence(p)["agree"]


class TestInvariantTensorReaders:
    """Each reader of ``GroupModel.invariant_tensor`` against its per-entry
    ``pairing(…, bracket(…))`` definition."""

    @staticmethod
    def _entrywise(model, x, vectors) -> np.ndarray:
        return np.array([[pairing(model, x, bracket(model, u, v)) for v in vectors.T]
                         for u in vectors.T])

    @pytest.mark.parametrize("name", ["su2", "su3", "coadjoint-semidirect"])
    def test_trivectors(self, name):
        model = get_model(name)
        eye, raised = np.eye(model.dim), model.B_inv
        eta = eta_multivector(model).terms
        trivector = structure_trivector(model).terms
        for i, j, k in combinations(range(model.dim), 3):
            expect_eta = -0.5 * pairing(model, eye[i], bracket(model, eye[j], eye[k]))
            expect_tri = pairing(model, raised[:, i], bracket(model, raised[:, j], raised[:, k]))
            assert abs(eta.get((i, j, k), 0.0) - expect_eta) <= 1e-15
            assert abs(trivector.get((i, j, k), 0.0) - expect_tri) <= 1e-15

    @pytest.mark.parametrize("name", ["su2", "su3", "coadjoint-semidirect"])
    def test_poisson_and_orbit_forms(self, name, rng):
        model = get_model(name)
        for _ in range(3):
            x = model.random_algebra(rng, 0.8)
            poisson = self._entrywise(model, x, model.B_inv)
            assert np.abs(kirillov_poisson_matrix(model, x) - poisson).max() <= 1e-15
            # ω = KKS block on the orbit frame z + the homotopy form on its image u
            u, z = _pivoted_frames(-model.ad(x)[None])[0]
            kks = self._entrywise(model, x, z)
            omega = kks + u.T @ homotopy_two_form(model, x) @ u
            assert np.abs(exp_orbit_qham_point(model, x).omega - omega).max() <= 1e-15


class TestRankDeficientFrames:
    """Pivoted frames on su3 where the generator matrix drops rank.

    exp(t X_8) and t e_8 have centralizer u(2), so their class and orbit are
    4-dimensional; a generic element gives 6 and the origin 0.
    """

    @staticmethod
    def _assert_q_hamiltonian(p):
        assert moment_condition_residual(p) < 1e-8
        md = minimal_degeneracy(p)
        assert md["original"] and md["elegant"]

    @pytest.mark.parametrize("t", [0.7, 1.3, 2.0])
    def test_degenerate_class(self, su3, t):
        g = su3.exp(t * np.eye(8)[7])
        pt = class_point(su3, g)
        assert pt.class_dim == 4
        gen = section_matrix(su3, g) - np.eye(8)
        assert np.array_equal(pt.frame, gen @ pt.params)
        assert np.linalg.matrix_rank(pt.frame) == 4
        self._assert_q_hamiltonian(conjugacy_qham_point(su3, g))

    @staticmethod
    def _loop_pivots(gen):
        """The column-by-column greedy loop the vectorized frame replaces, with its
        tie rule: the lowest index among norms within roundoff of the largest."""
        residual = [gen[:, i].copy() for i in range(gen.shape[1])]
        scale = max(np.linalg.norm(gen, 2), 1.0)
        chosen = []
        while True:
            norms = [np.linalg.norm(r) for r in residual]
            best = next(i for i, x in enumerate(norms) if x >= max(norms) - _PIVOT_TIE * scale)
            if norms[best] <= _FRAME_CUT * scale:
                return chosen
            chosen.append(best)
            q = residual[best] / norms[best]
            residual = [r - (q @ r) * q for r in residual]

    def test_vectorized_frame_picks_the_loop_pivots(self, su3, rng):
        # the four generator images of exp(t X_8) have equal norms up to roundoff,
        # so the order of the pivots is decided by the tie rule, not by the last
        # bits of those norms; A_g comes from Ad and, with other last bits, basis
        # element by basis element as g⁻¹·x·inv(g⁻¹)
        gens = []
        for t in (0.5, 0.7, 1.3, 2.0, 2.5):
            g_inv = np.linalg.inv(su3.exp(t * np.eye(8)[7]))
            per_basis = [su3.coeffs(g_inv @ x @ np.linalg.inv(g_inv)) for x in su3.basis]
            gens += [su3.Ad(g_inv) - np.eye(8), np.array(per_basis).T - np.eye(8)]
        gens += [-su3.ad(x) for x in (0.9 * np.eye(8)[7], su3.random_algebra(rng, 0.8), np.zeros(8))]
        for gen in gens:
            frame, params = _pivoted_frames(gen[None])[0]
            pivots = self._loop_pivots(gen)
            assert np.array_equal(params, np.eye(8)[:, pivots])
            assert np.array_equal(frame, gen[:, pivots]) and frame.flags.f_contiguous

    def test_both_section_routes_give_one_frame_and_density(self, su3):
        # at exp(0.7 X_8) the two routes to A_g differ in their last bits; the pivots,
        # so the frame's orientation and the sign of the density, must not
        pin = PinLift(su3)
        g = su3.exp(0.7 * np.eye(8)[7])
        g_inv = np.linalg.inv(g)
        per_basis = np.array([su3.coeffs(g_inv @ x @ np.linalg.inv(g_inv)) for x in su3.basis]).T
        routes = [su3.Ad(g_inv), per_basis]
        assert not np.array_equal(*routes)
        points = [ConjugacyClassPoint(su3, g, *_pivoted_frames((a - np.eye(8))[None])[0], a) for a in routes]
        assert np.array_equal(points[0].params, points[1].params)
        assert np.array_equal(points[0].params, class_point(su3, g).params)
        d0, d1 = (conjugacy_volume_top(p, pin) for p in points)
        assert abs(d0) > 0.1 and abs(d0 - d1) < 1e-12 * abs(d0)

    def test_exp_orbit_frames(self, su3, rng):
        cases = [(0.9 * np.eye(8)[7], 4), (su3.random_algebra(rng, 0.8), 6), (np.zeros(8), 0)]
        for x, dim in cases:
            p = exp_orbit_qham_point(su3, x)
            assert p.frame_dim == dim
            self._assert_q_hamiltonian(p)


LARGER = ["su3", "coadjoint-semidirect"]
MODELS = ["su2"] + LARGER


def _gaps(exact: np.ndarray, quotient) -> list[float]:
    """Largest gap between the exact partials and the central quotients at h and h/2."""
    return [float(np.abs(quotient(h) - exact).max()) for h in (1e-3, 5e-4)]


def _second_order(gaps: list[float], exact: np.ndarray) -> bool:
    # O(h²): halving h quarters the gap
    return gaps[0] <= 10 * 1e-3 ** 2 * np.abs(exact).max() and 3.5 <= gaps[0] / gaps[1] <= 4.5


class TestExactPartials:
    """Each exact partial against central differences: the gap falls as h²."""

    @pytest.mark.parametrize("name", MODELS)
    def test_tau_partials(self, name, rng):
        base = get_model(name)
        d = base.dim
        b = base.random_element(rng, 0.8)
        exact = _tau_partials(base, tau_matrix(base, b))
        # τ does not depend on the first factor; along e_c of the second it moves with b·exp(t e_c)
        assert not exact[:d].any()

        def quotient(h):
            steps = h * np.eye(d)
            return np.concatenate([np.zeros((d, 2 * d, 2 * d)), [
                (tau_matrix(base, b @ base.exp(s)) - tau_matrix(base, b @ base.exp(-s))) / (2 * h)
                for s in steps]])

        assert _second_order(_gaps(exact, quotient), exact)

    @pytest.mark.parametrize("name", MODELS)
    def test_dexp_frame_partials(self, name, rng):
        model = get_model(name)
        x = model.random_algebra(rng, 0.7)
        ts = np.array([0.25, 1.0])
        frames, exact = dexp_frame_jets(model, ts, x)
        assert np.abs(frames[:, 0] - model.dexp_frame(ts[:, None] * x)).max() <= 1e-14

        def quotient(h):
            steps = h * np.eye(model.dim)
            return np.array([[(model.dexp_frame(t * (x + s)) - model.dexp_frame(t * (x - s))) / (2 * h)
                              for s in steps] for t in ts])

        assert _second_order(_gaps(exact, quotient), exact)

    @pytest.mark.parametrize("name", MODELS)
    def test_homotopy_form_partials(self, name, rng):
        model = get_model(name)
        x = model.random_algebra(rng, 0.7)
        exact = _homotopy_partials(model, x)[1]

        def quotient(h):
            return np.array([(homotopy_two_form(model, x + s) - homotopy_two_form(model, x - s)) / (2 * h)
                             for s in h * np.eye(model.dim)])

        assert _second_order(_gaps(exact, quotient), exact)


class TestIdentitiesOnLargerModels:
    @pytest.mark.parametrize("name", LARGER)
    def test_mult_eta_identity(self, name, rng):
        base = get_model(name)
        prod = product_model(base, base)
        for _ in range(3):
            a, b = base.random_element(rng, 0.8), base.random_element(rng, 0.8)
            assert mult_eta_identity_residual(base, prod, a, b) <= 1e-13

    @pytest.mark.parametrize("name", LARGER)
    def test_exponential_theorem(self, name, rng):
        model = get_model(name)
        for _ in range(3):
            assert exp_dirac_report(model, model.random_algebra(rng, 0.7))["exterior_residual"] <= 1e-13
