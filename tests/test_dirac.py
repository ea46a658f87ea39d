"""Linear Dirac structures, Dirac maps, and the orthogonal-map spinor family."""

import numpy as np
import pytest

from oracles import (
    from_antisymmetric_matrix,
    gauge_transform_spinor,
    graph_of_bivector,
    graph_two_form_of,
    phi_of_orthogonal,
    pullback_transversality,
    pushforward,
    regular_group_action,
    swap_halves,
    top_form,
    v_subspace,
)
from purespin.bilinear import (
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
    random_orthogonal,
    subspace_distance,
)
from purespin.dirac import (
    _cayley_two_form,
    dirac_image,
    dirac_preimage,
    gauge_transform,
    graph_of_bivector_subspace,
    graph_of_two_form,
    is_strong_dirac,
    kappa_embed,
    kappa_lagrangians,
    spinor_of_orthogonal,
    spinors_of_orthogonal,
)
from purespin.multivector import Multivector
from purespin.spinor import (
    DoubledSpace,
    chevalley_pairing,
    from_mask_vector,
    mask_vector,
    null_space,
    spinor_of_lagrangian,
)


def _random_lagrangian(doubled, rng):
    n = doubled.n
    k = kappa_embed(random_orthogonal(n, rng), BilinearSpace(np.eye(n)))
    cols = k[:, :n] if rng.integers(2) else k[:, n:]
    return LagrangianSubspace(doubled.space, cols, check=False)


def _antisym(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


class TestBivectorGraphs:
    def test_zero_bivector_gives_volume(self):
        d = DoubledSpace(3)
        ps = graph_of_bivector(d, np.zeros((3, 3)))
        assert from_mask_vector(ps.form).terms == {(0, 1, 2): 1.0}
        assert ps.null.distance(d.v_star_subspace()) < 1e-12

    def test_n2_scalar_shift(self):
        d = DoubledSpace(2)
        c = 1.8
        pi = np.array([[0.0, c], [-c, 0.0]])
        ps = graph_of_bivector(d, pi)
        assert (from_mask_vector(ps.form) - Multivector(2, {(0, 1): 1.0, (): -c})).norm() < 1e-12
        assert ps.null.distance(graph_of_bivector_subspace(d, pi)) < 1e-10

    def test_invertible_bivector_transverse_to_v_star(self, rng):
        d = DoubledSpace(2)
        for c in (0.0, 2.0):
            pi = np.array([[0.0, c], [-c, 0.0]])
            ps = graph_of_bivector(d, pi)
            pairing = chevalley_pairing(mask_vector(top_form(2)), ps.form)
            is_transverse = abs(float(pairing)) > 1e-8
            assert is_transverse == (abs(np.linalg.det(pi)) > 1e-12)


class TestGauge:
    def test_zero_is_identity(self, rng):
        d = DoubledSpace(3)
        lag = _random_lagrangian(d, rng)
        assert gauge_transform(lag, np.zeros((3, 3))).distance(lag) < 1e-12

    def test_tangent_space_becomes_graph(self, rng):
        d = DoubledSpace(3)
        tau = _antisym(rng, 3)
        out = gauge_transform(v_subspace(d), tau)
        assert out.distance(graph_of_two_form(d, tau)) < 1e-10

    def test_spinor_and_subspace_routes_agree(self, rng):
        d = DoubledSpace(3)
        for _ in range(20):
            lag = _random_lagrangian(d, rng)
            tau = _antisym(rng, 3)
            phi = from_mask_vector(spinor_of_lagrangian(d, lag).form)
            transformed = gauge_transform_spinor(phi, tau)
            sub, pure = null_space(d, transformed)
            assert pure
            assert subspace_distance(sub.basis, gauge_transform(lag, tau).basis) < 1e-9


class TestDiracImages:
    def test_identity_map(self, rng):
        d = DoubledSpace(3)
        lag = _random_lagrangian(d, rng)
        image, strong = dirac_image(np.eye(3), lag, d)
        assert strong and image.distance(lag) < 1e-10
        pre, nonzero = dirac_preimage(np.eye(3), lag, d)
        assert nonzero and pre.distance(lag) < 1e-10

    def test_collapse_strong_iff_nondegenerate(self, rng):
        d = DoubledSpace(2)
        a = np.zeros((0, 2))
        pi = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert is_strong_dirac(a, graph_of_bivector_subspace(d, pi))
        assert not is_strong_dirac(a, v_subspace(d))

    def test_kernel_obstructs_strongness(self, rng):
        d = DoubledSpace(3)
        a = np.diag([1.0, 1.0, 0.0])  # one-dimensional kernel
        assert not is_strong_dirac(a, v_subspace(d))
        omega = _antisym(rng, 3)
        assert is_strong_dirac(a, graph_of_two_form(d, omega)) == (
            abs(np.linalg.det(omega[2:, 2:])) > -1)  # graphs meet ker ⊕ 0 iff ω kernel does
        # a graph over V meets ker(A) ⊕ 0 iff ω(k, ·) = 0 for some kernel vector
        k = np.array([0.0, 0.0, 1.0])
        meets = np.linalg.norm(omega @ k) < 1e-12
        assert is_strong_dirac(a, graph_of_two_form(d, omega)) == (not meets)

    def test_image_formula_matches_spinor_pushforward(self, rng):
        n, n_out = 3, 2
        d, d_out = DoubledSpace(n), DoubledSpace(n_out)
        for _ in range(25):
            a = rng.standard_normal((n_out, n))
            lag = _random_lagrangian(d, rng)
            image, strong = dirac_image(a, lag, d_out)
            assert image.is_lagrangian(1e-7)
            # the covariant spinor of E: the contravariant one of E with its halves swapped
            swapped = LagrangianSubspace(d.space, swap_halves(lag.basis), check=False)
            chi = from_mask_vector(spinor_of_lagrangian(d, swapped).form)
            pushed = pushforward(chi, a)
            if pushed.norm() > 1e-9:
                assert strong
                sub, pure = null_space(d_out, pushed)
                assert pure and subspace_distance(swap_halves(sub.basis), image.basis) < 1e-8
            else:
                assert not strong

    def test_preimage_formula_matches_spinor_pullback(self, rng):
        n, n_out = 3, 2
        d, d_out = DoubledSpace(n), DoubledSpace(n_out)
        for _ in range(25):
            a = rng.standard_normal((n_out, n))
            lag = _random_lagrangian(d_out, rng)
            pre, nonzero = dirac_preimage(a, lag, d)
            assert pre.is_lagrangian(1e-7)
            phi = from_mask_vector(spinor_of_lagrangian(d_out, lag).form)
            pulled = phi.pullback(a)
            if pulled.norm() > 1e-9:
                assert nonzero
                sub, pure = null_space(d, pulled)
                assert pure and subspace_distance(sub.basis, pre.basis) < 1e-8

    def test_inclusion_of_range_pulls_back_restriction(self, rng):
        # S -> V inclusion: the preimage of Gr_ω is the graph of the restriction
        n, k = 4, 2
        d, d_s = DoubledSpace(n), DoubledSpace(k)
        incl = np.zeros((n, k))
        incl[:k, :k] = np.eye(k)
        omega = _antisym(rng, n)
        pre, nonzero = dirac_preimage(incl, graph_of_two_form(d, omega), d_s)
        assert nonzero
        assert pre.distance(graph_of_two_form(d_s, incl.T @ omega @ incl)) < 1e-10

    def test_range_inclusion_is_strong(self, rng):
        # the range of a Dirac structure with its induced form includes strongly
        d = DoubledSpace(3)
        lag = _random_lagrangian(d, rng)
        s, omega_s, _ = graph_two_form_of(lag)
        k = s.shape[1]
        if k:
            d_s = DoubledSpace(k)
            graph = graph_of_two_form(d_s, omega_s)
            image, strong = dirac_image(s, graph, d)
            assert strong and image.dim == lag.dim and image.distance(lag) <= 1e-8

    def test_strong_maps_compose(self, rng):
        n2, n1, n0 = 2, 3, 4
        d0, d1, d2 = DoubledSpace(n0), DoubledSpace(n1), DoubledSpace(n2)
        tries = 0
        found = 0
        while found < 10 and tries < 200:
            tries += 1
            a = rng.standard_normal((n1, n0))
            b = rng.standard_normal((n2, n1))
            e0 = _random_lagrangian(d0, rng)
            e1, strong_a = dirac_image(a, e0, d1)
            e2, strong_b = dirac_image(b, e1, d2)
            if not (strong_a and strong_b):
                continue
            found += 1
            image, strong_ba = dirac_image(b @ a, e0, d2)
            assert strong_ba
            assert image.distance(e2) < 1e-8
        assert found == 10


class TestKappa:
    def test_identity(self):
        b = BilinearSpace(np.eye(3))
        assert np.allclose(kappa_embed(np.eye(3), b), np.eye(6))

    def test_minus_identity_blocks(self):
        b = BilinearSpace(np.eye(2))
        k = kappa_embed(-np.eye(2), b)
        expect = np.block([[np.zeros((2, 2)), -2 * np.eye(2)],
                           [-np.eye(2) / 2, np.zeros((2, 2))]])
        assert np.allclose(k, expect)
        # V is carried onto V*
        d = DoubledSpace(2)
        image = Subspace(d.space, k[:, :2])
        assert image.distance(d.v_star_subspace()) < 1e-12

    def test_group_homomorphism(self, rng):
        b = BilinearSpace(np.eye(4))
        for _ in range(20):
            x, y = random_orthogonal(4, rng), random_orthogonal(4, rng)
            assert np.linalg.norm(kappa_embed(x @ y, b)
                                  - kappa_embed(x, b) @ kappa_embed(y, b)) < 1e-12

    def test_lands_in_orthogonal_group(self, rng):
        b = BilinearSpace(np.eye(3))
        d = DoubledSpace(3)
        g = d.space.gram
        for _ in range(10):
            k = kappa_embed(random_orthogonal(3, rng), b)
            assert np.linalg.norm(k.T @ g @ k - g) < 1e-12

    def test_general_inner_product(self, rng):
        m = rng.standard_normal((3, 3))
        b = BilinearSpace(m @ m.T + 3 * np.eye(3))
        # build a B-orthogonal map from two B-reflections
        from purespin.clifford import reflection_matrix
        a = reflection_matrix(rng.standard_normal(3), b) @ reflection_matrix(
            rng.standard_normal(3), b)
        k = kappa_embed(a, b)
        g = DoubledSpace(3).space.gram
        assert np.linalg.norm(k.T @ g @ k - g) < 1e-10

    def test_stack_of_maps(self, rng):
        b = BilinearSpace(np.eye(3))
        maps = np.array([random_orthogonal(3, rng) for _ in range(6)])
        stacked = kappa_embed(maps, b)
        assert all(np.array_equal(k, kappa_embed(a, b)) for k, a in zip(stacked, maps))
        v_columns = np.array([True, False] * 3)
        lags = kappa_lagrangians(maps, v_columns)
        for lag, k, v in zip(lags, stacked, v_columns):
            assert np.array_equal(lag, k[:, :3] if v else k[:, 3:])
        bad = maps.copy()
        bad[4] *= 1.5
        with pytest.raises(ValueError, match="not B-orthogonal"):
            kappa_embed(bad, b)

    def test_injective_on_lagrangians(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 5))
            b = BilinearSpace(np.eye(n))
            d = DoubledSpace(n)
            a1, a2 = random_orthogonal(n, rng), random_orthogonal(n, rng)
            if np.linalg.norm(a1 - a2) < 1e-6:
                continue
            l1 = Subspace(d.space, kappa_embed(a1, b)[:, :n])
            l2 = Subspace(d.space, kappa_embed(a2, b)[:, :n])
            assert l1.distance(l2) > 1e-9


class TestOrthogonalSpinor:
    def test_identity_gives_one(self):
        b = BilinearSpace(np.eye(3))
        lift = spinor_of_orthogonal(np.eye(3), b)
        assert (from_mask_vector(lift.psi.form) - Multivector.scalar(3, 1.0)).norm() < 1e-12

    @staticmethod
    def _special_orthogonal(n, count, rng):
        """Random maps with det A = +1, so det(A + I) is generically nonzero."""
        maps = np.array([random_orthogonal(n, rng) for _ in range(count)])
        maps[np.linalg.det(maps) < 0, :, 0] *= -1
        return maps

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_matches_the_wedge_oracle(self, n, rng):
        b = BilinearSpace(np.eye(n))
        maps = self._special_orthogonal(n, 6, rng)
        forms, _ = spinors_of_orthogonal(maps, b, "closed")
        for form, a in zip(forms, maps):
            scale = np.sqrt(abs(np.linalg.det((a + np.eye(n)) / 2)))
            two_form = from_antisymmetric_matrix(_cayley_two_form(a[None], b.gram)[0])
            expect = mask_vector(two_form.exp_wedge().scale(scale))
            assert np.abs(form - expect).max() <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("method", ["closed", "reflections"])
    def test_stack_equals_its_single_calls(self, method, rng):
        b = BilinearSpace(np.eye(3))
        maps = self._special_orthogonal(3, 6, rng)
        if method == "reflections":
            maps[:, :, 0] *= -1  # det A = -1: the reflection route of spinor_of_orthogonal
        forms, nulls = spinors_of_orthogonal(maps, b, method)
        for form, null, a in zip(forms, nulls, maps):
            lift = spinor_of_orthogonal(a, b)
            assert lift.method == method
            assert np.array_equal(lift.psi.form, form)
            assert np.array_equal(lift.psi.null.basis, null)

    def test_routes_refused(self, rng):
        b = BilinearSpace(np.eye(3))
        maps = self._special_orthogonal(3, 3, rng)
        maps[1] = -np.eye(3)
        with pytest.raises(ValueError, match="too small for the closed form"):
            spinors_of_orthogonal(maps, b, "closed")
        with pytest.raises(ValueError, match="unknown method"):
            spinors_of_orthogonal(maps, b, "other")

    def test_reflection_route_carries_pin_lift(self, rng):
        # the reflection route's factorization lifts to the Clifford group over Cl(V)
        from purespin.clifford import (
            CliffordAlgebra,
            factor_into_reflections,
            pin_lift_from_reflections,
        )
        b = BilinearSpace(np.eye(3))
        a = random_orthogonal(3, rng)
        a[:, 0] *= -1  # det A = -1: A has the eigenvalue -1, so det(A + I) = 0
        assert spinor_of_orthogonal(a, b).method == "reflections"
        pin = pin_lift_from_reflections(CliffordAlgebra(b), factor_into_reflections(a, b))
        assert pin is not None
        # R³ is not split, so the spin module does not carry it: the regular representation does
        member, induced = regular_group_action(CliffordAlgebra(b), pin.g.mv)
        assert member and np.linalg.norm(induced - a) < 1e-8

    def test_phi_null_space(self, rng):
        b = BilinearSpace(np.eye(3))
        d = DoubledSpace(3)
        for _ in range(10):
            a = random_orthogonal(3, rng)
            ps = phi_of_orthogonal(a, b)
            expect = Subspace(d.space, kappa_embed(a, b)[:, 3:])
            assert ps.null.distance(expect) < 1e-8

    def test_pullback_transversality(self, rng):
        # transverse partners pull back along strong Dirac maps
        n, n_out = 3, 2
        d, d_out = DoubledSpace(n), DoubledSpace(n_out)
        b_out = BilinearSpace(np.eye(n_out))
        found = 0
        while found < 200:
            a = rng.standard_normal((n_out, n))
            e = _random_lagrangian(d, rng)
            e_out, strong = dirac_image(a, e, d_out)
            if not strong:
                continue
            # find a transverse partner of the image
            psi_t = None
            for _ in range(20):
                cand = _random_lagrangian(d_out, rng)
                ps = spinor_of_lagrangian(d_out, cand)
                if abs(float(chevalley_pairing(
                        spinor_of_lagrangian(d_out, e_out).form, ps.form))) > 1e-6:
                    psi_t = ps
                    break
            if psi_t is None:
                continue
            found += 1
            pulled = pullback_transversality(a, e, e_out, psi_t, d, d_out)
            phi_e = spinor_of_lagrangian(d, e)
            assert abs(float(chevalley_pairing(phi_e.form, pulled.form))) > 1e-10

    def test_strongness_precondition_enforced(self, rng):
        d = DoubledSpace(3)
        d_out = DoubledSpace(3)
        a = np.diag([1.0, 1.0, 0.0])
        e = v_subspace(d)  # meets ker(A) ⊕ 0
        e_out, _ = dirac_image(a, e, d_out)
        psi_t = spinor_of_lagrangian(d_out, d_out.v_star_subspace())
        with pytest.raises(ValueError):
            pullback_transversality(a, e, e_out, psi_t, d, d_out)
