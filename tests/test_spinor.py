"""Spinor modules over the doubled space: actions, null spaces, pairing."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    chevalley_pairing_by_wedges,
    decompose_pure_spinor,
    distance_from,
    fixed_space_dimension_by_svd,
    from_antisymmetric_matrix,
    graph_two_form_of,
    pure_spinor,
    pushforward,
    spinor_of_lagrangian_by_wedges,
    star_to_covariant,
    swap_halves,
    top_form,
    v_subspace,
)
from purespin import exact
from purespin.bilinear import (
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
    random_orthogonal,
    transverse,
)
from purespin.dirac import kappa_embed, kappa_lagrangians
from purespin.multivector import Multivector
from purespin.spinor import (
    DoubledSpace,
    _action_gathers,
    _pairing_signs,
    _range_data,
    _rho_gathers,
    chevalley_pairing,
    fixed_line_dimension,
    from_mask_vector,
    has_pure_parity,
    null_space,
    mask_vector,
    pure_null_spaces,
    rho_contravariant,
    rho_generators,
    rho_of_columns,
    rho_words,
    spinor_of_lagrangian,
    spinors_of_lagrangians,
    transversality_by_pairing,
    wedge_exp,
)


def _rho_covariant(doubled, w, chi):
    """ρ(v ⊕ α)χ = ι(α)χ + v ∧ χ on Λ V: the contravariant ρ(α ⊕ v) on the same coefficients."""
    return rho_contravariant(doubled, swap_halves(w), chi)


def _covariant_null_space(doubled, chi):
    """The covariant null space of χ ∈ Λ V and the purity flag."""
    sub, pure = null_space(doubled, chi)
    return Subspace(doubled.space, swap_halves(sub.basis), check_rank=False), pure


def _random_lagrangian(doubled, rng):
    n = doubled.n
    k = kappa_embed(random_orthogonal(n, rng), BilinearSpace(np.eye(n)))
    cols = k[:, :n] if rng.integers(2) else k[:, n:]
    return LagrangianSubspace(doubled.space, cols, check=False)


class TestActions:
    def test_vectors_annihilate_one(self):
        d = DoubledSpace(2)
        one = Multivector.scalar(2)
        assert rho_contravariant(d, [1.0, 0.5, 0, 0], one).terms == {}

    def test_covectors_create(self):
        d = DoubledSpace(2)
        img = rho_contravariant(d, [0, 0, 2.0, -1.0], Multivector.scalar(2))
        assert img.terms == {(0,): 2.0, (1,): -1.0}

    def test_covariant_mirror(self):
        d = DoubledSpace(2)
        assert _rho_covariant(d, [0, 0, 1.0, 0], Multivector.scalar(2)).terms == {}
        img = _rho_covariant(d, [1.0, 2.0, 0, 0], Multivector.scalar(2))
        assert img.terms == {(0,): 1.0, (1,): 2.0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_anticommutator_exact(self, n, rng):
        d = DoubledSpace(n)
        for _ in range(25):
            w1 = [Fraction(int(rng.integers(-4, 5)), 3) for _ in range(2 * n)]
            w2 = [Fraction(int(rng.integers(-4, 5)), 3) for _ in range(2 * n)]
            phi = Multivector(n, {(): Fraction(1), tuple(range(min(n, 2))): Fraction(2, 5)})
            lhs = (rho_contravariant(d, w1, rho_contravariant(d, w2, phi))
                   + rho_contravariant(d, w2, rho_contravariant(d, w1, phi)))
            pairing = sum(w1[i] * w2[n + i] + w2[i] * w1[n + i] for i in range(n))
            assert (lhs - phi.scale(pairing)).terms == {}

    def test_covariant_anticommutator(self, rng):
        n = 3
        d = DoubledSpace(n)
        for _ in range(20):
            w1, w2 = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            chi = Multivector(n, {(0,): 1.0, (1, 2): -0.3})
            lhs = (_rho_covariant(d, w1, _rho_covariant(d, w2, chi))
                   + _rho_covariant(d, w2, _rho_covariant(d, w1, chi)))
            assert (lhs - chi.scale(d.space.pairing(w1, w2))).norm() < 1e-12


def _blade(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _matrix_of(doubled, w) -> np.ndarray:
    """ρ(w) on Λ V* by bit mask, column by column through rho_contravariant."""
    size = 1 << doubled.n
    m = np.zeros((size, size))
    for j in range(size):
        img = rho_contravariant(doubled, w, Multivector(doubled.n, {_blade(j): 1}))
        for b, c in img.terms.items():
            m[sum(1 << i for i in b), j] = c
    return m


class TestRhoTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_generator_on_every_blade(self, n):
        d = DoubledSpace(n)
        target, sign = rho_generators(n)
        assert target.shape == sign.shape == (2 * n, 1 << n)
        for k in range(2 * n):
            gen = [0] * (2 * n)
            gen[k] = 1
            for m in range(1 << n):
                img = rho_contravariant(d, gen, Multivector(n, {_blade(m): 1}))
                expect = {} if target[k, m] < 0 else {_blade(int(target[k, m])): int(sign[k, m])}
                assert img.terms == expect

    def test_table_is_read_only(self):
        _, sign = rho_generators(2)
        with pytest.raises(ValueError):
            sign[0, 0] = -sign[0, 0]

    @pytest.mark.parametrize("table", [_rho_gathers, _action_gathers])
    def test_gather_tables_are_cached_and_read_only(self, table):
        source, weight = table(3)
        assert table(3)[0] is source
        for array in (source, weight):
            with pytest.raises(ValueError):
                array[0, 0] = 0
        with pytest.raises(ValueError):
            _pairing_signs(3)[0] = 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_word_matrix_composes_left_to_right(self, n, rng):
        d = DoubledSpace(n)
        eye = np.eye(2 * n)
        for _ in range(20):
            word = [int(k) for k in rng.integers(0, 2 * n, size=int(rng.integers(0, 5)))]
            expect = np.eye(1 << n)
            for k in word:
                expect = expect @ _matrix_of(d, eye[k])
            m = d.rho_word_matrix(word)
            assert m.dtype.kind == "i"
            assert np.array_equal(m, expect)

    def test_words_on_chosen_blades(self, rng):
        n = 3
        d = DoubledSpace(n)
        eye = np.eye(2 * n)
        words = rng.integers(0, 2 * n, size=(8, 3))
        masks = np.array([5, 0, 7, 2])
        target, sign = rho_words(n, words, masks)
        assert target.shape == sign.shape == (8, 4)
        for w, word in enumerate(words):
            expect = np.eye(1 << n)
            for k in word:
                expect = expect @ _matrix_of(d, eye[k])
            for c, m in enumerate(masks):
                column = np.zeros(1 << n)
                if target[w, c] >= 0:
                    column[target[w, c]] = sign[w, c]
                else:
                    assert sign[w, c] == 0
                assert np.array_equal(column, expect[:, m])

    def test_words_accept_an_empty_list(self):
        # an abelian algebra has no c_ij^k, so d_CE asks for no words at all
        target, sign = rho_words(3, [], np.arange(8))
        assert target.shape == sign.shape == (0, 8)
        assert target.dtype.kind == sign.dtype.kind == "i"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_columns_against_the_sparse_route(self, n, rng):
        d = DoubledSpace(n)
        ws = rng.standard_normal((2 * n, 3))
        forms = rng.standard_normal((2, 1 << n))
        out = rho_of_columns(ws, forms)
        assert out.shape == (3, 2, 1 << n)
        for j in range(3):
            m = _matrix_of(d, ws[:, j])
            assert np.allclose(out[j], forms @ m.T, rtol=0, atol=1e-13)

    def test_exact_columns_stay_integers(self, rng):
        n = 3
        d = DoubledSpace(n)
        ws = np.array([[int(v) for v in rng.integers(-4, 5, size=2)] for _ in range(2 * n)],
                      dtype=object)
        phi = Multivector(n, {(): Fraction(1, 3), (0, 2): Fraction(-5, 2), (1,): 7})
        vec = mask_vector(phi, exact_ints=True)
        out = rho_of_columns(ws, vec)
        assert all(type(c) is int for c in out.ravel())
        for j in range(2):
            img = rho_contravariant(d, list(ws[:, j]), phi.scale(6))
            assert out[j].tolist() == mask_vector(img, exact_ints=False).astype(int).tolist()

    @pytest.mark.parametrize("form", [
        Multivector.zero(3),
        Multivector.scalar(3, 2.5),
        top_form(3, -1.5),
        Multivector(4, {(): 1.0, (1, 3): -0.25, (0, 1, 2): 3.0, (0, 1, 2, 3): 0.5}),
        Multivector.zero(0),
        Multivector.scalar(0, 4.0),
    ], ids=["zero", "scalar", "top", "mixed", "dim0-zero", "dim0-scalar"])
    def test_from_mask_vector_inverts_mask_vector(self, form):
        back = from_mask_vector(mask_vector(form))
        assert back.dim == form.dim
        assert back.terms == form.terms
        assert all(type(c) is float for c in back.terms.values())


class TestNullSpaces:
    def test_one_gives_v(self):
        d = DoubledSpace(3)
        sub, pure = null_space(d, Multivector.scalar(3))
        assert pure and sub.distance(v_subspace(d)) < 1e-12

    def test_volume_gives_v_star(self):
        d = DoubledSpace(3)
        sub, pure = null_space(d, top_form(3))
        assert pure and sub.distance(d.v_star_subspace()) < 1e-12

    def test_mixed_parity_not_pure(self):
        d = DoubledSpace(3)
        phi = Multivector(3, {(): 1.0, (0, 1, 2): 1.0})
        sub, pure = null_space(d, phi)
        assert not pure and sub.dim < 3

    def test_zero_rejected(self):
        d = DoubledSpace(2)
        with pytest.raises(ValueError):
            null_space(d, Multivector.zero(2))

    def test_gap_diagnostics_reported(self, rng):
        d = DoubledSpace(3)
        phi = spinor_of_lagrangian(d, _random_lagrangian(d, rng)).form
        sub, pure, diag = null_space(d, phi, diagnostics=True)
        assert pure and not diag["exact"]
        assert diag["gap_ok"] and diag["gap_ratio"] > 1e6

    def test_null_spaces_always_isotropic(self, rng):
        d = DoubledSpace(3)
        for _ in range(200):
            terms = {}
            for _ in range(3):
                k = int(rng.integers(0, 4))
                blade = tuple(sorted(rng.choice(3, size=k, replace=False)))
                terms[blade] = float(rng.standard_normal())
            phi = Multivector(3, terms)
            if not phi:
                continue
            sub, _ = null_space(d, phi)  # isotropy asserted internally
            assert sub.is_isotropic(1e-7)


class TestSpinorOfLagrangian:
    def test_v_gives_one(self):
        d = DoubledSpace(3)
        form = from_mask_vector(spinor_of_lagrangian(d, v_subspace(d)).form)
        assert form.terms == {(): 1.0} or (form - Multivector.scalar(3, -1.0)).norm() < 1e-12

    def test_graph_gives_exponential(self):
        d = DoubledSpace(2)
        omega = np.array([[0.0, 1.7], [-1.7, 0.0]])
        basis = np.vstack([np.eye(2), omega.T])
        lag = LagrangianSubspace(d.space, basis)
        form = from_mask_vector(spinor_of_lagrangian(d, lag).form)
        expect = Multivector(2, {(): 1.0, (0, 1): -1.7})
        scale = form.scalar_part() / expect.scalar_part()
        assert (form - expect.scale(scale)).norm() < 1e-9

    def test_round_trip_random(self, rng):
        for n in (1, 2, 3, 4):
            d = DoubledSpace(n)
            for _ in range(10):
                lag = _random_lagrangian(d, rng)
                ps = spinor_of_lagrangian(d, lag)
                assert ps.null.distance(lag) < 1e-9

    def test_orientation_changes_scale_only(self, rng):
        # one Lagrangian given by two bases (basis · an invertible matrix): proportional spinors
        for n in (1, 2, 3, 4):
            d = DoubledSpace(n)
            for lag in [LagrangianSubspace(d.space, d.v_star_subspace().basis, check=False)] + [
                    _random_lagrangian(d, rng) for _ in range(5)]:
                mix = rng.standard_normal((n, n))
                while abs(np.linalg.det(mix)) < 0.1:
                    mix = rng.standard_normal((n, n))
                other = LagrangianSubspace(d.space, lag.basis @ mix, check=False)
                ps1, ps2 = (from_mask_vector(spinor_of_lagrangian(d, e).form) for e in (lag, other))
                blade = max(ps1.terms, key=lambda k: abs(ps1.terms[k]))
                ratio = ps2.terms[blade] / ps1.terms[blade]
                assert abs(abs(ratio) - 1.0) < 1e-9  # both μ come from orthonormal bases
                assert (ps2 - ps1.scale(ratio)).norm() < 1e-9 * ps1.norm()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fixed_space_exact_matches_float(self, n, rng):
        # an isotropic k-plane of a rational Lagrangian fixes a 2^(n-k)-dimensional space; the
        # float SVD of the oracle agrees with the exact rank (k = n: the fixed line of a Lagrangian)
        d = DoubledSpace(n)
        for _ in range(8):
            a = exact.random_rational_orthogonal(n, rng)
            cols = [[a[i][j] - int(i == j) for i in range(n)]
                    + [(a[i][j] + int(i == j)) / 2 for i in range(n)] for j in range(n)]
            for k in range(n, 0, -1):
                basis = cols[:k]
                floats = np.array([[float(x) for x in c] for c in basis]).T
                assert fixed_line_dimension(d, basis) == fixed_space_dimension_by_svd(d, floats) == 2 ** (n - k)


class TestGraphTwoForm:
    def test_v_subspace(self):
        d = DoubledSpace(3)
        s, omega, kernel = graph_two_form_of(v_subspace(d))
        assert s.shape[1] == 3 and np.allclose(omega, 0) and kernel.shape[1] == 3

    def test_invertible_graph(self):
        d = DoubledSpace(2)
        om = np.array([[0.0, 2.0], [-2.0, 0.0]])
        lag = LagrangianSubspace(d.space, np.vstack([np.eye(2), om.T]))
        s, omega_s, kernel = graph_two_form_of(lag)
        assert s.shape[1] == 2 and kernel.shape[1] == 0
        # compare as forms on the returned basis
        expect = s.T @ om @ s
        assert np.linalg.norm(omega_s - expect) < 1e-9

    def test_reconstruction(self, rng):
        d = DoubledSpace(3)
        for _ in range(20):
            lag = _random_lagrangian(d, rng)
            s, omega_s, _ = graph_two_form_of(lag)
            r = s.shape[1]
            # rebuild E = {(v, α): v ∈ S, α|_S = ω_S(v,·)} and compare
            from purespin.bilinear import nullspace_basis
            ann = nullspace_basis(s.T)
            cols = []
            for i in range(r):
                alpha = np.zeros(3)
                coeffs = np.linalg.lstsq(s, s[:, i], rcond=None)[0]
                alpha_on_s = omega_s[i, :]  # ω_S(s_i, s_j)
                alpha = np.linalg.lstsq(s.T @ np.eye(3), alpha_on_s, rcond=None)[0]
                cols.append(np.concatenate([s[:, i], alpha]))
            for j in range(ann.shape[1]):
                cols.append(np.concatenate([np.zeros(3), ann[:, j]]))
            rebuilt = LagrangianSubspace(d.space, np.array(cols).T, check=False)
            assert rebuilt.distance(lag) < 1e-8

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_every_range_rank(self, r, rng):
        # E = {(v, Ωᵀv + a) : v ∈ S0, a ∈ ann S0} with Ω = S0 ω0 S0ᵀ, in a mixed basis
        d = DoubledSpace(3)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s0, ann0 = q[:, :r], q[:, r:]
        w = rng.standard_normal((r, r))
        big_omega = s0 @ (w - w.T) @ s0.T
        basis = np.block([[s0, np.zeros((3, 3 - r))], [big_omega.T @ s0, ann0]])
        lag = LagrangianSubspace(d.space, basis @ rng.standard_normal((3, 3)))
        with np.errstate(all="raise"):
            s, omega_s, kernel = graph_two_form_of(lag)
            ps = spinor_of_lagrangian(d, lag)
            scale = 1.0 + abs(float(rng.standard_normal()))
            form = from_mask_vector(ps.form)
            s2, omega2, mu = decompose_pure_spinor(d, form.scale(scale))
        assert s.shape[1] == r and np.linalg.norm(s.T @ s - np.eye(r)) < 1e-12
        # ω_S(s_i, s_j) = α_i(s_j) for the lifts s_i ⊕ Ωᵀ s_i ∈ E
        assert np.linalg.norm(omega_s - s.T @ big_omega @ s) < 1e-12
        assert kernel.shape[1] == r - np.linalg.matrix_rank(w - w.T)
        assert all(distance_from(lag, np.concatenate([k, np.zeros(3)])) <= 1e-9 for k in kernel.T)
        assert ps.null.distance(lag) < 1e-9
        full = s2 @ omega2 @ s2.T
        rebuilt = (-from_antisymmetric_matrix(full)).exp_wedge().wedge(mu)
        assert (rebuilt - form.scale(scale)).norm() < 1e-9 * scale


class TestChevalley:
    def test_n1_transverse_pair(self):
        assert chevalley_pairing(mask_vector(Multivector.scalar(1)), mask_vector(top_form(1))) == 1

    def test_coincident_pair_vanishes(self):
        assert chevalley_pairing(mask_vector(Multivector.scalar(1)), mask_vector(Multivector.scalar(1))) == 0

    def test_two_graphs(self):
        # (e^{-ω}, e^{-ω'}) picks out the top part of ω - ω' in two dimensions
        a, b = 1.3, -0.4
        phi = Multivector(2, {(): 1.0, (0, 1): -a})
        psi = Multivector(2, {(): 1.0, (0, 1): -b})
        assert abs(chevalley_pairing(mask_vector(phi), mask_vector(psi)) - (a - b)) < 1e-12

    def test_adjoint_property(self, rng):
        d = DoubledSpace(3)
        for _ in range(30):
            w = rng.standard_normal(6)
            phi = Multivector(3, {(0,): 1.0, (1, 2): 0.5, (): -0.2})
            psi = Multivector(3, {(): 0.7, (0, 2): 1.1})
            lhs = chevalley_pairing(mask_vector(phi), mask_vector(rho_contravariant(d, w, psi)))
            rhs = chevalley_pairing(mask_vector(rho_contravariant(d, w, phi)), mask_vector(psi))  # w^T = w
            assert abs(lhs - rhs) < 1e-12

    def test_pin_equivariance_up_to_sign(self, rng):
        d = DoubledSpace(2)
        # act by a product of two pin-normalized non-isotropic generators
        ws = []
        while len(ws) < 2:
            w = rng.standard_normal(4)
            c = 0.5 * d.space.pairing(w, w)
            if abs(c) > 0.2:
                ws.append(w / np.sqrt(abs(c)))
        phi = Multivector(2, {(): 1.0, (0, 1): -0.3})
        psi = Multivector(2, {(0,): 1.0, (1,): 0.4})
        acted_phi, acted_psi = phi, psi
        for w in reversed(ws):
            acted_phi = rho_contravariant(d, w, acted_phi)
            acted_psi = rho_contravariant(d, w, acted_psi)
        before = chevalley_pairing(mask_vector(phi), mask_vector(psi))
        after = chevalley_pairing(mask_vector(acted_phi), mask_vector(acted_psi))
        assert min(abs(after - before), abs(after + before)) < 1e-10

    def test_transversality_equivalence(self, rng):
        d = DoubledSpace(3)
        agree = 0
        for _ in range(100):
            l1, l2 = _random_lagrangian(d, rng), _random_lagrangian(d, rng)
            p1, p2 = spinor_of_lagrangian(d, l1), spinor_of_lagrangian(d, l2)
            if transversality_by_pairing(p1.form, p2.form) == transverse(l1, l2):
                agree += 1
        assert agree == 100


class TestFunctoriality:
    def test_pushforward_identity_and_zero(self):
        chi = Multivector(3, {(0, 1): 1.0, (): 2.0})
        assert (pushforward(chi, np.eye(3)) - chi).norm() == 0
        assert pushforward(chi, np.zeros((2, 3))).terms == {(): 2.0}

    def test_pullback_intertwines(self, rng):
        # ρ(w)(A*φ') = A*(ρ(w')φ') for w ~_A w'
        n, np_ = 3, 2
        d, d_ = DoubledSpace(n), DoubledSpace(np_)
        a = rng.standard_normal((np_, n))
        phi_p = Multivector(np_, {(): 0.3, (0,): 1.0, (0, 1): -0.8})
        for _ in range(20):
            v = rng.standard_normal(n)
            alpha_p = rng.standard_normal(np_)
            w = np.concatenate([v, a.T @ alpha_p])
            w_p = np.concatenate([a @ v, alpha_p])
            lhs = rho_contravariant(d, w, phi_p.pullback(a))
            rhs = rho_contravariant(d_, w_p, phi_p).pullback(a)
            assert (lhs - rhs).norm() < 1e-12

    def test_pushforward_intertwines(self, rng):
        n, np_ = 3, 2
        d, d_ = DoubledSpace(n), DoubledSpace(np_)
        a = rng.standard_normal((np_, n))
        chi = Multivector(n, {(): 1.0, (0, 2): 0.7, (1,): -0.1})
        for _ in range(20):
            v = rng.standard_normal(n)
            alpha_p = rng.standard_normal(np_)
            w = np.concatenate([v, a.T @ alpha_p])
            w_p = np.concatenate([a @ v, alpha_p])
            lhs = _rho_covariant(d_, w_p, pushforward(chi, a))
            rhs = pushforward(_rho_covariant(d, w, chi), a)
            assert (lhs - rhs).norm() < 1e-12

    def test_duality_adjunction(self, rng):
        # <A*ψ', χ> = <ψ', A_*χ> under the coefficient pairing of Λ V* with Λ V
        n, np_ = 3, 3
        a = rng.standard_normal((np_, n))
        psi_p = Multivector(np_, {(0,): 1.0, (0, 1, 2): -0.6, (): 0.2})
        chi = Multivector(n, {(0,): 0.5, (0, 1, 2): 1.0, (): -1.0})

        def pair(form, multi):
            return sum(float(c) * float(multi.terms.get(b, 0.0)) for b, c in form.terms.items())

        assert abs(pair(psi_p.pullback(a), chi) - pair(psi_p, pushforward(chi, a))) < 1e-12


class TestCovariantAndStar:
    def test_covariant_spinor_null_space(self, rng):
        d = DoubledSpace(3)
        for _ in range(10):
            lag = _random_lagrangian(d, rng)
            # the covariant spinor of E: the contravariant one of E with its halves swapped
            swapped = LagrangianSubspace(d.space, swap_halves(lag.basis), check=False)
            chi = spinor_of_lagrangian(d, swapped).form
            sub, pure = _covariant_null_space(d, chi)
            assert pure and sub.distance(lag) < 1e-8

    def test_star_swaps_distinguished_lines(self):
        d = DoubledSpace(3)
        chi = star_to_covariant(top_form(3))
        sub, pure = _covariant_null_space(d, chi)
        assert pure and sub.distance(d.v_star_subspace()) < 1e-12

    def test_decomposition_round_trip(self, rng):
        d = DoubledSpace(3)
        for _ in range(200):
            lag = _random_lagrangian(d, rng)
            scale = float(rng.standard_normal()) or 1.0
            phi = from_mask_vector(spinor_of_lagrangian(d, lag).form).scale(scale)
            s, omega_s, mu = decompose_pure_spinor(d, phi)
            # rebuild e^{-ω} μ with the returned pieces and compare
            if s.shape[1]:
                pinv = np.linalg.pinv(s)
                full = pinv.T @ omega_s @ pinv
            else:
                full = np.zeros((3, 3))
            rebuilt = (-from_antisymmetric_matrix(full)).exp_wedge().wedge(mu)
            assert (rebuilt - phi).norm() < 1e-9 * max(1.0, abs(scale))

    def test_decomposition_with_coordinate_annihilator(self, rng):
        # ann(ran E) = span(e_1): every other blade of μ is zero or roundoff, so the
        # scale must be matched on μ's largest coefficient, not on its first blade
        d = DoubledSpace(3)
        s0, a0 = np.eye(3)[:, [0, 2]], np.eye(3)[:, [1]]
        for _ in range(20):
            w = rng.standard_normal((2, 2))
            big_omega = s0 @ (w - w.T) @ s0.T
            basis = np.block([[s0, np.zeros((3, 1))], [big_omega.T @ s0, a0]])
            lag = LagrangianSubspace(d.space, basis @ rng.standard_normal((3, 3)))
            phi = from_mask_vector(spinor_of_lagrangian(d, lag).form)
            s, omega_s, mu = decompose_pure_spinor(d, phi)
            full = s @ omega_s @ s.T
            rebuilt = (-from_antisymmetric_matrix(full)).exp_wedge().wedge(mu)
            assert (rebuilt - phi).norm() < 1e-9 * phi.norm()


def _mixed_rank_lagrangians(n, rng):
    """A^κ(V) of I, -I and diag(1, ..., -1, ...) (V-blocks of every rank n, 0, ..., n - 1),
    then eight random A^κ(V) or A^κ(V*): a stack that ``_range_data`` splits by rank."""
    maps = [np.eye(n), -np.eye(n)] + [np.diag([1.0] * r + [-1.0] * (n - r)) for r in range(1, n)]
    maps += [random_orthogonal(n, rng) for _ in range(8)]
    v_columns = np.array([True] * (n + 1) + [bool(b) for b in rng.integers(0, 2, 8)])
    return kappa_lagrangians(np.array(maps), v_columns)


class TestStackedRoute:
    """The stacked dense route: against the sparse ``Multivector`` oracle, and row by row
    against its stacks of one."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_spinors_match_the_wedge_oracle(self, n, rng):
        d = DoubledSpace(n)
        lags = _mixed_rank_lagrangians(n, rng)
        forms, _ = spinors_of_lagrangians(d, lags)
        for got, basis in zip(forms, lags):
            expect = mask_vector(spinor_of_lagrangian_by_wedges(LagrangianSubspace(d.space, basis)))
            err = min(np.abs(got - expect).max(), np.abs(got + expect).max())
            assert err <= 1e-12 * np.linalg.norm(expect)
        for phi, psi in zip(forms, forms[::-1]):
            wedge = chevalley_pairing_by_wedges(from_mask_vector(phi), from_mask_vector(psi))
            assert abs(chevalley_pairing(phi, psi) - wedge) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_pairing_of_any_forms_matches_the_wedge_oracle(self, n, rng):
        phi, psi = rng.standard_normal((2, 10, 1 << n))
        got = chevalley_pairing(phi, psi)
        assert got.shape == (10,)
        for k in range(10):
            wedge = chevalley_pairing_by_wedges(from_mask_vector(phi[k]), from_mask_vector(psi[k]))
            assert abs(got[k] - wedge) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_wedge_exp_matches_exp_wedge(self, n, rng):
        w = rng.standard_normal((6, n, n))
        omega = w - w.transpose(0, 2, 1)
        x = rng.standard_normal((6, 1 << n))
        got = wedge_exp(omega, x)
        for k in range(6):
            two_form = from_antisymmetric_matrix(omega[k])
            expect = mask_vector(two_form.exp_wedge().wedge(from_mask_vector(x[k])))
            assert np.abs(got[k] - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_its_single_calls(self, n, rng):
        d = DoubledSpace(n)
        lags = _mixed_rank_lagrangians(n, rng)
        ranks = [s_basis.shape[-1] for _, s_basis, _, _ in _range_data(lags)]
        assert ranks == list(range(n + 1))
        forms, nulls = spinors_of_lagrangians(d, lags)
        for form, null, basis in zip(forms, nulls, lags):
            one = spinor_of_lagrangian(d, LagrangianSubspace(d.space, basis, check=False))
            assert np.array_equal(one.form, form)
            assert np.array_equal(one.null.basis, null)
            assert one.null.distance(LagrangianSubspace(d.space, basis)) < 1e-9

    def test_stack_with_a_non_pure_row_is_refused(self, rng):
        d = DoubledSpace(3)
        forms, _ = spinors_of_lagrangians(d, _mixed_rank_lagrangians(3, rng))
        corrupted = Multivector(3, {(): 1.0, (0, 1, 2): 1.0})  # not pure: its null space has dim < 3
        forms[5] = mask_vector(corrupted)
        with pytest.raises(AssertionError, match="^constructed spinor is not pure$"):
            pure_null_spaces(d, forms)
        with pytest.raises(AssertionError, match="^constructed spinor is not pure$"):
            pure_spinor(d, corrupted)
        forms[5] = 0.0
        with pytest.raises(ValueError, match="^null space of the zero spinor is undefined$"):
            pure_null_spaces(d, forms)

    def test_parity_of_each_row(self):
        forms = np.array([[1.0, 0, 0, 2.0], [0, 1.0, -3.0, 0], [1.0, 1.0, 0, 0], [0.0, 0, 0, 0]])
        assert has_pure_parity(forms).tolist() == [True, True, False, True]

    def test_transversality_of_each_pair(self, rng):
        d = DoubledSpace(3)
        lags = _mixed_rank_lagrangians(3, rng)
        forms, _ = spinors_of_lagrangians(d, lags)
        flags = transversality_by_pairing(forms, forms[::-1])
        for flag, e, f in zip(flags, lags, lags[::-1]):
            assert flag == transverse(LagrangianSubspace(d.space, e), LagrangianSubspace(d.space, f))
        assert 0 < flags.sum() < len(flags)
