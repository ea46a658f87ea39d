"""Clifford engine: defining relation, groups, reflections, the idempotent."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parity, pin_normalize, regular_group_action
from purespin.cli import _split_orthogonal
from purespin.bilinear import BilinearSpace, make_split_space, random_orthogonal
from purespin.clifford import (
    CliffordAlgebra,
    NotInCliffordGroup,
    factor_into_reflections,
    pin_lift_from_reflections,
    projector_p,
    reflection_matrix,
)
from purespin.multivector import Multivector


@pytest.fixture(scope="module")
def cl11():
    return CliffordAlgebra(make_split_space(1))


@pytest.fixture(scope="module")
def cl22():
    return CliffordAlgebra(make_split_space(2))


def _random_exact(algebra, rng, terms=4):
    out = {}
    for _ in range(terms):
        k = int(rng.integers(0, algebra.dim + 1))
        blade = tuple(sorted(rng.choice(algebra.dim, size=k, replace=False)))
        out[blade] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    return Multivector(algebra.dim, out)


class TestDefiningRelation:
    def test_generator_square(self, cl11):
        e0 = cl11.vector([1, 0])
        assert (e0 * e0).mv.terms == {(): Fraction(1, 2)}
        e1 = cl11.vector([0, 1])
        assert (e1 * e1).mv.terms == {(): Fraction(-1, 2)}

    def test_orthogonal_anticommute(self, cl11):
        e0, e1 = cl11.vector([1, 0]), cl11.vector([0, 1])
        assert ((e0 * e1 + e1 * e0).mv).terms == {}

    def test_quadrivector_square(self, cl11):
        # (e0 e1)^2 = -e0^2 e1^2 = (1/2)(1/2) = 1/4
        x = cl11.vector([1, 0]) * cl11.vector([0, 1])
        assert (x * x).mv.terms == {(): Fraction(1, 4)}

    def test_non_orthogonal_gram(self):
        # a hyperbolic pair, <e, f> = 1 with both isotropic: the engine takes diagonal Grams only
        with pytest.raises(ValueError, match="diagonal Gram"):
            CliffordAlgebra(BilinearSpace([[0, 1], [1, 0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_associativity_rational(self, seed):
        algebra = CliffordAlgebra(make_split_space(2))
        rng = np.random.default_rng(seed)
        x, y, z = (_random_exact(algebra, rng) for _ in range(3))
        assert (algebra.mul(algebra.mul(x, y), z) - algebra.mul(x, algebra.mul(y, z))).terms == {}

    def test_filtration_degree(self, cl22, rng):
        for _ in range(40):
            x = _random_exact(cl22, rng)
            y = _random_exact(cl22, rng)
            prod = cl22.mul(x, y)
            if x.terms and y.terms:
                grade = lambda z: max(map(len, z.terms), default=0)
                assert grade(prod) <= grade(x) + grade(y)


class TestTransposeAndParity:
    def test_transpose_fixes_vectors(self, cl22, rng):
        v = cl22.vector(rng.standard_normal(4))
        assert (v.transpose().mv - v.mv).norm() < 1e-12

    def test_transpose_of_bivector(self, cl11):
        e0, e1 = cl11.vector([1, 0]), cl11.vector([0, 1])
        x = e0 * e1
        assert (x.transpose().mv - (e1 * e0).mv).norm() == 0

    def test_transpose_involution(self, cl22, rng):
        vecs = [cl22.vector(rng.standard_normal(4)) for _ in range(4)]
        g = vecs[0] * vecs[1] * vecs[2] * vecs[3]
        assert (g.transpose().transpose().mv - g.mv).norm() < 1e-10

    def test_transpose_antihomomorphism(self, cl22, rng):
        x, y = _random_exact(cl22, rng), _random_exact(cl22, rng)
        lhs = cl22.transpose(cl22.mul(x, y))
        rhs = cl22.mul(cl22.transpose(y), cl22.transpose(x))
        assert (lhs - rhs).terms == {}

    def test_parity(self, cl22, rng):
        # the grading automorphism of the regular-representation oracle
        assert parity(Multivector.scalar(4, 5)).terms == {(): 5}
        v = Multivector.from_vector([1, 2, 3, 4])
        assert (parity(v) + v).terms == {}
        x, y = _random_exact(cl22, rng), _random_exact(cl22, rng)
        assert (parity(cl22.mul(x, y)) - cl22.mul(parity(x), parity(y))).terms == {}


def _non_isotropic(space, rng, count):
    out = []
    while len(out) < count:
        w = rng.standard_normal(space.dim)
        if abs(space.pairing(w, w)) > 0.2:
            out.append(w)
    return out


def _product(algebra, vectors):
    g = Multivector.scalar(algebra.dim, 1)
    for w in vectors:
        g = algebra.mul(g, Multivector.from_vector(w))
    return g


def _assert_matches_oracle(algebra, g):
    member, a = algebra.group_action(g)
    expect_member, expect = regular_group_action(algebra, g)
    assert member == expect_member
    assert np.linalg.norm(a - expect) <= 1e-12 * max(1.0, float(np.linalg.norm(expect)) ** 2)
    return member, a


class TestCliffordGroup:
    def test_identity_acts_trivially(self, cl22):
        ok, a = cl22.group_action(Multivector.scalar(4, 1))
        assert ok and np.allclose(a, np.eye(4))

    def test_vector_acts_as_reflection(self, rng):
        space = make_split_space(2)
        cl = CliffordAlgebra(space)
        for w in _non_isotropic(space, rng, 5):
            ok, a = cl.group_action(Multivector.from_vector(w))
            assert ok
            assert np.allclose(a, reflection_matrix(w, space), atol=1e-9)

    def test_two_vectors_give_rotation(self, rng):
        space = make_split_space(2)
        cl = CliffordAlgebra(space)
        for _ in range(5):
            w1, w2 = _non_isotropic(space, rng, 2)
            ok, a = cl.group_action(_product(cl, [w1, w2]))
            assert ok and abs(np.linalg.det(a) - 1) < 1e-8
            expect = reflection_matrix(w1, space) @ reflection_matrix(w2, space)
            assert np.allclose(a, expect, atol=1e-8)

    def test_action_is_homomorphism(self, rng):
        space = make_split_space(2)
        cl = CliffordAlgebra(space)
        for _ in range(100):
            vs = _non_isotropic(space, rng, 4)
            g, h = _product(cl, vs[:2]), _product(cl, vs[2:])
            ok_g, ag = cl.group_action(g)
            ok_h, ah = cl.group_action(h)
            ok_gh, agh = cl.group_action(cl.mul(g, h))
            assert ok_g and ok_h and ok_gh
            assert np.allclose(agh, ag @ ah, atol=1e-7)
            assert np.allclose(ag.T @ space.gram @ ag, space.gram, atol=1e-7)

    def test_non_invertible_rejected(self, cl11):
        # e0 + e1 is isotropic, hence not invertible: (e0+e1)^2 = 0
        iso = Multivector.from_vector([1, 1])
        with pytest.raises(NotInCliffordGroup):
            cl11.group_action(iso)
        with pytest.raises(NotInCliffordGroup):
            regular_group_action(cl11, iso)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_matches_the_regular_representation_on_sampler_lifts(self, n, seed):
        # the lifts `purespin clifford` checks, from its own sampler
        space = make_split_space(n)
        cl = CliffordAlgebra(space)
        rng = np.random.default_rng(seed)
        members = 0
        for _ in range(20):
            a = _split_orthogonal(space, rng)
            try:
                vectors = factor_into_reflections(a, space)
            except ValueError:
                continue
            member, _ = _assert_matches_oracle(cl, pin_lift_from_reflections(cl, vectors).g.mv)
            members += member
        assert members >= 15

    @pytest.mark.parametrize("diag", [
        [Fraction(2, 3), Fraction(-7, 2)],
        [Fraction(-1, 3), 5, Fraction(2, 3), Fraction(-7, 2)],
    ])
    def test_matches_the_regular_representation_on_a_scaled_split_gram(self, diag, rng):
        space = BilinearSpace(np.diag(diag).tolist())
        cl = CliffordAlgebra(space)
        for count in range(1, 5):
            for _ in range(5):
                vectors = _non_isotropic(space, rng, count)
                member, a = _assert_matches_oracle(cl, _product(cl, vectors))
                expect = np.eye(space.dim)
                for w in vectors:
                    expect = expect @ reflection_matrix(w, space)
                assert member and np.allclose(a, expect, atol=1e-8)

    @pytest.mark.parametrize("gram", [np.eye(3), 2 * np.eye(2)], ids=["R3", "2I2"])
    def test_non_split_gram_refused(self, gram):
        cl = CliffordAlgebra(BilinearSpace(gram))
        with pytest.raises(ValueError, match="split Gram") as exc:
            cl.group_action(Multivector.scalar(cl.dim, 1))
        assert "\n" not in str(exc.value)


class TestPin:
    def test_unit_norm_vector_is_its_own_lift(self):
        space = BilinearSpace(2 * np.eye(2))  # <w, w> = 2 for unit w
        cl = CliffordAlgebra(space)
        pin = pin_normalize(cl, Multivector.from_vector([1, 0]))
        assert (pin.g.mv - Multivector.from_vector([1, 0])).norm() < 1e-12
        assert pin.norm_sign == 1

    def test_norm_eight_vector_halved(self):
        space = BilinearSpace(2 * np.eye(2))
        cl = CliffordAlgebra(space)
        pin = pin_normalize(cl, Multivector.from_vector([2, 0]))  # <w,w> = 8
        assert (pin.g.mv - Multivector.from_vector([1, 0])).norm() < 1e-12

    def test_scalar_one(self, cl22):
        pin = pin_normalize(cl22, Multivector.scalar(4, 1))
        assert pin.norm_sign == 1 and (pin.g.mv - Multivector.scalar(4, 1)).norm() == 0

    def test_double_cover_signs(self, rng):
        space = BilinearSpace(np.eye(3))
        cl = CliffordAlgebra(space)
        a = random_orthogonal(3, rng)
        if np.linalg.det(a) < 0:
            a[:, 0] = -a[:, 0]
        lifts = []
        for attempt in range(2):
            vectors = factor_into_reflections(a if attempt == 0 else a @ np.eye(3), space)
            if attempt == 1:
                # force a different factorization through an extra double reflection
                w = rng.standard_normal(3)
                vectors = [w, w] + list(vectors)
            lifts.append(pin_lift_from_reflections(cl, vectors).g.mv)
        d_plus = (lifts[0] - lifts[1]).norm()
        d_minus = (lifts[0] + lifts[1]).norm()
        assert min(d_plus, d_minus) < 1e-9


class TestReflectionFactorization:
    def test_identity_factors_empty(self):
        space = BilinearSpace(np.eye(3))
        assert factor_into_reflections(np.eye(3), space) == []

    def test_single_reflection(self):
        space = BilinearSpace(np.eye(3))
        a = np.diag([-1.0, 1.0, 1.0])
        vectors = factor_into_reflections(a, space)
        assert len(vectors) == 1
        assert np.allclose(np.abs(vectors[0]), [1, 0, 0])

    def test_random_so3_recomposition(self, rng):
        space = BilinearSpace(np.eye(3))
        for _ in range(20):
            a = random_orthogonal(3, rng)
            if np.linalg.det(a) < 0:
                a[:, 0] = -a[:, 0]
            vectors = factor_into_reflections(a, space)
            assert len(vectors) <= 3
            m = np.eye(3)
            for w in vectors:
                m = m @ reflection_matrix(w, space)
            assert np.linalg.norm(m - a) < 1e-10

    def test_split_signature_recomposition(self, rng):
        space = make_split_space(2)
        for _ in range(10):
            m = np.eye(4)
            for _ in range(3):
                w = rng.standard_normal(4)
                if abs(space.pairing(w, w)) > 0.3:
                    m = reflection_matrix(w, space) @ m
            vectors = factor_into_reflections(m, space)
            out = np.eye(4)
            for w in vectors:
                out = out @ reflection_matrix(w, space)
            assert np.linalg.norm(out - m) < 1e-8

    def test_rejects_non_orthogonal(self):
        space = BilinearSpace(np.eye(2))
        with pytest.raises(ValueError):
            factor_into_reflections(np.diag([2.0, 1.0]), space)


class TestProjector:
    def _dual_bases(self, n):
        e_basis, f_basis = [], []
        for i in range(n):
            e = [Fraction(0)] * (2 * n)
            f = [Fraction(0)] * (2 * n)
            e[i] = e[n + i] = Fraction(1)
            f[i], f[n + i] = Fraction(1, 2), Fraction(-1, 2)
            e_basis.append(e)
            f_basis.append(f)
        return e_basis, f_basis

    def test_n1_idempotent(self):
        cl = CliffordAlgebra(make_split_space(1))
        e_basis, f_basis = self._dual_bases(1)
        p = projector_p(cl, e_basis, f_basis)
        assert (p * p - p).mv.terms == {}

    def test_n1_kills_isotropic_generator(self):
        cl = CliffordAlgebra(make_split_space(1))
        e_basis, f_basis = self._dual_bases(1)
        p = projector_p(cl, e_basis, f_basis)
        assert (cl.vector(e_basis[0]) * p).mv.terms == {}

    def test_n2_all_properties_exact(self):
        cl = CliffordAlgebra(make_split_space(2))
        e_basis, f_basis = self._dual_bases(2)
        p = projector_p(cl, e_basis, f_basis)
        assert (p * p - p).mv.terms == {}
        for e in e_basis:
            assert (cl.vector(e) * p).mv.terms == {}
        for f in f_basis:
            assert (p * cl.vector(f)).mv.terms == {}

    def test_rejects_bad_duality(self):
        cl = CliffordAlgebra(make_split_space(1))
        with pytest.raises(ValueError):
            projector_p(cl, [[1, 1]], [[1, -1]])  # <e, f> = 2, not 1
