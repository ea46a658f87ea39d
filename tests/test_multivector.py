"""Exterior algebra container: wedge, contraction, exponential, linear maps."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purespin.multivector import Multivector, merge_blades


def mv(dim, terms):
    return Multivector(dim, terms)


# small rational multivectors for law checking
def _mv_strategy(dim=3):
    blades = [()] + [(i,) for i in range(dim)] + [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
    coeff = st.integers(-4, 4).map(lambda k: Fraction(k, 3))
    return st.dictionaries(st.sampled_from(blades), coeff, max_size=4).map(
        lambda d: Multivector(dim, d))


class TestWedge:
    def test_basis_merge_signs(self):
        assert merge_blades((0,), (1,)) == (1, (0, 1))
        assert merge_blades((1,), (0,)) == (-1, (0, 1))
        assert merge_blades((0, 2), (1,)) == (-1, (0, 1, 2))
        assert merge_blades((0,), (0,)) is None

    @settings(max_examples=60, deadline=None)
    @given(_mv_strategy(), _mv_strategy(), _mv_strategy())
    def test_associative_and_distributive(self, a, b, c):
        assert ((a.wedge(b)).wedge(c) - a.wedge(b.wedge(c))).terms == {}
        assert (a.wedge(b + c) - (a.wedge(b) + a.wedge(c))).terms == {}

    @settings(max_examples=40, deadline=None)
    @given(_mv_strategy(), _mv_strategy())
    def test_graded_commutativity(self, a, b):
        for p in (0, 1, 2, 3):
            for q in (0, 1, 2, 3):
                ap, bq = a.grade(p), b.grade(q)
                sign = (-1) ** (p * q)
                assert (ap.wedge(bq) - bq.wedge(ap).scale(sign)).terms == {}

    def test_contraction_is_an_antiderivation(self, rng):
        a = Multivector(4, {(0, 1): 2.0, (2,): -1.5})
        b = Multivector(4, {(1, 2): 1.0, (3,): 0.5})
        v = list(rng.standard_normal(4))
        lhs = a.wedge(b).contract(v)
        for p in (0, 1, 2):
            ap = a.grade(p)
            rhs = ap.contract(v).wedge(b) + ap.wedge(b.contract(v)).scale((-1) ** p)
            assert (ap.wedge(b).contract(v) - rhs).norm() < 1e-12
        assert lhs  # nonzero for this data


class TestExpAndEval:
    def test_two_form_exponential(self):
        omega = Multivector(4, {(0, 1): Fraction(2), (2, 3): Fraction(3)})
        e = omega.exp_wedge()
        assert e.coeff(()) == 1
        assert e.coeff((0, 1)) == 2
        assert e.coeff((0, 1, 2, 3)) == 6  # 2*3 from omega^2/2
        with pytest.raises(ValueError):
            Multivector.scalar(2).exp_wedge()

    def test_evaluate_matches_minors(self, rng):
        form = Multivector(4, {(0, 2): 1.3, (1, 3): -0.4})
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        expect = 1.3 * (u[0] * v[2] - u[2] * v[0]) - 0.4 * (u[1] * v[3] - u[3] * v[1])
        assert abs(form.evaluate([u, v]) - expect) < 1e-12

    def test_from_antisymmetric_matrix_convention(self):
        m = np.array([[0.0, 2.0], [-2.0, 0.0]])
        form = Multivector.from_antisymmetric_matrix(m)
        assert abs(form.evaluate([np.array([1.0, 0.0]), np.array([0.0, 1.0])]) - 2.0) < 1e-14


class TestLinearMaps:
    def test_pullback_functorial(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        form = Multivector(3, {(0, 1): 1.0, (1, 2): -2.0, (0,): 0.7})
        once = form.pullback(a).pullback(b)
        composed = form.pullback(a @ b)
        assert (once - composed).norm() < 1e-12

    def test_pushforward_functorial(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        chi = Multivector(2, {(0, 1): 2.0, (1,): 1.0})
        assert (chi.pushforward(a @ b) - chi.pushforward(b).pushforward(a)).norm() < 1e-12

    @pytest.mark.parametrize("shape", [(8, 8), (3, 5), (5, 3)])
    def test_pullback_matches_definition(self, rng, shape):
        # (A*α)(v_1, ..., v_k) = α(A v_1, ..., A v_k), grade by grade of a dense form
        rows, cols = shape
        a = rng.standard_normal(shape)
        form = Multivector(rows, {b: rng.standard_normal()
                                  for k in range(rows + 1) for b in combinations(range(rows), k)})
        pulled = form.pullback(a)
        for k in range(cols + 1):
            vectors = list(rng.standard_normal((k, cols)))
            expect = form.evaluate([a @ v for v in vectors])
            assert abs(pulled.evaluate(vectors) - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_pullback_grades_above_source_vanish(self, rng):
        form = Multivector(5, {(0, 1, 2, 3): 1.0, (1, 2, 3, 4): 2.0, (0,): 1.5})
        pulled = form.pullback(rng.standard_normal((5, 3)))
        assert {len(b) for b in pulled.terms} == {1}

    def test_pullback_of_exact_form_is_float(self, rng):
        exact = Multivector(3, {(): Fraction(1, 3), (1,): 3, (0, 2): Fraction(-2, 7)})
        a = rng.standard_normal((3, 4))
        pulled = exact.pullback(a)
        assert pulled.terms == exact.map_coeff(float).pullback(a).terms
        assert all(type(c) is float for c in pulled.terms.values())

    def test_identity_and_zero(self):
        chi = Multivector(3, {(0, 2): 1.0, (): 2.0})
        assert (chi.pushforward(np.eye(3)) - chi).norm() == 0
        squashed = chi.pushforward(np.zeros((3, 3)))
        assert squashed.terms == {(): 2.0}


class TestConstruction:
    def test_public_construction_checks_blades(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Multivector(3, {(1, 0): 1.0})
        with pytest.raises(ValueError, match="out of range"):
            Multivector(3, {(0, 3): 1.0})

    def test_map_coeff_drops_zeros(self):
        x = Multivector(3, {(): 2, (0, 2): Fraction(1, 2), (1,): -1.0})
        assert x.map_coeff(lambda c: c if c == 2 else 0).terms == {(): 2}
        assert (-x).terms == {(): -2, (0, 2): Fraction(-1, 2), (1,): 1.0}
        assert x.scale(0).terms == {} and x.scale(2).terms == {(): 4, (0, 2): 1, (1,): -2.0}
