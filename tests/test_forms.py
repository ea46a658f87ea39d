"""The left-invariant exterior derivative: d_CE, and the chart route as an oracle."""

import numpy as np
import pytest

from purespin.forms import (
    _wedge_partials,
    chevalley_eilenberg,
    fd_exterior_derivative,
    fd_exterior_derivative_flat,
)
from purespin.geometry import PinLift, cartan_dirac_integrability, eta_multivector, moment_form_field
from purespin.groups import product_model, su2_model
from purespin.multivector import Multivector
from purespin.spinor import mask_vector

MODELS = ["su2", "su3", "semidirect", "su2xsu2"]


@pytest.fixture(scope="module")
def su2xsu2():
    return product_model(su2_model(), su2_model())


def _random_form(dim: int, rng, grade: int | None = None) -> Multivector:
    """Random coefficients on every blade (of one grade, if given)."""
    blades = [tuple(i for i in range(dim) if m >> i & 1) for m in range(1 << dim)]
    return Multivector(dim, {b: float(rng.standard_normal()) for b in blades
                             if grade is None or len(b) == grade})


def _chart_route(model, field, g, h):
    """dα(g) as the flat derivative of the chart components x -> dexp_frame(x)*α(g exp x).

    The normal-chart route that the left-invariant formula replaced: its
    frame at x = 0 is the left-invariant frame, and its derivative there is
    exact, so it agrees with the left-invariant route to O(h²).
    """
    def chart_value(x):
        return field(model.mul(g, model.exp(x))).pullback(model.dexp_frame(x))

    return fd_exterior_derivative_flat(chart_value, np.zeros(model.dim), h)


class TestChevalleyEilenberg:
    @pytest.mark.parametrize("name", MODELS)
    def test_maurer_cartan(self, name, request, rng):
        # for constant fields the difference quotient vanishes exactly:
        # d e^k = -½ c^k_ij e^i ∧ e^j
        model = request.getfixturevalue(name)
        d = model.dim
        g = model.random_element(rng)
        for k in range(d):
            expect = Multivector(d, {(i, j): -model.structure[i, j, k]
                                     for i in range(d) for j in range(i + 1, d)})
            got = fd_exterior_derivative(model, lambda p: Multivector.basis_vector(d, k), g)
            assert (got - expect).norm() <= 1e-14

    @pytest.mark.parametrize("name", MODELS)
    def test_squares_to_zero(self, name, request, rng):
        model = request.getfixturevalue(name)
        for grade in range(model.dim + 1):
            alpha = mask_vector(_random_form(model.dim, rng, grade))
            once = chevalley_eilenberg(model, alpha)
            twice = chevalley_eilenberg(model, once)
            assert np.linalg.norm(twice) <= 1e-13 * max(np.linalg.norm(once), 1.0), grade


class TestDenseWedge:
    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect", "torus3"])
    def test_wedge_partials_against_the_sparse_route(self, name, request, rng):
        # Σ_j e^j ∧ partials[j] as one ρ-table product, against dict wedges
        d = request.getfixturevalue(name).dim
        for grade in range(d + 1):
            partials = [_random_form(d, rng, grade) for _ in range(d)]
            expect = Multivector.zero(d)
            for j, partial in enumerate(partials):
                expect = expect + Multivector.basis_vector(d, j).wedge(partial)
            got = _wedge_partials(np.array([mask_vector(p) for p in partials]))
            assert np.abs(got - mask_vector(expect)).max() <= 1e-15 * max(expect.norm(), 1.0), grade


class TestAgainstChartRoute:
    @staticmethod
    def _fields(model, rng):
        pin = PinLift(model)
        eta = eta_multivector(model)
        const = _random_form(model.dim, rng)
        lifts = {}  # ψ and φ are differenced over the same points

        def lift(p):
            key = p.tobytes()
            if key not in lifts:
                lifts[key] = pin.forms_at(p)
            return lifts[key]

        return {
            "eta": lambda p: eta,
            "moment": moment_form_field(model, model.random_algebra(rng)),
            "constant": lambda p: const,
            "psi": lambda p: lift(p)[0],
            "phi": lambda p: lift(p)[1],
        }

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_agree_to_second_order(self, name, request, rng):
        model = request.getfixturevalue(name)
        g = model.random_element(rng)
        for label, field in self._fields(model, rng).items():
            gaps = []
            for h in (1e-3, 5e-4):
                new = fd_exterior_derivative(model, field, g, h)
                gaps.append((new - _chart_route(model, field, g, h)).norm())
            scale = max(new.norm(), 1.0)
            assert gaps[0] <= 10 * 1e-3 ** 2 * scale, label
            # both routes are O(h²): halving h quarters the gap, unless it is roundoff
            assert gaps[0] <= 1e-12 * scale or 3 <= gaps[0] / gaps[1] <= 5, label


class TestConvergence:
    def test_su3_phi_residual_is_second_order(self, su3, rng):
        # the finite-difference (d+η)φ of the directly lifted field is O(h²);
        # the residual on the exact derivatives is roundoff
        pin = PinLift(su3)
        eta = eta_multivector(su3)
        g = su3.random_element(rng)
        phi = pin.forms_at(g)[1]
        coarse, fine = ((fd_exterior_derivative(su3, lambda p: pin.forms_at(p)[1], g, h)
                         + eta.wedge(phi)).norm() for h in (4e-4, 2e-4))
        assert 3 <= coarse / fine <= 5
        assert cartan_dirac_integrability(su3, g, pin)["phi_residual"] <= 1e-12 * phi.norm()
