"""The left-invariant exterior derivative: d_CE, the 2-form tensor route, and the stencil as the oracle."""

import importlib
import pkgutil

import numpy as np
import pytest

import purespin
from oracles import (
    eta_multivector,
    fd_exterior_derivative_flat,
    from_antisymmetric_matrix,
    grade,
    moment_form_field,
    tensor_stencil_derivative,
)
from purespin import forms
from purespin.cli import main
from purespin.forms import (
    _central_quotients,
    _wedge_partials,
    chevalley_eilenberg,
    fd_exterior_derivative,
    three_form_norm,
    two_form_derivative,
)
from purespin.geometry import PinLift, cartan_dirac_integrability
from purespin.groups import get_model, product_model, su2_model
from purespin.moment import _tau_partials, tau_matrix
from purespin.multivector import Multivector
from purespin.spinor import from_mask_vector, mask_vector
from purespin.suites import run_criterion

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
            got = fd_exterior_derivative(model, lambda p: Multivector(d, {(k,): 1}), g)
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
                expect = expect + Multivector(d, {(j,): 1}).wedge(partial)
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


def _random_two_form_tensor(dim: int, rng) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a - a.T


def _as_tensor(form: Multivector) -> np.ndarray:
    """The antisymmetric (D, D, D) tensor of a 3-form."""
    d = form.dim
    out = np.zeros((d, d, d))
    for (i, j, k), c in form.terms.items():
        for p, q, r, sign in ((i, j, k, 1), (j, k, i, 1), (k, i, j, 1), (j, i, k, -1), (i, k, j, -1), (k, j, i, -1)):
            out[p, q, r] = sign * c
    return out


class TestTwoFormDerivative:
    def test_norm_is_the_multivector_norm(self, rng):
        form = Multivector(5, {(i, j, k): float(rng.standard_normal())
                               for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)})
        assert three_form_norm(_as_tensor(form)) == form.norm()

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect", "torus3"])
    def test_against_the_dense_route(self, name, request, rng):
        # the same value and rows through ``left_invariant_derivative`` on the blade masks;
        # with no rows dω is the Chevalley-Eilenberg term alone
        model = request.getfixturevalue(name)
        d = model.dim
        omega = _random_two_form_tensor(d, rng)
        dense = lambda m: mask_vector(from_antisymmetric_matrix(m))
        for rows in (np.zeros((d, d, d)), np.array([_random_two_form_tensor(d, rng) for _ in range(d)])):
            expect = forms.left_invariant_derivative(model, dense(omega), np.array([dense(r) for r in rows]))
            got = two_form_derivative(model, omega, rows)
            assert np.abs(got - _as_tensor(grade(from_mask_vector(expect), 3))).max() <= 1e-14 * d

    def test_flat_derivative_of_a_polynomial_field(self, rng):
        # ω(x) = x_0·a + x_1 x_2·b on R^4 has ∂_0ω = a, ∂_1ω = x_2 b, ∂_2ω = x_1 b, ∂_3ω = 0
        a, b = _random_two_form_tensor(4, rng), _random_two_form_tensor(4, rng)
        x = rng.standard_normal(4)
        rows = np.array([a, x[2] * b, x[1] * b, np.zeros((4, 4))])
        field = lambda y: from_antisymmetric_matrix(y[0] * a + y[1] * y[2] * b)
        expect = _as_tensor(fd_exterior_derivative_flat(field, x))
        assert np.abs(two_form_derivative(None, field(x), rows) - expect).max() <= 1e-9

    @pytest.mark.parametrize("name", ["su2", "su3", "coadjoint-semidirect"])
    def test_d_tau_against_the_stencil(self, name):
        # dτ on G×G from the exact partials, against the stencils at h and h/2: O(h²).  The tensor
        # stencil differences τ's matrices and shares the bracket terms of ``two_form_derivative``;
        # the dense stencil differences forms over the 2^D blade masks and takes d_CE, an oracle of
        # its own for the bracket terms, on the models where 2^D is small (D = 16 on su3)
        base = get_model(name)
        prod = product_model(base, base)
        rng = np.random.default_rng(3)
        a, b = base.random_element(rng, 0.8), base.random_element(rng, 0.8)
        tau = tau_matrix(base, b)
        exact = two_form_derivative(prod, tau, _tau_partials(base, tau))
        r = base.rep_dim
        pair = np.zeros((2 * r, 2 * r), dtype=complex)
        pair[:r, :r], pair[r:, r:] = a, b
        matrix = lambda p: tau_matrix(base, p[r:, r:])
        stencils = [lambda h: tensor_stencil_derivative(prod, matrix, pair, h)]
        if name != "su3":
            form = lambda p: from_antisymmetric_matrix(matrix(p))
            stencils.append(lambda h: _as_tensor(fd_exterior_derivative(prod, form, pair, h)))
        for stencil in stencils:
            gaps = [np.abs(stencil(h) - exact).max() for h in (1e-3, 5e-4)]
            assert gaps[0] <= 10 * 1e-3 ** 2 * np.abs(exact).max()
            assert 3.5 <= gaps[0] / gaps[1] <= 4.5


class TestStencil:
    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_stacked_steps_equal_single_steps_bit_for_bit(self, name, request, rng):
        # the stencil exponentiates its 2d steps as two stacks; ``groups.expm`` gives
        # each row of a stack the bits of a call of its own, so d is unchanged to the bit
        model = request.getfixturevalue(name)
        g = model.random_element(rng)
        field = moment_form_field(model, model.random_algebra(rng))
        h = forms.FD_STEP
        stencil = ((field(model.mul(g, model.exp(s))), field(model.mul(g, model.exp(-s))))
                   for s in h * np.eye(model.dim))
        single = forms.left_invariant_derivative(model, mask_vector(field(g)), _central_quotients(stencil, h))
        stacked = mask_vector(fd_exterior_derivative(model, field, g, h))
        assert np.array_equal(mask_vector(from_mask_vector(single)), stacked)

    @pytest.mark.parametrize("name", ["su2", "su3", "semidirect"])
    def test_stacked_chevalley_eilenberg_equals_single_calls(self, name, request, rng):
        model = request.getfixturevalue(name)
        alphas = rng.standard_normal((2, 3, 1 << model.dim))
        stacked = chevalley_eilenberg(model, alphas)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stacked[idx], chevalley_eilenberg(model, alphas[idx]))


def _refuse(*args, **kwargs):
    raise AssertionError("a finite-difference route was called")


def test_no_command_takes_a_step(monkeypatch, capsys):
    # every binding of the stencil in the package raises; criteria 10-12 and the
    # integrability command still pass, so none of them takes a step
    modules = [purespin] + [importlib.import_module(f"purespin.{m.name}")
                            for m in pkgutil.iter_modules(purespin.__path__)]
    for name in ("fd_exterior_derivative", "_central_quotients"):
        original = getattr(forms, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, _refuse)
    with pytest.raises(AssertionError, match="finite-difference"):
        forms._central_quotients(iter(()), forms.FD_STEP)
    for number in (10, 11, 12):
        assert run_criterion(number, 7)["passed"], number
    assert main(["integrability", "--group", "su2", "--points", "2"]) == 0
    capsys.readouterr()
