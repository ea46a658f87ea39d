"""Group models: invariant forms, adjoint data, exponentials, extensions (the swap
extension Z2 ⋉ (G × G) from the oracles)."""

import math

import numpy as np
import pytest
import scipy.linalg

from oracles import SwapDoubleModel
from purespin.geometry import PinLift
from purespin.groups import (
    _rotation_log,
    _traceless_log,
    expm,
    get_model,
    product_model,
    so3_model,
)


@pytest.fixture(scope="module", params=["su2", "so3", "su3", "coadjoint-semidirect"])
def model(request):
    return get_model(request.param)


def _half_turn(rng) -> np.ndarray:
    axis = rng.standard_normal(3)
    return np.pi * axis / np.linalg.norm(axis)


# elements where the principal matrix logarithm leaves the Lie algebra:
# the centre of SU(2) and SU(3), and half turns
WRAPPED_ELEMENTS = {
    "su2": lambda m, rng: [-np.eye(2, dtype=complex)],
    "su3": lambda m, rng: [np.exp(2j * np.pi * k / 3) * np.eye(3) for k in (1, 2)],
    "so3": lambda m, rng: [m.exp(_half_turn(rng)) for _ in range(3)],
    "coadjoint-semidirect": lambda m, rng: [
        m.exp(np.concatenate([rng.standard_normal(3), _half_turn(rng)]))],
}


# matrices outside the group whose logarithm route gives x = 0, which lies in
# the Lie algebra, with exp x = I ≠ g: scaled identities and a shear
OUTSIDE_ELEMENTS = [
    ("su2", 2.0 * np.eye(2)),
    ("su2", np.array([[1.0, 1.0], [0.0, 1.0]])),
    ("so3", 3.0 * np.eye(3)),
    ("coadjoint-semidirect", 2.0 * np.eye(4)),
]


class TestModelAxioms:
    def test_B_is_ad_invariant(self, model, rng):
        for _ in range(10):
            x, y, z = (model.random_algebra(rng) for _ in range(3))
            lhs = model.pairing(model.bracket(x, y), z)
            rhs = -model.pairing(y, model.bracket(x, z))
            assert abs(lhs - rhs) < 1e-12

    def test_B_nondegenerate(self, model):
        assert abs(np.linalg.det(model.B)) > 1e-9

    def test_Ad_is_homomorphism(self, model, rng):
        g, h = model.random_element(rng), model.random_element(rng)
        assert np.linalg.norm(model.Ad(model.mul(g, h)) - model.Ad(g) @ model.Ad(h)) < 1e-10

    def test_Ad_exp_is_exp_ad(self, model, rng):
        x = model.random_algebra(rng, 0.7)
        assert np.linalg.norm(model.Ad(model.exp(x)) - scipy.linalg.expm(model.ad(x))) < 1e-9

    def test_Ad_is_the_conjugation_of_each_basis_element(self, model, rng):
        for m in (model, product_model(model, model), SwapDoubleModel(model)):
            elements = [m.random_element(rng)]
            if isinstance(m, SwapDoubleModel):
                elements.append(m.pair(model.random_element(rng), model.random_element(rng),
                                       swap=True))
            for g in elements:
                g_inv = np.linalg.inv(g)
                per_basis = np.array([m.coeffs(g @ x @ g_inv) for x in m.basis]).T
                ad = m.Ad(g)
                assert np.linalg.norm(ad - per_basis) < 1e-12, m.name
                assert np.linalg.norm(m.Ad(g_inv) - m.Ad_inverse(ad)) < 1e-12, m.name

    def test_Ad_preserves_B(self, model, rng):
        ad = model.Ad(model.random_element(rng))
        assert np.linalg.norm(ad.T @ model.B @ ad - model.B) < 1e-10

    def test_structure_constants_bracket(self, model, rng):
        x, y = model.random_algebra(rng), model.random_algebra(rng)
        direct = model.coeffs(model.algebra_matrix(x) @ model.algebra_matrix(y)
                              - model.algebra_matrix(y) @ model.algebra_matrix(x))
        assert np.linalg.norm(model.bracket(x, y) - direct) < 1e-10

    def test_jacobi_identity(self, model, rng):
        for _ in range(5):
            x, y, z = (model.random_algebra(rng) for _ in range(3))
            cyclic = (model.bracket(x, model.bracket(y, z)) + model.bracket(y, model.bracket(z, x))
                      + model.bracket(z, model.bracket(x, y)))
            assert np.linalg.norm(cyclic) < 1e-12

    def test_structure_constants_hold_no_roundoff(self, model):
        # the least-squares coordinates leave ~1e-16 where c_ij^k vanishes
        for m in (model, product_model(model, model), SwapDoubleModel(model)):
            c = np.abs(m.structure)
            assert not np.any((c > 0) & (c <= 1e-12 * c.max())), m.name

    def test_invariant_tensor_is_antisymmetric(self, model):
        t = model.invariant_tensor
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.abs(t + t.transpose(axes)).max() <= 1e-15

    def test_invariant_tensor_is_the_pairing_of_brackets(self, model):
        eye = np.eye(model.dim)
        expect = np.array([[[model.pairing(eye[i], model.bracket(eye[j], eye[k]))
                             for k in range(model.dim)]
                            for j in range(model.dim)]
                           for i in range(model.dim)])
        assert np.abs(model.invariant_tensor - expect).max() <= 1e-15

    def test_log_inverts_exp(self, model, rng):
        x = model.random_algebra(rng, 0.5)
        assert np.linalg.norm(model.log(model.exp(x)) - x) < 1e-8

    def test_exp_inverts_log(self, model, rng):
        elements = [model.random_element(rng, 2.0) for _ in range(10)]
        for g in elements + WRAPPED_ELEMENTS[model.name](model, rng):
            assert np.linalg.norm(model.exp(model.log(g)) - g) < 1e-12

    def test_products_take_the_logarithm_factor_by_factor(self, model, rng):
        wrapped = WRAPPED_ELEMENTS[model.name](model, rng)[0]
        for m in (product_model(model, model), SwapDoubleModel(model)):
            r = model.rep_dim
            block = np.zeros((2 * r, 2 * r), dtype=complex)
            block[:r, :r], block[r:, r:] = model.random_element(rng), wrapped
            for g in (m.random_element(rng), block):
                assert np.linalg.norm(m.exp(m.log(g)) - g) < 1e-12, m.name

    def test_swap_has_no_logarithm(self, model):
        wr = SwapDoubleModel(model)
        with pytest.raises(ValueError, match="no logarithm"):
            wr.log(wr.pair(model.identity(), model.identity(), swap=True))

    def test_dexp_frame_matches_difference_quotient(self, model, rng):
        x = model.random_algebra(rng, 0.6)
        t = model.dexp_frame(x)
        h = 1e-6
        for _ in range(3):
            u = model.random_algebra(rng)
            g = model.exp(x)
            num = model.coeffs(np.linalg.inv(g) @ (model.exp(x + h * u) - model.exp(x - h * u))) / (2 * h)
            assert np.linalg.norm(t @ u - num) < 1e-6


class TestSpecificModels:
    def test_su2_structure_constants(self, su2):
        # [X_i, X_j] = ε_ijk X_k with B the identity
        assert np.allclose(su2.B, np.eye(3))
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        assert np.allclose(su2.structure, eps, atol=1e-12)

    def test_su2_adjoint_is_rotation(self, su2, rng):
        ad = su2.Ad(su2.random_element(rng))
        assert np.linalg.norm(ad.T @ ad - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(ad) - 1) < 1e-12

    def test_su2_log_refuses_element_outside_the_group(self, su2):
        with pytest.raises(ValueError, match="no logarithm"):
            su2.log(np.diag([1j, 1j]))  # unitary but not special

    @pytest.mark.parametrize("name, g", OUTSIDE_ELEMENTS,
                             ids=[f"{n}-{i}" for i, (n, _) in enumerate(OUTSIDE_ELEMENTS)])
    def test_log_refuses_element_whose_exponential_misses_it(self, name, g):
        with pytest.raises(ValueError, match="no logarithm"):
            get_model(name).log(g)

    def test_so3_not_liftable_flag(self):
        assert not so3_model().liftable

    def test_so3_has_projective_plane_class(self):
        # the class of a half-turn is two-dimensional (the half-turn axes)
        from purespin.geometry import class_point
        so3 = so3_model()
        g = scipy.linalg.expm(np.pi * so3.basis[2])
        assert class_point(so3, g).class_dim == 2

    def test_semidirect_B_split(self, semidirect):
        eig = np.linalg.eigvalsh(semidirect.B)
        assert (np.sum(eig > 0), np.sum(eig < 0)) == (3, 3)

    def test_su3_dimension(self, su3):
        assert su3.dim == 8 and np.allclose(su3.B, np.eye(8))

    def test_su3_structure_constant_count(self, su3):
        # nine totally antisymmetric f_abc with a < b < c, six orderings each
        assert np.count_nonzero(su3.structure) == 54


class TestExtensions:
    def test_product_blocks(self, su2, rng):
        prod = product_model(su2, su2)
        assert prod.dim == 6
        g = prod.random_element(rng)
        ad = prod.Ad(g)
        assert np.linalg.norm(ad.T @ prod.B @ ad - prod.B) < 1e-10

    def test_swap_double_group_law(self, su2, rng):
        wr = SwapDoubleModel(su2)
        g1, g2 = su2.random_element(rng), su2.random_element(rng)
        h1, h2 = su2.random_element(rng), su2.random_element(rng)
        # (σ, (g1,g2)) (σ, (h1,h2)) = (1, (g1 h2, g2 h1))
        prod = wr.mul(wr.pair(g1, g2, swap=True), wr.pair(h1, h2, swap=True))
        expect = wr.pair(g1 @ h2, g2 @ h1, swap=False)
        assert np.linalg.norm(prod - expect) < 1e-12

    def test_swap_adjoint_exchanges_factors(self, su2, rng):
        wr = SwapDoubleModel(su2)
        sigma = wr.pair(np.eye(2), np.eye(2), swap=True)
        ad = wr.Ad(sigma)
        x = wr.random_algebra(rng)
        swapped = np.concatenate([x[3:], x[:3]])
        assert np.linalg.norm(ad @ x - swapped) < 1e-12

    def test_blocks_round_trip(self, su2, rng):
        wr = SwapDoubleModel(su2)
        g1, g2 = su2.random_element(rng), su2.random_element(rng)
        for swap in (False, True):
            g = wr.pair(g1, g2, swap=swap)
            blocks = {(i, j): g[2 * i:2 * i + 2, 2 * j:2 * j + 2] for i in (0, 1) for j in (0, 1)}
            first, second = ((0, 1), (1, 0)) if swap else ((0, 0), (1, 1))
            assert np.linalg.norm(blocks.pop(first) - g1) < 1e-12
            assert np.linalg.norm(blocks.pop(second) - g2) < 1e-12
            assert not any(b.any() for b in blocks.values())

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            get_model("e8")


class TestSemidirectLog:
    """The closed-form logarithm of coadjoint-semidirect: ω̂ from R, then p = V(ω)⁻¹ w."""

    def test_round_trip(self, semidirect, rng):
        for _ in range(200):
            g = semidirect.exp(semidirect.random_algebra(rng, rng.uniform(0.1, 3.0)))
            xi = semidirect.log(g)
            assert np.linalg.norm(semidirect.exp(xi) - g) < 1e-12 * (1 + np.linalg.norm(g))
            assert np.linalg.norm(xi[3:]) <= np.pi + 1e-12  # principal rotation angle

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-8, 1e-4, -1e-8, -1e-4])
    def test_round_trip_at_and_near_half_turn(self, semidirect, rng, offset):
        axis = rng.standard_normal(3)
        x = np.concatenate([rng.standard_normal(3), (np.pi - offset) * axis / np.linalg.norm(axis)])
        g = semidirect.exp(x)
        assert np.linalg.norm(semidirect.exp(semidirect.log(g)) - g) < 1e-12

    def test_does_not_call_logm(self, semidirect, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("logm called")

        monkeypatch.setattr(scipy.linalg, "logm", refuse)
        g = semidirect.random_element(rng, 1.5)
        assert np.linalg.norm(semidirect.exp(semidirect.log(g)) - g) < 1e-12


def _relative(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


class TestExpmAgainstScipy:
    """The numpy Padé exponential against ``scipy.linalg.expm`` as the oracle."""

    @pytest.mark.parametrize("scale", [0.01, 1.0, 3.0, 10.0])
    def test_group_elements(self, model, rng, scale):
        for _ in range(10):
            a = model.algebra_matrix(model.random_algebra(rng, scale))
            # scipy's own error on so3 at scale 10 is ~4e-13 (its fewer squarings)
            assert _relative(expm(a), scipy.linalg.expm(a)) < 1e-12

    @pytest.mark.parametrize("scale", [0.01, 1.0, 3.0, 10.0])
    def test_dexp_frame_blocks(self, model, rng, scale):
        d = model.dim
        xs = np.array([model.random_algebra(rng, scale) for _ in range(5)])
        frames = model.dexp_frame(xs)
        assert frames.shape == (5, d, d)
        for x, frame in zip(xs, frames):
            block = np.zeros((2 * d, 2 * d))
            block[:d, :d] = -model.ad(x)
            block[:d, d:] = np.eye(d)
            assert _relative(frame, scipy.linalg.expm(block)[:d, d:]) < 1e-13
            # a stacked call equals the single call to roundoff
            assert _relative(frame, model.dexp_frame(x)) < 1e-14

    def test_su3_spin_block(self, su3, rng):
        block = PinLift(su3)._spin_blocks[0]
        for scale in (0.5, 2.0):
            exponent = np.zeros(block.size * block.size)
            exponent[block.entries] = block.weights @ su3.random_algebra(rng, scale)
            exponent = exponent.reshape(block.size, block.size)
            reference = scipy.linalg.expm(exponent)
            assert np.linalg.norm(expm(exponent) - reference) < 1e-13 * np.linalg.norm(reference)

    def test_stack_equals_single_calls(self, rng):
        # one degree and one squaring count for the whole stack, from its largest norm
        stack = np.array([s * rng.standard_normal((4, 4)) for s in (1e-3, 0.1, 1.0, 5.0)])
        stacked = expm(stack)
        for a, e in zip(stack, stacked):
            assert _relative(e, expm(a)) < 1e-13
            assert _relative(e, scipy.linalg.expm(a)) < 1e-13


def _schur_unitary_log(g) -> np.ndarray:
    """The complex-Schur route: principal angles, whole turns moved as in the package."""
    t, q = scipy.linalg.schur(np.asarray(g, dtype=complex), output="complex")
    theta = np.angle(np.diag(t))
    turns = int(round(float(theta.sum()) / (2 * math.pi)))
    if turns:
        order = np.argsort(theta)
        shift = order[::-1][:turns] if turns > 0 else order[:-turns]
        theta[shift] -= math.copysign(2 * math.pi, turns)
    return (q * (1j * theta)) @ q.conj().T


def _schur_rotation_log(r) -> np.ndarray:
    """The real-Schur route: each 2×2 block's angle, eigenvalues -1 paired into half turns."""
    t, q = scipy.linalg.schur(np.asarray(r).real, output="real")
    n = t.shape[0]
    x = np.zeros((n, n))
    half_turns, i = [], 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            angle = math.atan2(t[i + 1, i], t[i, i])
            x[i + 1, i], x[i, i + 1] = angle, -angle
            i += 2
        else:
            if t[i, i] < 0:
                half_turns.append(i)
            i += 1
    for a, b in zip(half_turns[::2], half_turns[1::2]):
        x[b, a], x[a, b] = math.pi, -math.pi
    return q @ x @ q.T


def _spectrum(x) -> np.ndarray:
    return np.sort_complex(np.round(np.linalg.eigvals(x), 12))


HALF_TURN_OFFSETS = [0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 1e-2]


class TestLogarithmsAgainstSchur:
    """The eig+QR unitary logarithm and the 3×3 rotation closed form against Schur."""

    @pytest.mark.parametrize("name, g", [
        ("su2", -np.eye(2, dtype=complex)),
        ("su3", np.exp(2j * np.pi / 3) * np.eye(3)),
        ("su3", np.exp(-2j * np.pi / 3) * np.eye(3)),
    ], ids=["su2-minus-identity", "su3-centre-1", "su3-centre-2"])
    def test_central_elements(self, name, g):
        # the logarithm is not unique here; its spectrum is
        model = get_model(name)
        x, exp_x = _traceless_log(g)
        assert np.allclose(_spectrum(x), _spectrum(_schur_unitary_log(g)), atol=1e-12, rtol=0)
        assert abs(np.trace(x)) < 1e-12
        assert np.linalg.norm(exp_x - g) < 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(model.exp(model.log(g)) - g) < 1e-12 * np.linalg.norm(g)

    @pytest.mark.parametrize("gap", [0.0, 1e-14, 1e-12, 1e-8, 1e-4])
    def test_near_degenerate_su3_classes(self, su3, rng, gap):
        for _ in range(20):
            h = su3.random_element(rng, 3.0)
            a = rng.uniform(-3.0, 3.0)
            g = h @ np.diag(np.exp(1j * np.array([a, a + gap, -2 * a - gap]))) @ h.conj().T
            x, _ = _traceless_log(g)
            assert np.linalg.norm(x - _schur_unitary_log(g)) < 1e-12
            assert np.linalg.norm(su3.exp(su3.log(g)) - g) < 1e-12 * np.linalg.norm(g)

    def test_generic_unitary_points(self, rng):
        for name in ("su2", "su3"):
            model = get_model(name)
            for _ in range(50):
                g = model.random_element(rng, 3.0)
                assert np.linalg.norm(_traceless_log(g)[0] - _schur_unitary_log(g)) < 1e-12

    @pytest.mark.parametrize("offset", HALF_TURN_OFFSETS)
    def test_so3_half_turns(self, rng, offset):
        so3 = so3_model()
        for _ in range(20):
            axis = rng.standard_normal(3)
            g = so3.exp((np.pi - offset) * axis / np.linalg.norm(axis))
            x, _ = _rotation_log(g)
            reference = _schur_rotation_log(g)
            # an exact half turn has two logarithms, ±π·n̂
            distance = np.linalg.norm(x - reference)
            if offset == 0.0:
                distance = min(distance, np.linalg.norm(x + reference))
            assert distance < 1e-12
            assert np.linalg.norm(so3.exp(so3.log(g)) - g) < 1e-12 * np.linalg.norm(g)

    @pytest.mark.parametrize("offset", HALF_TURN_OFFSETS)
    def test_semidirect_half_turns(self, semidirect, rng, offset):
        for _ in range(20):
            axis = rng.standard_normal(3)
            x = np.concatenate([rng.standard_normal(3),
                                (np.pi - offset) * axis / np.linalg.norm(axis)])
            g = semidirect.exp(x)
            omega, _ = _rotation_log(g[:3, :3])
            reference = _schur_rotation_log(g[:3, :3])
            distance = np.linalg.norm(omega - reference)
            if offset == 0.0:
                distance = min(distance, np.linalg.norm(omega + reference))
            assert distance < 1e-12
            assert np.linalg.norm(semidirect.exp(semidirect.log(g)) - g) < 1e-12 * np.linalg.norm(g)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 4)])
    def test_rotation_log_refuses_other_sizes(self, shape):
        with pytest.raises(ValueError, match="3x3") as exc:
            _rotation_log(np.eye(*shape))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("name", ["su2", "so3", "su3", "coadjoint-semidirect"])
    def test_non_finite_element_is_refused(self, name):
        model = get_model(name)
        with pytest.raises(ValueError):
            model.log(np.full((model.rep_dim, model.rep_dim), np.nan))


class TestStackedRoutes:
    """A stack of elements costs a few calls and gives what a call per element gives, bit for bit."""

    def test_stacked_draw_is_the_sequential_draws(self, model):
        stacked = model.random_element(np.random.default_rng(3), 0.9, count=40)
        rng = np.random.default_rng(3)
        assert np.array_equal(stacked, [model.random_element(rng, 0.9) for _ in range(40)])

    def test_stacked_log_equals_the_per_point_log(self, model, rng):
        # scales across several Padé degrees; −I in SU(2), the SU(3) centre and half turns
        elements = [model.random_element(rng, scale) for scale in (0.2, 1.0, 2.5, 4.0) for _ in range(8)]
        elements += WRAPPED_ELEMENTS[model.name](model, rng)
        stack = np.array(elements)
        stacked = model.log(stack)
        assert stacked.shape == (len(elements), model.dim)
        assert np.array_equal(stacked, [model.log(g) for g in elements])
        assert np.array_equal(model.exp(stacked), [model.exp(xi) for xi in stacked])

    @pytest.mark.parametrize("bad", ["nan", "doubled", "shear"])
    def test_stack_with_one_bad_element_is_refused(self, model, rng, bad):
        n = model.rep_dim
        stack = model.random_element(rng, count=4)
        stack[2] = {"nan": np.full((n, n), np.nan), "doubled": 2.0 * np.eye(n),
                    "shear": np.eye(n) + np.eye(n, k=1)}[bad]
        with pytest.raises(ValueError, match="no logarithm of the element") as exc:
            model.log(stack)
        assert "\n" not in str(exc.value)

