"""Split bilinear spaces and the Lagrangian Grassmannian."""

import numpy as np
import pytest

from oracles import lagrangian_from_orthogonal, orthogonal_from_lagrangian, same_component
from purespin.bilinear import (
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
    haar_orthogonal,
    make_split_space,
    projector_distances,
    random_orthogonal,
    subspace_distance,
    transverse,
    transverse_spans,
)


class TestSplitSpace:
    def test_n1_gram(self):
        w = make_split_space(1)
        assert np.array_equal(w.gram, np.diag([1.0, -1.0]))

    def test_n2_signature(self):
        assert make_split_space(2).signature() == (2, 2)

    def test_n3_lagrangians_exist(self):
        w = make_split_space(3)
        basis = np.vstack([np.eye(3), np.eye(3)])
        sub = Subspace(w, basis)
        assert sub.is_lagrangian() and sub.dim == 3

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BilinearSpace([[1, 0], [0, 0]])


class TestIsLagrangian:
    def test_null_line_in_r11(self):
        w = make_split_space(1)
        assert Subspace(w, [[1.0], [1.0]]).is_lagrangian()

    def test_definite_line_is_not(self):
        w = make_split_space(1)
        assert not Subspace(w, [[1.0], [0.0]]).is_lagrangian()

    def test_graph_of_random_orthogonal(self, rng):
        a = random_orthogonal(3, rng)
        sub = lagrangian_from_orthogonal(a)
        # brute-force Gram evaluation on all basis pairs
        for i in range(3):
            for j in range(3):
                val = sub.ambient.pairing(sub.basis[:, i], sub.basis[:, j])
                assert abs(val) < 1e-12


class TestLagrangianFromOrthogonal:
    def test_identity_gives_diagonal(self):
        sub = lagrangian_from_orthogonal(np.eye(2))
        diag = np.vstack([np.eye(2), np.eye(2)])
        assert subspace_distance(sub.basis, diag) < 1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            lagrangian_from_orthogonal(np.diag([2.0, 1.0]))

    def test_round_trip_recovers_matrix(self, rng):
        a = random_orthogonal(4, rng)
        assert np.linalg.norm(orthogonal_from_lagrangian(lagrangian_from_orthogonal(a)) - a) < 1e-10

    def test_thousand_random_trials(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            sub = lagrangian_from_orthogonal(random_orthogonal(n, rng))
            assert sub.is_lagrangian()

    def test_injectivity(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a = random_orthogonal(n, rng)
            b = random_orthogonal(n, rng)
            if np.linalg.norm(a - b) > 1e-8:
                ea, eb = lagrangian_from_orthogonal(a), lagrangian_from_orthogonal(b)
                assert ea.distance(eb) > 1e-9


class TestTransverse:
    def test_equal_not_transverse(self, rng):
        e = lagrangian_from_orthogonal(random_orthogonal(2, rng))
        assert not transverse(e, e)

    def test_two_null_lines(self):
        w = make_split_space(1)
        e = LagrangianSubspace(w, [[1.0], [1.0]])
        f = LagrangianSubspace(w, [[1.0], [-1.0]])
        assert transverse(e, f)

    def test_matches_determinant_test(self, rng):
        for _ in range(50):
            a, b = random_orthogonal(3, rng), random_orthogonal(3, rng)
            ea, eb = lagrangian_from_orthogonal(a), lagrangian_from_orthogonal(b)
            # E_A ∩ E_B ≠ 0 iff (A - B) v = 0 for some v ≠ 0
            assert transverse(ea, eb) == (abs(np.linalg.det(a - b)) > 1e-9)

    def test_spans_of_a_stack_match_single_calls(self, rng):
        w = make_split_space(3)
        maps = [random_orthogonal(3, rng) for _ in range(12)]
        maps[3] = maps[2] @ np.diag([1.0, 1.0, -1.0])
        e = np.array([lagrangian_from_orthogonal(a).basis for a in maps])
        f = e[::-1].copy()
        f[3] = e[2]  # E_A ∩ E_B is a plane: not transverse
        f[4] = e[4]
        got = transverse_spans(e, f)
        expect = [transverse(Subspace(w, x), Subspace(w, y)) for x, y in zip(e, f)]
        assert got.tolist() == expect and not all(expect) and any(expect)
        # the dimensions must add up to that of the space
        assert transverse_spans(e, f[:, :, :2]).tolist() == [False] * 12


class TestSameComponent:
    def test_equal_even(self, rng):
        e = lagrangian_from_orthogonal(random_orthogonal(2, rng))
        assert same_component(e, e)

    def test_n1_opposite_lines(self):
        w = make_split_space(1)
        e = LagrangianSubspace(w, [[1.0], [1.0]])
        f = LagrangianSubspace(w, [[1.0], [-1.0]])
        assert not same_component(e, f)  # 1 + 0 is odd

    def test_matches_determinant_class(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a, b = random_orthogonal(n, rng), random_orthogonal(n, rng)
            expected = np.linalg.det(a) * np.linalg.det(b) > 0
            got = same_component(lagrangian_from_orthogonal(a), lagrangian_from_orthogonal(b))
            assert got == expected

    def test_two_equivalence_classes(self, rng):
        for n in (1, 2, 3, 4):
            subs = [lagrangian_from_orthogonal(random_orthogonal(n, rng)) for _ in range(12)]
            ref = subs[0]
            cls0 = [s for s in subs if same_component(ref, s)]
            cls1 = [s for s in subs if not same_component(ref, s)]
            for s in cls0:
                assert all(same_component(s, t) for t in cls0)
                assert all(not same_component(s, t) for t in cls1)


class TestSubspaceMachinery:
    def test_projector_equality_respects_basis_change(self, rng):
        w = make_split_space(2)
        basis = rng.standard_normal((4, 2))
        sub1 = Subspace(w, basis)
        sub2 = Subspace(w, basis @ rng.standard_normal((2, 2)) + 0.0)
        if sub2.dim == 2:
            assert sub1.dim == sub2.dim and sub1.distance(sub2) <= 1e-9

    def test_projector_distances_of_a_stack_match_single_calls(self, rng):
        w = make_split_space(2)
        a = rng.standard_normal((6, 4, 2))
        b = rng.standard_normal((6, 4, 2))
        b[0] = a[0] @ rng.standard_normal((2, 2))
        b[1, :, 1] = 2.0 * b[1, :, 0]  # rank 1 at the cut, as column_space_basis reads it
        got = projector_distances(a, b)
        for d, x, y in zip(got, a, b):
            assert abs(d - subspace_distance(x, y)) <= 1e-14
            assert abs(d - Subspace(w, x).distance(Subspace(w, y, check_rank=False))) <= 1e-14
        assert got[0] <= 1e-9 and got[1] > 0.5

    def test_haar_stack_draws_like_random_orthogonal(self):
        stacked = haar_orthogonal(np.random.default_rng(3).standard_normal((20, 4, 4)))
        rng = np.random.default_rng(3)
        assert np.array_equal(stacked, [random_orthogonal(4, rng) for _ in range(20)])
        assert np.allclose(stacked @ stacked.transpose(0, 2, 1), np.eye(4), rtol=0, atol=1e-14)

    def test_intersection_dimension(self, rng):
        w = make_split_space(2)
        x = rng.standard_normal(4)
        a = Subspace(w, np.column_stack([x, rng.standard_normal(4)]))
        b = Subspace(w, np.column_stack([x, rng.standard_normal(4)]))
        assert a.intersection(b).dim == 1
