"""Exact linear algebra and exact Clifford products against plain Fraction loops."""

from fractions import Fraction

import numpy as np
import pytest

from purespin import exact
from purespin.bilinear import BilinearSpace, make_split_space
from purespin.clifford import CliffordAlgebra
from purespin.multivector import Multivector

# --------------------------------------------------------------------------- #
# reference: Gauss–Jordan with a Fraction division per entry


def _ref_rref(m):
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def _ref_nullspace(m):
    ncols = len(m[0]) if m else 0
    red, pivots = _ref_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _random_matrix(rng, rows, cols, den=9, zero_share=0.3):
    return [[Fraction(0) if rng.random() < zero_share
             else Fraction(int(rng.integers(-den, den + 1)), int(rng.integers(1, den + 1)))
             for _ in range(cols)] for _ in range(rows)]


def _cases(rng):
    """Random rational matrices with the shapes and degeneracies elimination must handle."""
    cases = [[], [[]], [[], []], [[Fraction(0)]], [[Fraction(3, 7)]]]
    for rows, cols in [(1, 5), (5, 1), (3, 3), (4, 6), (6, 4), (7, 7)]:
        for _ in range(6):
            cases.append(_random_matrix(rng, rows, cols))
    m = _random_matrix(rng, 5, 5)
    m[2] = [Fraction(0)] * 5                       # zero row
    for row in m:
        row[3] = Fraction(0)                       # zero column
    cases.append(m)
    m = _random_matrix(rng, 4, 5)
    cases.append(m + [list(m[1]), [2 * x for x in m[0]]])  # duplicate and dependent rows
    primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069]
    cases.append([[Fraction(int(rng.integers(-10 ** 6, 10 ** 6)), primes[(i + 2 * j) % 7])
                   for j in range(5)] for i in range(5)])  # large coprime denominators
    cases.append([[Fraction(1, 2 ** 40 + 15), Fraction(3, 3 ** 25)],
                  [Fraction(2, 2 ** 40 + 15), Fraction(6, 3 ** 25)]])  # rank 1, big denominators
    cases.append([[int(rng.integers(-3, 4)) for _ in range(6)] for _ in range(4)])  # int entries
    return cases


class TestFractionFreeElimination:
    def test_rref_and_rank_match_the_fraction_loop(self, rng):
        for m in _cases(rng):
            red, pivots = exact.rref(m)
            ref_red, ref_pivots = _ref_rref(m)
            assert pivots == ref_pivots
            assert red == ref_red
            assert all(isinstance(x, Fraction) for row in red for x in row)
            assert exact.rank(m) == len(ref_pivots)

    def test_nullspace_matches_the_fraction_loop(self, rng):
        for m in _cases(rng):
            basis = exact.nullspace(m)
            assert basis == _ref_nullspace(m)
            for v in basis:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)

    def test_inverse_matches_the_fraction_loop(self, rng):
        for n in range(0, 7):
            for _ in range(4):
                m = _random_matrix(rng, n, n, zero_share=0.1)
                if exact.rank(m) < n:
                    with pytest.raises(ValueError):
                        exact.inverse(m)
                    continue
                inv = exact.inverse(m)
                aug = [row + eye for row, eye in zip(m, exact.identity(n))]
                red, _ = _ref_rref(aug)
                assert inv == [row[n:] for row in red]
                assert exact.mat_mul(m, inv) == exact.identity(n)

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError):
            exact.inverse([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]])

    def test_scale_to_integers(self):
        den, nums = exact.scale_to_integers([Fraction(1, 6), 2, Fraction(-3, 4)])
        assert den == 12 and nums == [2, 24, -9]
        assert exact.scale_to_integers([]) == (1, [])


# --------------------------------------------------------------------------- #
# reference: the sort-and-contract product with Fraction normal forms


class _ReferenceProduct:
    """Clifford product by the Fraction loop, in the Gram's own number type."""

    def __init__(self, space):
        self.gram = space.gram_exact
        self.cache = {}

    def normal_form(self, seq):
        if seq in self.cache:
            return self.cache[seq]
        bad = next((p for p in range(len(seq) - 1) if seq[p] >= seq[p + 1]), None)
        if bad is None:
            result = {seq: 1}
        else:
            a, b = seq[bad], seq[bad + 1]
            result = {}
            if a == b:
                g = Fraction(1, 2) * self.gram[a][a]
                if g != 0:
                    for blade, c in self.normal_form(seq[:bad] + seq[bad + 2:]).items():
                        result[blade] = result.get(blade, 0) + g * c
            else:
                for blade, c in self.normal_form(seq[:bad] + (b, a) + seq[bad + 2:]).items():
                    result[blade] = result.get(blade, 0) - c
                g = self.gram[a][b]
                if g != 0:
                    for blade, c in self.normal_form(seq[:bad] + seq[bad + 2:]).items():
                        result[blade] = result.get(blade, 0) + g * c
            result = {blade: c for blade, c in result.items() if c != 0}
        self.cache[seq] = result
        return result

    def mul(self, x, y):
        out = {}
        for bi, ci in x.terms.items():
            for bj, cj in y.terms.items():
                c = ci * cj
                for blade, k in self.normal_form(bi + bj).items():
                    s = out.get(blade, 0) + c * k
                    if s == 0:
                        out.pop(blade, None)
                    else:
                        out[blade] = s
        return out


def _random_element(dim, rng, kind, terms=5):
    out = {}
    for _ in range(int(rng.integers(0, terms + 1))):
        k = int(rng.integers(0, dim + 1))
        blade = tuple(sorted(rng.choice(dim, size=k, replace=False).tolist()))
        if kind == "float":
            out[blade] = float(rng.standard_normal())
        elif kind == "int":
            out[blade] = int(rng.integers(-5, 6))
        else:
            out[blade] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
    return Multivector(dim, out)


def _diagonal(*entries) -> BilinearSpace:
    return BilinearSpace([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


# the engine takes diagonal Grams; two carry real denominators, so the products do too
_EXACT_SPACES = [make_split_space(n) for n in (1, 2, 3)] + [
    _diagonal(Fraction(2, 3), Fraction(-7, 2)),
    _diagonal(1, -1, Fraction(3, 5)),
]


def _bits(c) -> str:
    return float(c).hex()


class TestExactCliffordProduct:
    @pytest.mark.parametrize("space", _EXACT_SPACES, ids=lambda s: f"dim{s.dim}-{s.gram_exact[0]}")
    def test_exact_product_equals_the_fraction_loop(self, space, rng):
        algebra, ref = CliffordAlgebra(space), _ReferenceProduct(space)
        for _ in range(150):
            kinds = rng.choice(["int", "fraction"], 2)
            x, y = (_random_element(space.dim, rng, k) for k in kinds)
            prod = algebra.mul(x, y).terms
            assert prod == ref.mul(x, y)
            assert all(isinstance(c, (int, Fraction)) for c in prod.values())

    @pytest.mark.parametrize("space", _EXACT_SPACES + [BilinearSpace(np.eye(3)), _diagonal(0.3, -1.7, 2.9, 0.7)],
                             ids=lambda s: f"dim{s.dim}-{s.gram_exact[0]}")
    def test_float_product_is_bitwise_the_fraction_loop(self, space, rng):
        algebra, ref = CliffordAlgebra(space), _ReferenceProduct(space)
        for _ in range(150):
            kinds = ["float", rng.choice(["float", "int", "fraction"])]
            x, y = (_random_element(space.dim, rng, k) for k in rng.permutation(kinds))
            prod, expect = algebra.mul(x, y).terms, ref.mul(x, y)
            assert prod.keys() == expect.keys()
            assert all(_bits(prod[b]) == _bits(expect[b]) for b in prod)

    def test_transpose_equals_reversed_words(self, rng):
        space = _EXACT_SPACES[-1]
        algebra, ref = CliffordAlgebra(space), _ReferenceProduct(space)
        for _ in range(50):
            x = _random_element(space.dim, rng, "fraction")
            expect = Multivector.zero(space.dim)
            for blade, c in x.terms.items():
                expect = expect + Multivector(space.dim, ref.normal_form(blade[::-1])).scale(c)
            assert algebra.transpose(x).terms == expect.terms

    def test_longest_word_contracts_exactly(self):
        # the top blade of Cl(3,3) squared: six contractions, each a factor ±1/2
        algebra = CliffordAlgebra(make_split_space(3))
        top = Multivector(6, {tuple(range(6)): 1})
        square = algebra.mul(top, top).terms
        assert square == _ReferenceProduct(make_split_space(3)).mul(top, top)
        assert square == {(): Fraction(-1, 64)} or square == {(): Fraction(1, 64)}
