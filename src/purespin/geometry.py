"""Dirac geometry of a Lie group with bi-invariant metric.

Convention package (locked by conformance tests, see tests/test_geometry.py):

* Tangent spaces are left-trivialized by θ^L; the orthogonal section that
  maps left-invariant frames to right-invariant ones then has matrix
  A_g = Ad(g^{-1}).
* Generating vector fields of the conjugation action are ξ^♯ = ξ^R - ξ^L,
  i.e. (A_g - I) ξ in coordinates.
* Section maps into the doubled algebra (covector parts as B-coefficient
  vectors):

      e(ξ) = (A_g - I) ξ  ⊕  B (I + A_g) ξ / 2
      f(ξ) = (I + A_g) ξ / 2  ⊕  B (A_g - I) ξ / 4

  so that A_g^κ(ξ1 ⊕ ξ2) = f(ξ1) + e(ξ2) exactly; E = ran e = A_g^κ(V*)
  and F = ran f = A_g^κ(V) are transverse Lagrangian subbundles.
* The invariant 2-form on a conjugacy class is
  ω(ξ1^♯, ξ2^♯) = B(((Ad_g - Ad_{g^{-1}})/2) ξ1, ξ2); it coincides with the
  2-form induced by E on its range and, on coadjoint-orbit classes of the
  semidirect model, with the orbit symplectic form ⟨μ, [ξ1, ξ2]⟩.
* The bi-invariant 3-form is η(x, y, z) = -B(x, [y, z])/2, the unique
  normalization satisfying ι(ξ^♯) η = -d B((θ^L + θ^R)/2, ξ) with the
  conventions above.
* The invariant pure spinors ψ (null space F) and φ (null space E) are
  ρ(Ã_g^κ) applied to 1 and to the B-volume form, Ã_g^κ ∈ Spin(V ⊕ V*)
  lifting A_g^κ.  g -> Ã_g^κ is a homomorphism, so at g = exp ξ it is the
  exponential of the spin generators weighted by ξ (see PinLift): ψ_e = 1
  fixes the branch, and -1 in SU(2) lifts to -1.  The same homomorphism
  gives their left-invariant derivatives exactly, X_a Ã_g^κ = S_a·Ã_g^κ,
  so the integrability residuals carry no step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .bilinear import DEFAULT_TOL, LagrangianSubspace
from .forms import left_invariant_derivative
from .groups import GroupModel, expm
from .multivector import Multivector, merge_blades
from .spinor import DoubledSpace, from_mask_vector, rho_of_columns, rho_words

__all__ = [
    "section_matrix",
    "cartan_section_bases",
    "cartan_dirac_fiber",
    "ghjw_value",
    "ghjw_matrix",
    "PinLift",
    "ConjugacyClassPoint",
    "class_point",
    "class_points",
    "random_class_point",
    "random_class_points",
    "su2_class_from_trace",
    "conjugacy_volume_top",
    "conjugacy_volume_tops",
    "frame_volume_density",
    "volume_density_oracle",
    "pfaffian",
    "courant_bracket",
    "cartan_section_jet",
    "cartan_dirac_integrability",
]


# --------------------------------------------------------------------------- #
# linear data at a point

def section_matrix(model: GroupModel, g) -> np.ndarray:
    """Left-trivialized matrix of the section exchanging invariant frames, A_g = Ad(g⁻¹).

    g may be a stack (N, n, n); A_g is then (N, d, d).
    """
    return model.Ad(model.inv(g), g)


def cartan_section_bases(model: GroupModel, g) -> tuple[np.ndarray, np.ndarray]:
    """Column bases (e(ξ_i)) and (f(ξ_i)) of the two Lagrangian fibers at g."""
    a = section_matrix(model, g)
    eye = np.eye(model.dim)
    b = model.B
    e_mat = np.vstack([a - eye, b @ (eye + a) / 2.0])
    f_mat = np.vstack([(eye + a) / 2.0, b @ (a - eye) / 4.0])
    return e_mat, f_mat


def cartan_dirac_fiber(model: GroupModel, g, doubled: DoubledSpace | None = None) -> LagrangianSubspace:
    """Fiber E_g spanned by the e-sections (the section map is injective at every g)."""
    doubled = doubled or DoubledSpace(model.dim)
    e_mat, _ = cartan_section_bases(model, g)
    return LagrangianSubspace(doubled.space, e_mat, check=False)


def ghjw_value(model: GroupModel, g, xi1, xi2) -> float:
    """Invariant class 2-form on generators: B(((Ad_g - Ad_{g^{-1}})/2) ξ1, ξ2)."""
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    return float(xi1 @ _class_form_operator(model, section_matrix(model, g)) @ xi2)


def _class_form_operator(model: GroupModel, a: np.ndarray) -> np.ndarray:
    """The matrix ((Ad_g - Ad_{g^{-1}})/2)ᵀ B of the class 2-form, from A = Ad(g^{-1}) alone.

    B is Ad-invariant, so Ad_g = A⁻¹ = B⁻¹AᵀB and the matrix is (BA - (BA)ᵀ)/2.
    """
    ba = model.B @ a
    return 0.5 * (ba - ba.mT)


# --------------------------------------------------------------------------- #
# the invariant spinor pair (ψ, φ) through the spin lift of the exponential

# Coefficients of an exponentiated spinor below this fraction of its largest
# one are roundoff: on random su3 and coadjoint-semidirect points the exactly
# vanishing blades come out below 1e-14 of the largest coefficient and the
# others above 1e-9.  Zeroing them keeps the Multivectors of ``forms_at``
# sparse, and it decides which blades ``frame_volume_density`` gathers: a
# bordered matrix is built only for a blade on which some ψ of the stack is
# nonzero, so the cut sets both the number of Pfaffians and the terms summed.
_ROUNDOFF_CUT = 1e-12

# Bytes of one stacked array (exponents of the lift, bordered matrices of the
# volume density) per call; a stack of sample points is cut into chunks of
# this size.  One su3 lift block (128×128 floats) fills it, so a su3 stack
# needs no more memory than a single point, while 512 su2 lifts (2×4×4
# floats each) still go in one call.
_STACK_BYTES = 1 << 17


def _chunks(count: int, row_bytes: int) -> list[slice]:
    """Slices of ``range(count)`` whose rows of ``row_bytes`` fill at most ``_STACK_BYTES``."""
    step = max(1, _STACK_BYTES // max(row_bytes, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def _kappa_derivative(x: np.ndarray, b: np.ndarray, b_inv: np.ndarray) -> np.ndarray:
    """κ'(X): derivative at the identity of the embedding A -> A^κ (dirac.kappa_embed)."""
    return np.block([[x / 2, x @ b_inv], [b @ x / 4, b @ x @ b_inv / 2]])


@dataclass
class _SpinBlock:
    """The spin generators on one parity block of Λ V*, stored sparsely.

    Σ_a ξ_a S_a has the value ``weights @ ξ`` at the flat positions
    ``entries`` of a (size, size) matrix and is zero elsewhere; ``masks``
    are the blades of the block, and ``seeds`` maps "psi"/"phi" to the block
    position of 1 and of the top blade.
    """

    size: int
    entries: np.ndarray
    weights: np.ndarray
    masks: np.ndarray
    seeds: dict


def _generator_images(block: _SpinBlock, cols: np.ndarray) -> np.ndarray:
    """S_a applied to the block vectors ``cols`` (seeds, size) for every a, shape (seeds, d, size).

    One gather of ``cols`` over the stored entries of all the S_a and one
    scatter-add into the stack.
    """
    seeds, size = cols.shape
    gen, entry = np.nonzero(block.weights.T)
    rows, src = np.divmod(block.entries[entry], size)
    out = np.zeros((seeds, block.weights.shape[1], size))
    np.add.at(out, (slice(None), gen, rows), block.weights[entry, gen] * cols[:, src])
    return out


class PinLift:
    """Evaluates the invariant pure spinors ψ (for F) and φ (for E) on a group.

    ψ_g = ρ(Ã_g^κ)·1 and φ_g = ρ(Ã_g^κ)·μ, with Ã_g^κ the lift of
    A_g^κ = Ad(g^{-1})^κ to Spin(V ⊕ V*) and μ the B-volume form.  The lift
    is a group homomorphism, so for g = exp ξ it is exp(Σ ξ_a S_a) with fixed
    spin generators S_a = ½ Σ_k ρ(K_a f_k) ρ(f^k), where K_a = κ'(-ad e_a)
    and (f_k), (f^k) are dual bases of V ⊕ V*.  This branch has ψ_e = 1 and
    needs no sign tracking.  The S_a are even, so only the parity blocks of
    Λ V* holding 1 and μ are built (on first use) and exponentiated.  Near
    g the same homomorphism gives L(g·exp(t e_a)) = exp(t S_a)·L(g), so the
    left-invariant derivatives are exactly X_a L(g) = S_a·L(g), which
    ``forms_near`` returns with no step and no second exponential, as dense
    vectors over the blade masks (``forms_at`` gives :class:`Multivector`s).

    ξ = ``model.log(g)``, the model's one logarithm, which refuses an element
    with no logarithm in the Lie algebra.  The dense (ψ, φ) of ``_dense``
    are taken at one element (n, n) or at a stack (N, n, n): a stack costs
    one logarithm and a few exponentials (``groups.expm``) and gives,
    row by row, the bits of a call per point.
    """

    def __init__(self, model: GroupModel):
        self.model = model
        self._mu_scale = math.sqrt(abs(float(np.linalg.det(model.B))))

    @cached_property
    def _spin_blocks(self) -> list["_SpinBlock"]:
        """The parity blocks of Λ V* holding 1 and μ, with the S_a restricted to them."""
        model = self.model
        d = model.dim
        # S_a = Σ_{j,k} ½ K_a[j, k] ρ(f_j) ρ(f^k), where f^k = f_{(k+d) mod 2d}; ad(e_a) = c[a]ᵀ
        coeff = 0.5 * np.array([
            _kappa_derivative(-model.structure[a].T, model.B, model.B_inv) for a in range(d)])
        pairs = np.argwhere(np.any(coeff, axis=0))  # (j, k) with some K_a[j, k] != 0
        duals = (pairs[:, 1] + d) % (2 * d)
        masks = np.arange(1 << d)
        parity = np.bitwise_count(masks) % 2
        blocks = []
        for p in sorted({0, d % 2}):
            members = masks[parity == p]
            size = members.size
            pos = np.zeros(1 << d, dtype=np.int32)
            pos[members] = np.arange(size)
            # the word ρ(f_j) ρ(f^k) on the block
            end, sign = rho_words(d, np.stack([pairs[:, 0], duals], axis=1), members)
            alive = end >= 0
            pair, col = np.nonzero(alive)
            entries, where = np.unique(pos[end[alive]] * size + col, return_inverse=True)
            signs = sign[alive]
            weights = np.stack([
                np.bincount(where, signs * coeff[a, pairs[pair, 0], pairs[pair, 1]],
                            minlength=entries.size)
                for a in range(d)], axis=1)
            seeds = {}
            if p == 0:
                seeds["psi"] = int(pos[0])
            if p == d % 2:
                seeds["phi"] = int(pos[(1 << d) - 1])
            blocks.append(_SpinBlock(size, entries, weights, members, seeds))
        return blocks

    def _lift_columns(self, g) -> list[np.ndarray]:
        """exp(Σ ξ_a S_a) on the seeds of each block for ξ = log g, as (seeds, ..., size) arrays.

        g is one element or a stack (N, n, n).  The blocks of one element
        share one exponential call, and a stack is exponentiated in chunks
        of ``_STACK_BYTES``, each element with its own Padé degree.
        """
        xi = self.model.log(g)
        blocks = self._spin_blocks
        size = blocks[0].size  # every parity block holds 2^(d-1) blades: one stacked exponential
        rows = xi.reshape(-1, xi.shape[-1])
        seeds = [list(block.seeds.values()) for block in blocks]
        columns = [np.empty((len(rows), size, len(s))) for s in seeds]
        for part in _chunks(len(rows), len(blocks) * size * size * 8):
            exponents = np.zeros((len(rows[part]), len(blocks), size * size))
            for k, block in enumerate(blocks):
                exponents[:, k, block.entries] = (block.weights @ rows[part, :, None])[..., 0]
            flows = expm(exponents.reshape(-1, len(blocks), size, size))
            for k, cols in enumerate(columns):
                cols[part] = flows[:, k][..., seeds[k]]
        return [cols.transpose(2, 0, 1).reshape((len(s),) + xi.shape[:-1] + (size,))
                for cols, s in zip(columns, seeds)]

    def _dense(self, g) -> tuple[np.ndarray, np.ndarray]:
        """Dense (ψ, φ) at g, or at each element of a stack as (N, 2^d) arrays."""
        return self._pair(self._lift_columns(g))

    def _pair(self, columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Dense (ψ, φ) from the (seeds, ..., size) block columns, each cut at ``_ROUNDOFF_CUT``."""
        out = {}
        for block, cols in zip(self._spin_blocks, columns):
            mags = np.abs(cols)
            dense = np.zeros(cols.shape[:-1] + (1 << self.model.dim,))
            dense[..., block.masks] = np.where(
                mags > _ROUNDOFF_CUT * mags.max(axis=-1, keepdims=True), cols, 0.0)
            out.update(zip(block.seeds, dense))
        return out["psi"], self._mu_scale * out["phi"]

    def _forms(self, g) -> tuple[Multivector, Multivector]:
        return tuple(map(from_mask_vector, self._dense(g)))

    def _require_lift(self) -> None:
        if not self.model.liftable:
            raise ValueError(
                f"model {self.model.name!r} has no global lift; use forms_at_unsigned")

    def forms_at(self, g) -> tuple[Multivector, Multivector]:
        """(ψ, φ) at g with the global sign branch fixed by ψ_e = 1."""
        self._require_lift()
        return self._forms(g)

    def forms_near(self, g) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """(ψ, φ) at g and their left-invariant derivatives, from one lift.

        Returns ((ψ_g, φ_g), (Xψ, Xφ)) over the blade masks, row a of Xψ and
        Xφ being X_a ψ and X_a φ at g.  A_{gk} = A_k A_g, so the lift
        satisfies L(g·exp(t e_a)) = exp(t S_a)·L(g), and the derivatives are the
        sparse products S_a·L(g) on the block vectors of ψ_g and φ_g
        (``_generator_images``): a point costs one logarithm and one
        exponential of each block.
        """
        self._require_lift()
        columns = self._lift_columns(g)
        images = [_generator_images(block, cols) for block, cols in zip(self._spin_blocks, columns)]
        return self._pair(columns), self._pair(images)

    def forms_at_unsigned(self, g) -> tuple[Multivector, Multivector]:
        """Sign-agnostic evaluation for models without a global lift."""
        return self._forms(g)


# --------------------------------------------------------------------------- #
# conjugacy classes

@dataclass
class ConjugacyClassPoint:
    """A class point with a pivoted tangent frame U = (A_g - I) Z.

    ``class_points`` builds the points of a stack of elements together.
    """

    model: GroupModel
    g: np.ndarray
    frame: np.ndarray   # (d, m) tangent frame, left-trivialized
    params: np.ndarray  # (d, m) generators: frame = (A_g - I) params
    section: np.ndarray  # (d, d) A_g = Ad(g⁻¹)

    @property
    def class_dim(self) -> int:
        return self.frame.shape[1]


# A remaining generator image at or below _FRAME_CUT·max(‖gen‖₂, 1) counts as
# dependent (1e3 times the rank cut of the package); norms within
# _PIVOT_TIE·max(‖gen‖₂, 1) of the largest tie with it.
_FRAME_CUT = 1e3 * DEFAULT_TOL
_PIVOT_TIE = 64 * np.finfo(float).eps


def _pivoted_frames(gen: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Greedy frame of ran(gen) for each square matrix of a stack (N, d, d).

    Returns (frame, params) per matrix: its chosen columns and the unit
    vectors selecting them, so that frame = gen @ params.  Each step pivots
    on the largest remaining generator image.  The remaining images of a
    matrix are the rows of one (d, d) array, and all N are deflated together
    after each pivot; a matrix stops at its own rank, so the ranks of a
    stack may differ.  Images whose norms tie with the largest up to
    roundoff (``_PIVOT_TIE``) are taken lowest index first, so the frame,
    and the sign of a density read on it, do not depend on the last bits of
    how ``gen`` was computed.
    """
    residual = np.array(gen.mT, dtype=float, order="C")
    rows = np.arange(len(gen))
    scale = np.maximum(np.linalg.svd(gen, compute_uv=False)[:, 0], 1.0)  # max(‖gen‖₂, 1)
    tie, cut = _PIVOT_TIE * scale[:, None], _FRAME_CUT * scale
    bests, tops = [], []
    while True:
        norms = np.sqrt(np.vecdot(residual, residual))
        best = np.argmax(norms >= norms.max(axis=1, keepdims=True) - tie, axis=1)
        top = norms[rows, best]
        if not (top > cut).any():
            break
        bests.append(best)
        tops.append(top)
        # a matrix past its rank is deflated on as well, harmlessly: its frame ends at its first top <= cut
        q = (residual[rows, best] / np.maximum(top, cut)[:, None])[:, None, :]
        residual -= np.vecdot(residual, q)[..., None] * q
    ranks = np.argmin(np.array([*tops, cut]) > cut, axis=0)
    picks = np.array(bests, dtype=np.intp).reshape(len(bests), len(gen)).T
    eye = np.eye(gen.shape[-1])
    return [(one.T[pick[:rank]].T, eye[pick[:rank]].T) for one, pick, rank in zip(gen, picks, ranks)]


def class_points(model: GroupModel, g) -> list[ConjugacyClassPoint]:
    """The class point of each element of a stack (N, n, n): one stacked adjoint and
    the greedy frames of ``_pivoted_frames``; the points may differ in class dimension."""
    g = np.asarray(g)
    a = section_matrix(model, g)
    frames = _pivoted_frames(a - np.eye(model.dim))
    return [ConjugacyClassPoint(model, g_i, frame, params, a_i)
            for g_i, a_i, (frame, params) in zip(g, a, frames)]


def class_point(model: GroupModel, g) -> ConjugacyClassPoint:
    """Greedy frame for T_g C, pivoting on the largest remaining generator image (``class_points`` of one)."""
    return class_points(model, np.asarray(g)[None])[0]


def random_class_points(model: GroupModel, g0, rng: np.random.Generator,
                        count: int) -> list[ConjugacyClassPoint]:
    """``count`` points h·g0·h⁻¹ of the class of g0, h from one stacked draw."""
    h = model.random_element(rng, count=count)
    return class_points(model, model.mul(model.mul(h, g0), model.inv(h)))


def random_class_point(model: GroupModel, g0, rng: np.random.Generator) -> ConjugacyClassPoint:
    return random_class_points(model, g0, rng, 1)[0]


def su2_class_from_trace(trace: float) -> np.ndarray:
    """Diagonal SU(2) representative of the class with the given (real) trace."""
    if not abs(trace) <= 2:  # also refuses NaN
        raise ValueError("SU(2) traces lie in [-2, 2]")
    z = trace / 2.0 + 1j * math.sqrt(max(0.0, 1.0 - (trace / 2.0) ** 2))
    return np.array([[z, 0], [0, np.conj(z)]], dtype=complex)


def ghjw_matrix(point: ConjugacyClassPoint) -> np.ndarray:
    """Class 2-form on the frame, through the stored generator parameters."""
    return _ghjw_on_params(point.model, point.section, point.params)


def _ghjw_on_params(model: GroupModel, a: np.ndarray, params: np.ndarray) -> np.ndarray:
    """ω[i, j] = B(((Ad_g - Ad_{g^{-1}})/2) p_i, p_j) over the columns p_i of ``params``,
    with A = Ad(g^{-1}), as the one product Pᵀ·op·P, antisymmetrized (per point of a stack)."""
    out = params.mT @ _class_form_operator(model, a) @ params
    return 0.5 * (out - out.mT)


# --------------------------------------------------------------------------- #
# volume densities

def _pfaffians(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack (N, n, n) of skew matrices by one skew Parlett-Reid sweep.

    O(N n³) in n/2 vectorized steps; the pivot of each step is, per matrix,
    the largest entry below the diagonal of the current column (Wimmer,
    arXiv:1102.3440, algorithm 1), brought up by a row and column swap.  A
    matrix whose pivot column is zero has Pfaffian 0; its pivot row is then
    zero too, so dividing by 1 in its place leaves its update at zero and
    the other matrices of the stack untouched.
    """
    a = np.array(a, dtype=float)
    count, n = a.shape[0], a.shape[1]
    if n % 2:
        return np.zeros(count)
    pf = np.ones(count)
    rows = np.arange(count)
    for k in range(0, n - 1, 2):
        kp = k + 1 + np.abs(a[:, k + 1:, k]).argmax(axis=1)
        a[rows, k + 1], a[rows, kp] = a[rows, kp], a[rows, k + 1]
        a[rows, :, k + 1], a[rows, :, kp] = a[rows, :, kp], a[rows, :, k + 1]
        pf[kp != k + 1] *= -1.0
        pivot = a[:, k, k + 1]
        singular = a[:, k + 1, k] == 0.0
        pf *= np.where(singular, 0.0, pivot)
        if k + 2 == n:
            break
        tau = a[:, k, k + 2:] / np.where(singular, 1.0, pivot)[:, None]
        # the update τcᵀ - cτᵀ, its second term the transpose of the first
        outer = tau[:, :, None] * a[:, None, k + 2:, k + 1]
        a[:, k + 2:, k + 2:] += outer - outer.transpose(0, 2, 1)
    return pf


@lru_cache(maxsize=None)
def _blade_table(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The blades K of Λ V* (dim V = d) that an m-frame density reads, and how.

    Returns (masks, signs, index, pads): the masks of the blades with r <= m
    and m + r even, in increasing order; (-1)^{r(r-1)/2} for each; for each,
    the rows (and columns) of the bordered matrix [[ω, Fᵀ], [-F, 0]] followed
    by ``pads`` blocks J that make up its matrix in ``frame_volume_density``:
    the m rows of ω, then m + k for k in K, then pad rows up to the longest
    blade.  The arrays are cached, so they are made read-only.
    """
    masks = np.arange(1 << d)
    grades = np.bitwise_count(masks)
    keep = (grades <= m) & ((m + grades) % 2 == 0)
    masks, grades = masks[keep], grades[keep].astype(int)
    longest = int(grades.max(initial=0))
    pads = (longest - int(grades.min(initial=0))) // 2
    tail = list(range(m + d, m + d + 2 * pads))
    index = np.array([list(range(m)) + [m + k for k in range(d) if mask >> k & 1] + tail[:longest - r]
                      for mask, r in zip(masks.tolist(), grades.tolist())], dtype=np.intp)
    signs = np.where(grades * (grades - 1) // 2 % 2, -1.0, 1.0)
    index = index.reshape(len(masks), m + longest)
    for table in (masks, signs, index):
        table.flags.writeable = False
    return masks, signs, index, pads


def frame_volume_density(omega: np.ndarray, psi: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Top coefficient of e^ω ∧ frame*ψ on an m-dimensional frame, by batched Pfaffian sweeps.

    ``omega`` is the (m, m) 2-form on the frame, ``psi`` the dense form over
    the 2^d blade masks and ``frame`` the (d, m) matrix of the frame vectors
    in the coordinates of ψ; or each is a stack of N of these, with one m,
    and the result has shape (N,).  For a blade K = (k_1 < ... < k_r) of ψ
    with A_K = frame[K, :]^T (m × r),

        top(e^ω ∧ frame*e^K) = (-1)^{r(r-1)/2} Pf([[ω, A_K], [-A_K^T, 0]]),

    which vanishes unless m + r is even and r <= m.  The bordered matrices of
    the admissible blades (``_blade_table``) on which some ψ of the stack is
    nonzero are gathered into one stack, those of shorter blades padded to
    the longest by blocks J = [[0, 1], [-1, 0]] on the diagonal
    (Pf(diag(X, J)) = Pf(X)), and eliminated together (``_pfaffians``), in
    chunks of ``_STACK_BYTES``.  Nothing is expanded.
    """
    single = omega.ndim == 2
    omega, psi, frame = (np.asarray(x, dtype=float)[None] if single else np.asarray(x, dtype=float)
                         for x in (omega, psi, frame))
    count, d, m = frame.shape
    masks, signs, index, pads = _blade_table(d, m)
    live = np.flatnonzero(np.any(psi[:, masks], axis=0))
    out = np.zeros(count)
    if live.size:
        masks, signs, index = masks[live], signs[live], index[live]
        size = index.shape[1]
        for part in _chunks(count, len(masks) * size * size * 8):
            # [[ω, Fᵀ], [-F, 0]] followed by ``pads`` blocks J on the diagonal
            border = np.zeros((len(frame[part]),) + (m + d + 2 * pads,) * 2)
            border[:, :m, :m] = omega[part]
            border[:, :m, m:m + d] = frame[part].mT
            border[:, m:m + d, :m] = -frame[part]
            j = np.arange(m + d, m + d + 2 * pads, 2)
            border[:, j, j + 1], border[:, j + 1, j] = 1.0, -1.0
            pf = _pfaffians(border[:, index[:, :, None], index[:, None, :]].reshape(
                len(border) * len(masks), size, size))
            # contiguous rows: BLAS dots a strided row with another kernel, to other bits
            coeffs = np.ascontiguousarray(psi[part][:, masks])
            out[part] = np.vecdot(signs * pf.reshape(-1, len(masks)), coeffs)
    return out[0] if single else out


def conjugacy_volume_tops(points: list[ConjugacyClassPoint], pin: PinLift) -> np.ndarray:
    """``conjugacy_volume_top`` of each point of a list, stacked by class dimension.

    The points of one class share a frame size m, so a class is one stacked
    lift and one stacked density; points of other sizes are stacked apart.
    """
    out = np.empty(len(points))
    by_dim: dict[int, list[int]] = {}
    for row, point in enumerate(points):
        by_dim.setdefault(point.class_dim, []).append(row)
    for rows in by_dim.values():
        stack = lambda field: np.array([getattr(points[row], field) for row in rows])
        omega = _ghjw_on_params(pin.model, stack("section"), stack("params"))
        out[rows] = _lift_density(pin, stack("g"), omega, stack("frame"))
    return out


def conjugacy_volume_top(point: ConjugacyClassPoint, pin: PinLift) -> float:
    """Frame density of the top part of e^ω ∧ (ψ restricted to the class).

    Read off without building the product: the density is
    Σ_K ψ_K (-1)^{r(r-1)/2} Pf([[ω, A_K], [-A_K^T, 0]]) over the blades
    K = (k_1 < ... < k_r) of ψ, with ω the class 2-form on the frame and
    A_K = frame[K, :]^T (see ``frame_volume_density``).  Exact for every ψ,
    on the singular locus det(A_g + I) = 0 too.
    """
    return float(_lift_density(pin, point.g, ghjw_matrix(point), point.frame))


def _lift_density(pin: PinLift, g, omega: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """``frame_volume_density`` of ψ at g, as |·| when the model has no global lift.

    g may be a stack, with ``omega`` and ``frame`` stacked alike.  Without a
    lift ψ is defined only up to sign, and so is the density.
    """
    density = frame_volume_density(omega, pin._dense(g)[0], frame)
    return density if pin.model.liftable else np.abs(density)


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian by recursive expansion along the first row (small matrices)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    if n == 0:
        return 1.0
    total = 0.0
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        sub = [k for k in rest if k != j]
        minor = a[np.ix_(sub, sub)]
        total += ((-1) ** pos) * a[0, j] * pfaffian(minor)
    return total


def volume_density_oracle(omega: np.ndarray, psi: Multivector, frame: np.ndarray) -> float:
    """Independent expansion of the top part of e^ω ∧ ι*ψ on the full frame.

    Splits the frame index set into an even-sized block fed to e^ω (whose
    top value on a block is the Pfaffian of the block of ω) and the rest fed
    to ψ, evaluated by minor determinants, summed with shuffle signs.
    """
    m = frame.shape[1]
    total = 0.0
    for r in range(0, m + 1, 2):
        for subset in combinations(range(m), r):
            rest = tuple(k for k in range(m) if k not in subset)
            merged = merge_blades(subset, rest)
            if merged is None:
                continue
            sign, _ = merged
            pf = pfaffian(omega[np.ix_(subset, subset)])
            if pf == 0.0:
                continue
            val = psi.evaluate([frame[:, k] for k in rest])
            total += sign * pf * val
    return total


# --------------------------------------------------------------------------- #
# derived bracket and integrability

def courant_bracket(model: GroupModel, w1, w2, eta: np.ndarray | None = None) -> np.ndarray:
    """Derived bracket [ρ(w1), [ρ(w2), d + η]] of two sections, from their jets (value (2d,), rows X_a w (d, 2d)).

    Probed on the dense forms 1 and ε^j: d is ``left_invariant_derivative`` of the exact partials
    X_a(ρ(w)p) = ρ(X_a w)p (Leibniz for ρ(w2)ρ(w1)p), η ∧ is ``_cubic_action`` of ``eta`` (None: untwisted)."""
    d = model.dim
    (v1, rows1), (v2, rows2) = w1, w2
    probes = np.eye(1 << d)[np.r_[0, 1 << np.arange(d)]]
    rho = lambda w, x: rho_of_columns(w[:, None], x)[0]
    rho1, partials1 = rho(v1, probes), rho_of_columns(rows1.T, probes)
    # the fields p, ρ(w2)p, ρ(w1)p and ρ(w2)ρ(w1)p, and their rows X_a
    values = np.stack([probes, rho(v2, probes), rho1, rho(v2, rho1)])
    partials = np.stack([np.zeros_like(partials1), rho_of_columns(rows2.T, probes), partials1,
                         rho_of_columns(rows2.T, rho1) + rho(v2, partials1)], axis=1)
    d_eta = left_invariant_derivative(model, values, partials)
    if eta is not None:
        d_eta += _cubic_action(eta, np.eye(2 * d, d, -d), values)
    # X = ρ(w2)(d+η) + (d+η)ρ(w2), and [ρ(w1), X] = ρ(w1)X - Xρ(w1)
    bracket = rho(v1, rho(v2, d_eta[0]) + d_eta[1]) - rho(v2, d_eta[2]) - d_eta[3]
    # ρ(v ⊕ a) 1 = a and the scalar part of ρ(v ⊕ a) ε_j is v_j
    return np.concatenate([bracket[1:, 0], bracket[0, 1 << np.arange(d)]])


def cartan_section_jet(model: GroupModel, g, xi) -> tuple[np.ndarray, np.ndarray]:
    """e(ξ) at g and its rows X_a e(ξ) = (-ad(e_a)Aξ, -B·ad(e_a)Aξ/2), as X_a A = -ad(e_a)·A for A = Ad(g⁻¹)."""
    xi = np.asarray(xi, dtype=float)
    moved = -model.ad(np.eye(model.dim)) @ (section_matrix(model, g) @ xi)  # row a: -ad(e_a)Aξ
    return cartan_section_bases(model, g)[0] @ xi, np.hstack([moved, moved @ model.B.T / 2.0])


def _cubic_action(tensor: np.ndarray, ws: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Σ_ijk t_ijk ρ(w_i) ρ(w_j) ρ(w_k) x / 6 over the columns w_i of ``ws``, on dense forms (..., 2^d).

    For an antisymmetric t and isotropic, mutually orthogonal w_i this is the action of the
    trivector Σ_{i<j<k} t_ijk w_i w_j w_k, taken as Σ_i ρ(w_i) U_i, U_i = Σ_jk t_ijk ρ(w_j) ρ(w_k) x.
    """
    twice = rho_of_columns(ws, rho_of_columns(ws, x))
    return np.einsum("ii...->...", rho_of_columns(ws, np.einsum("ijk,jk...->i...", tensor, twice))) / 6


def cartan_dirac_integrability(model: GroupModel, g, pin: PinLift) -> dict:
    """Residuals of (d+η) on the invariant spinors at g.

    φ (null space E) must be killed by d+η; ψ (null space F) must not be,
    and its failure is proportional to the cubic section action of the
    structure trivector, whose best-fit scalar is reported.  d is the
    left-invariant formula on the exact derivatives of ``PinLift.forms_near``,
    so the residuals carry roundoff only.
    """
    d = model.dim
    (psi, phi), (x_psi, x_phi) = pin.forms_near(g)
    # η ∧ is η = -½T acting through the covector columns, ρ(0 ⊕ e^i) = e^i ∧
    eta_psi, eta_phi = _cubic_action(-0.5 * model.invariant_tensor, np.eye(2 * d, d, -d),
                                     np.stack([psi, phi]))
    res_psi = left_invariant_derivative(model, psi, x_psi) + eta_psi
    res_phi = left_invariant_derivative(model, phi, x_phi) + eta_phi
    # the structure trivector T^{ijk} acting through R_i = ρ(e(ξ_i)) is T through e_mat·B⁻¹
    rhs = _cubic_action(model.invariant_tensor, cartan_section_bases(model, g)[0] @ model.B_inv, psi)
    rhs_norm2 = float(rhs @ rhs)
    lam = float(rhs @ res_psi) / rhs_norm2 if rhs_norm2 > 1e-30 else 0.0
    psi_norm, fit_residual = (float(np.linalg.norm(r)) for r in (res_psi, res_psi - lam * rhs))
    # (d+η) flips parity: the part of the residual sharing φ's parity (grade d's) is pure noise
    same_parity = res_phi[np.bitwise_count(np.arange(res_phi.size)) % 2 == d % 2]
    return {
        "phi_residual": float(np.linalg.norm(res_phi)),
        "psi_residual": psi_norm,
        "xi_fit_coefficient": lam,
        "xi_fit_relative_residual": fit_residual / max(psi_norm, 1e-30),
        "phi_same_parity_residual": float(np.linalg.norm(same_parity)),
    }

