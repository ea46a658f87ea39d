"""Matrix Lie group models.

A :class:`GroupModel` packages a faithful matrix representation, an ordered
basis of the Lie algebra, and an ad-invariant inner product B.  Group
elements are plain numpy matrices in the representation; the adjoint action,
structure constants and exponential are derived from the representation.
``expm`` is the package's one matrix exponential (Padé scaling and squaring
over stacks); ``expm_rows`` applies it to a stack of samples, each with the
degree a call of its own would take.  ``GroupModel.log`` is each model's one logarithm (unitary
eigen-angles, the 3×3 rotation closed form, or the closed form on the
semidirect product); it refuses an element whose logarithm is not in the Lie
algebra.

Provided models: su(2) (B = Id from the normalized trace form), so(3)
(same Lie algebra, adjoint action not liftable through the double cover),
su(3) (Gell-Mann basis), the semidirect product of rotations acting on the
dual of their Lie algebra (split B given by the duality pairing), and direct
products, the carrier of double spaces.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .spinor import rho_words

# Both parts of the membership test of ``GroupModel.log``: x in the Lie
# algebra relative to 1 + ‖x‖, and exp x = g relative to ‖g‖.
_MEMBERSHIP_TOL = 1e-9

__all__ = [
    "expm",
    "expm_rows",
    "GroupModel",
    "su2_model",
    "so3_model",
    "su3_model",
    "coadjoint_semidirect_model",
    "product_model",
    "get_model",
    "MODEL_BUILDERS",
]

# Padé numerator coefficients b_0..b_m of degree m, and the largest 1-norm
# θ_m at which that degree is accurate to double precision without scaling
# (Higham, "The scaling and squaring method for the matrix exponential
# revisited", 2005, Table 2.3).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                               1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                               1187353796428800.0, 129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                               960960.0, 16380.0, 182.0, 1.0)),
}


def _pade_plan(norm: float) -> tuple[int, int]:
    """Padé degree m and number of squarings s for a largest 1-norm (Higham 2005)."""
    for m, (theta, _) in _PADE.items():
        if norm <= theta:
            return m, 0
    return m, math.ceil(math.log2(norm / theta))


def _pade(a: np.ndarray, m: int, squarings: int) -> np.ndarray:
    """r_m(A / 2^s)^(2^s) = (V − U)⁻¹(V + U), squared s times, for each matrix of a stack;
    U holds the odd and V the even terms of the numerator."""
    b = _PADE[m][1]
    if squarings:
        a = a / 2.0 ** squarings
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    if m == 13:
        # Higham's evaluation: six products, from A², A⁴ and A⁶ only
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        power, u, v = a2, b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2
        for k in range(4, m + 1, 2):
            power = power @ a2
            u = u + b[k + 1] * power
            v = v + b[k] * power
        u = a @ u
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def expm(a) -> np.ndarray:
    """exp of each matrix of a stack (..., n, n), by Padé scaling and squaring.

    Higham's 2005 method: the degree m in (3, 5, 7, 9, 13) and the number s
    of squarings come from the largest 1-norm in the stack, so one call
    applies one rational function to every matrix.
    """
    a = np.asarray(a)
    return _pade(a, *_pade_plan(float(np.abs(a).sum(axis=-2).max())))


def expm_rows(a) -> np.ndarray:
    """exp of a stack (N, ..., n, n) row by row: row i equals ``expm(a[i])`` bit for bit.

    Each row gets the degree and squarings of its own largest 1-norm, and
    the rows that share them are exponentiated in one call, so a stack of
    sample points costs a few calls and gives what a call per point gives.
    """
    a = np.asarray(a)
    if len(a) == 1:
        return expm(a)
    norms = np.abs(a).sum(axis=-2).max(axis=tuple(range(1, a.ndim - 1)))
    groups: dict[tuple[int, int], list[int]] = {}
    for row, norm in enumerate(norms.tolist()):
        groups.setdefault(_pade_plan(norm), []).append(row)
    out = np.empty(a.shape, dtype=np.result_type(a.dtype, float))
    for plan, rows in groups.items():
        out[rows] = _pade(a[rows], *plan)
    return out


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n)."""
    return np.sqrt(np.vecdot(a, a).real.sum(axis=-1))


class GroupModel:
    """Matrix Lie group with a fixed Lie algebra basis and invariant form B."""

    def __init__(self, name: str, basis: Sequence[np.ndarray], B, liftable: bool):
        self.name = name
        self.basis = [np.asarray(x) for x in basis]
        self.dim = len(self.basis)
        self.B = np.asarray(B, dtype=float)
        self.B_inv = np.linalg.inv(self.B)
        self.liftable = liftable
        rep_dim = self.basis[0].shape[0]
        self.rep_dim = rep_dim
        self._complex = any(np.iscomplexobj(x) for x in self.basis)
        # least-squares projector onto the basis, for coefficient extraction
        cols = []
        for x in self.basis:
            flat = np.asarray(x, dtype=complex).ravel()
            cols.append(np.concatenate([flat.real, flat.imag]))
        self._coeff_pinv = np.linalg.pinv(np.array(cols).T)
        self._basis_stack = np.array(self.basis)
        self.structure = self._structure_constants()

    # -- representation-level operations ---------------------------------- #

    def identity(self) -> np.ndarray:
        dtype = complex if self._complex else float
        return np.eye(self.rep_dim, dtype=dtype)

    def mul(self, g, h) -> np.ndarray:
        return g @ h

    def inv(self, g) -> np.ndarray:
        return np.linalg.inv(g)

    def algebra_matrix(self, coeffs) -> np.ndarray:
        """Σ ξ_a e_a for ξ of shape (..., d), as one product with the flattened basis."""
        coeffs = np.asarray(coeffs, dtype=float)
        flat = (coeffs[..., None, :] @ self._basis_stack.reshape(self.dim, -1))[..., 0, :]
        return flat.reshape(coeffs.shape[:-1] + (self.rep_dim, self.rep_dim))

    def coeffs(self, mat) -> np.ndarray:
        """Basis coordinates (..., d) of each matrix of a stack (..., n, n)."""
        mat = np.asarray(mat, dtype=complex)
        flat = mat.reshape(mat.shape[:-2] + (-1,))
        return (self._coeff_pinv @ np.concatenate([flat.real, flat.imag], axis=-1)[..., None])[..., 0]

    def exp(self, coeffs) -> np.ndarray:
        """exp of ξ (d,) or of each row of a stack (..., d), each as a call of its own would give."""
        x = self.algebra_matrix(coeffs)
        return expm_rows(x.reshape((-1,) + x.shape[-2:])).reshape(x.shape)

    def log(self, g) -> np.ndarray:
        """ξ in the Lie algebra with exp ξ = g; a one-line ValueError if there is none.

        g is one element (n, n) or a stack (..., n, n), and ξ has shape
        (..., d); a stack is refused if any of its elements is.
        ``_log_matrix`` is the one route per model, applied to the whole
        stack: unitary eigen-angles moved by whole turns to sum to zero
        (complex models), the 3×3 rotation closed form (so3), a closed form
        (coadjoint-semidirect), factor by factor (products).
        It also returns exp x rebuilt from the factors it holds, so the one
        membership test checks both x ∈ g and exp x = g, the latter relative
        to ‖g‖, without a second exponential.
        """
        g = np.asarray(g)
        if np.isfinite(g).all():
            x, exp_x = self._log_matrix(g)
            xi = self.coeffs(x)
            if np.all((_frobenius(self.algebra_matrix(xi) - x) <= _MEMBERSHIP_TOL * (1.0 + _frobenius(x)))
                      & (_frobenius(exp_x - g) <= _MEMBERSHIP_TOL * _frobenius(g))):
                return xi
        raise ValueError(f"no logarithm of the element in the Lie algebra of {self.name!r}")

    def _log_matrix(self, g) -> tuple[np.ndarray, np.ndarray]:
        return _traceless_log(g) if self._complex else _rotation_log(g)

    # -- adjoint data ------------------------------------------------------ #

    def Ad(self, g, g_inv=None) -> np.ndarray:
        """Matrix (..., d, d) of the adjoint action on the basis coordinates, for g (..., n, n).

        One stacked product g·e_a·g⁻¹ over the basis and one projection onto
        it; ``g_inv``, when the caller holds g⁻¹ already, saves the inversion.
        """
        g = np.asarray(g)
        if g_inv is None:
            g_inv = self.inv(g)
        conj = g[..., None, :, :] @ self._basis_stack @ np.asarray(g_inv)[..., None, :, :]
        conj = conj.reshape(g.shape[:-2] + (self.dim, -1))
        return self._coeff_pinv @ np.concatenate([conj.real, conj.imag], axis=-1).mT

    def Ad_inverse(self, ad: np.ndarray) -> np.ndarray:
        """Ad(g⁻¹) from ad = Ad(g): B⁻¹·adᵀ·B, since Ad(g) preserves B."""
        return self.B_inv @ ad.T @ self.B

    def _structure_constants(self) -> np.ndarray:
        """c[i, j, k] = c_ij^k, the coordinates of [e_i, e_j].

        The least-squares coordinates leave roundoff of about 1e-16 where a
        constant vanishes (14 of su(3)'s 68 entries); entries at or below
        1e-12 of the largest are set to zero, so that ``ad``, ``bracket``,
        the spin generators and d_CE carry only the true constants.
        """
        d = self.dim
        c = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                c[i, j] = self.coeffs(self.basis[i] @ self.basis[j] - self.basis[j] @ self.basis[i])
        c[np.abs(c) <= 1e-12 * np.abs(c).max()] = 0.0
        return c

    def bracket(self, x, y) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(x, dtype=float),
                         np.asarray(y, dtype=float), self.structure)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad_x = [x, ·] on coordinates (one per row of a stack x)."""
        return np.einsum("...i,ijk->...kj", np.asarray(x, dtype=float), self.structure)

    def pairing(self, x, y) -> float:
        return float(np.asarray(x, dtype=float) @ self.B @ np.asarray(y, dtype=float))

    @cached_property
    def invariant_tensor(self) -> np.ndarray:
        """T[i, j, k] = B(e_i, [e_j, e_k]), the invariant 3-tensor of the algebra.

        η, the structure trivector, the linear Poisson structure on g* and
        the orbit symplectic form are all read off T with slots filled or
        raised by B⁻¹.  T is antisymmetric in (j, k) exactly and in the other
        pairs of slots up to roundoff.
        """
        return np.einsum("il,jkl->ijk", self.B, self.structure)

    @cached_property
    def chevalley_eilenberg_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d_CE = -½ Σ c_ij^k ε^i ∧ ε^j ∧ ι(e_k) on Λ g* as sparse (row, col, value) triples.

        Rows and columns are blade masks; each nonzero c_ij^k with i < j
        contributes the ρ word ε^i ∧ ε^j ∧ ι(e_k) (``spinor.rho_words``),
        weighted by -c_ij^k.
        """
        d = self.dim
        i, j, k = np.argwhere(self.structure).T
        upper = i < j  # an abelian algebra has no c_ij^k: no words and an empty d_CE
        i, j, k = i[upper], j[upper], k[upper]
        masks = np.arange(1 << d)
        target, sign = rho_words(d, np.stack([d + i, d + j, k], axis=1), masks)
        alive = target >= 0
        cols = np.broadcast_to(masks, target.shape)[alive]
        vals = (-self.structure[i, j, k][:, None] * sign)[alive]
        keys, where = np.unique(target[alive] << d | cols, return_inverse=True)
        values = np.bincount(where, vals, minlength=keys.size)
        keep = values != 0
        return keys[keep] >> d, keys[keep] & ((1 << d) - 1), values[keep]

    def dexp_frame(self, x) -> np.ndarray:
        """Left-trivialized differential of exp at x: (1 - e^{-ad_x}) / ad_x.

        x is one point (d,) or a stack (k, d); a stack is one exponential of
        the blocks [[-ad_x, I], [0, 0]] and gives the frames as (k, d, d).
        """
        ad = self.ad(x)
        d = self.dim
        block = np.zeros(ad.shape[:-2] + (2 * d, 2 * d))
        block[..., :d, :d] = -ad
        block[..., :d, d:] = np.eye(d)
        return expm(block)[..., :d, d:]

    # -- sampling ---------------------------------------------------------- #

    def random_algebra(self, rng: np.random.Generator, scale: float = 1.0,
                       count: int | None = None) -> np.ndarray:
        """A Gaussian ξ (d,), or ``count`` of them as rows (count, d).

        One draw of (count, d) gives the numbers of ``count`` draws of (d,)
        in a row, so stacking keeps the random stream.
        """
        return scale * rng.standard_normal(self.dim if count is None else (count, self.dim))

    def random_element(self, rng: np.random.Generator, scale: float = 1.0,
                       count: int | None = None) -> np.ndarray:
        return self.exp(self.random_algebra(rng, scale, count))

    def __repr__(self) -> str:  # pragma: no cover
        return f"GroupModel({self.name}, dim={self.dim})"


# --------------------------------------------------------------------------- #
# concrete models

def _rotation_log(g) -> tuple[np.ndarray, np.ndarray]:
    """Real skew logarithm of a 3×3 rotation, in closed form, and its exponential.

    θ = atan2(|k|, (tr R − 1)/2), where k is the axial vector of the skew
    part (R − Rᵀ)/2, equal to sin θ·n for a rotation by θ about n.  The axis
    is k/|k|, or, once θ passes π/2, the column with the largest diagonal
    entry of the symmetric part (R + Rᵀ)/2 − cos θ·I = (1 − cos θ)·n nᵀ,
    signed along k: that stays exact at a half turn, where k vanishes.  The
    exponential is Rodrigues' I + sin θ·n̂ + (1 − cos θ)·n̂²: it equals g
    only if g is a rotation.  A stack (..., 3, 3) is taken matrix by matrix:
    the closed form is scalar arithmetic, cheaper one matrix at a time than
    as numpy operations on small stacks.
    """
    r = np.asarray(g).real
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"the rotation logarithm takes a 3x3 matrix, not {r.shape}")
    if r.ndim > 2:
        logs, exps = zip(*map(_rotation_log, r.reshape(-1, 3, 3)))
        return np.reshape(logs, r.shape), np.reshape(exps, r.shape)
    k = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_norm = float(np.linalg.norm(k))
    cos_theta = 0.5 * (float(np.trace(r)) - 1.0)
    theta = math.atan2(sin_norm, cos_theta)
    if cos_theta < 0.0:
        sym = 0.5 * (r + r.T) - cos_theta * np.eye(3)
        col = sym[:, int(np.argmax(np.diag(sym)))]
        n = col / np.linalg.norm(col)
        if n @ k < 0.0:
            n = -n
    else:
        n = k / sin_norm if sin_norm else k  # k = 0 here means θ = 0: no axis needed
    n_hat = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    exp_x = np.eye(3) + math.sin(theta) * n_hat + (1.0 - math.cos(theta)) * (n_hat @ n_hat)
    return theta * n_hat, exp_x


def _traceless_log(g) -> tuple[np.ndarray, np.ndarray]:
    """Skew-Hermitian logarithm of a unitary matrix whose eigen-angles sum to zero, and its exponential.

    The basis q is the QR factor of the eigenvector matrix, so q is unitary
    and qᴴgq is upper triangular; the angles are the principal arguments of
    its diagonal, with round(Σθ/2π) of the largest (or, for a negative sum,
    the smallest) moved by a whole turn.  This lands in su(n) also where the
    principal logarithm is not traceless: wrapped angle sums and central
    elements.  The exponential is q·e^{iθ}·qᴴ: it equals g only if g is
    unitary.  g may be a stack (..., n, n), each matrix taken on its own.
    """
    g = np.asarray(g, dtype=complex)
    q, _ = np.linalg.qr(np.linalg.eig(g)[1])
    q_h = q.conj().mT
    theta = np.angle(np.einsum("...ji,...jk,...ki->...i", q.conj(), g, q))
    exp_x = (q * np.exp(1j * theta)[..., None, :]) @ q_h
    turns = np.rint(theta.sum(axis=-1) / (2 * math.pi))[..., None]
    if turns.any():
        # rank of each angle among its row's, ascending; the |turns| largest or smallest move
        rank = np.argsort(np.argsort(theta, axis=-1), axis=-1)
        shift = np.where(turns > 0, rank >= theta.shape[-1] - turns, rank < -turns)
        theta = theta - np.where(shift, np.copysign(2 * math.pi, turns), 0.0)
    return (q * (1j * theta)[..., None, :]) @ q_h, exp_x


_PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def su2_model() -> GroupModel:
    """SU(2) as 2x2 unitaries; basis X_k = -(i/2) σ_k, B = Id (so [X_i,X_j] = ε_ijk X_k)."""
    basis = [-0.5j * s for s in _PAULI]
    return GroupModel("su2", basis, np.eye(3), liftable=True)


def so3_model() -> GroupModel:
    """SO(3) rotations; adjoint action does not lift through the double cover."""
    l1 = np.array([[0.0, 0, 0], [0, 0, -1], [0, 1, 0]])
    l2 = np.array([[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    l3 = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return GroupModel("so3", [l1, l2, l3], np.eye(3), liftable=False)


_GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / np.sqrt(3),
]


def su3_model() -> GroupModel:
    """SU(3); basis X_a = -(i/2) λ_a normalized so that B = Id."""
    basis = [-0.5j * lam for lam in _GELL_MANN]
    return GroupModel("su3", basis, np.eye(8), liftable=True)


class _CoadjointSemidirectModel(GroupModel):
    """SO(3) ⋉ so(3)* with the closed-form logarithm of its elements."""

    def _log_matrix(self, g) -> tuple[np.ndarray, np.ndarray]:
        """[[ω̂, p], [0, 0]] with exponential [[R, w], [0, 1]], for rotation angles in [0, π].

        The rotation part ω̂ is the closed-form logarithm of R (exact at half
        turns); exp [[ω̂, p], [0, 0]] = [[R, V p], [0, 1]] with V the
        top-right block of exp [[ω̂, I], [0, 0]], invertible at these angles,
        so p = V⁻¹ w.  Every w is reached, so the exponential returned is
        [[exp ω̂, w], [0, 1]].
        """
        g = np.asarray(g)
        lead = g.shape[:-2]
        omega, rot = _rotation_log(g[..., :3, :3])
        block = np.zeros(lead + (6, 6))
        block[..., :3, :3] = omega
        block[..., :3, 3:] = np.eye(3)
        v = expm_rows(block.reshape(-1, 6, 6)).reshape(block.shape)[..., :3, 3:]
        w = g[..., :3, 3].real
        x = np.zeros(lead + (4, 4))
        x[..., :3, :3] = omega
        x[..., :3, 3] = np.linalg.solve(v, w[..., None])[..., 0]
        exp_x = np.zeros(lead + (4, 4))
        exp_x[..., :3, :3] = rot
        exp_x[..., :3, 3] = w
        exp_x[..., 3, 3] = 1.0
        return x, exp_x


def coadjoint_semidirect_model() -> GroupModel:
    """Rotations acting on the dual of their algebra: elements [[R, w], [0, 1]].

    Basis order (P_1..P_3, J_1..J_3); B is the duality pairing, a split form
    [[0, I], [I, 0]].  The double cover of the rotation factor is invisible
    to everything adjoint-level, which is all this model is used for.  The
    logarithm has a closed form (see ``_CoadjointSemidirectModel._log_matrix``).
    """
    so3 = so3_model()
    basis = []
    for i in range(3):
        p = np.zeros((4, 4))
        p[i, 3] = 1.0
        basis.append(p)
    for l in so3.basis:
        j = np.zeros((4, 4))
        j[:3, :3] = l
        basis.append(j)
    B = np.zeros((6, 6))
    B[:3, 3:] = np.eye(3)
    B[3:, :3] = np.eye(3)
    return _CoadjointSemidirectModel("coadjoint-semidirect", basis, B, liftable=True)


class _ProductModel(GroupModel):
    """Direct product with block-diagonal representation and B = B1 ⊕ B2."""

    def __init__(self, m1: GroupModel, m2: GroupModel):
        r1, r2 = m1.rep_dim, m2.rep_dim
        basis = []
        for x in m1.basis:
            b = np.zeros((r1 + r2, r1 + r2), dtype=complex)
            b[:r1, :r1] = x
            basis.append(b)
        for x in m2.basis:
            b = np.zeros((r1 + r2, r1 + r2), dtype=complex)
            b[r1:, r1:] = x
            basis.append(b)
        B = np.zeros((m1.dim + m2.dim, m1.dim + m2.dim))
        B[:m1.dim, :m1.dim] = m1.B
        B[m1.dim:, m1.dim:] = m2.B
        super().__init__(f"{m1.name}x{m2.name}", basis, B, liftable=m1.liftable and m2.liftable)
        self.factors = (m1, m2)

    def _log_matrix(self, g) -> tuple[np.ndarray, np.ndarray]:
        """Each diagonal block by its factor's route; the off-diagonal blocks are
        kept in x and zero in exp x, so an element that is not block diagonal
        fails the membership test."""
        (m1, m2), r = self.factors, self.factors[0].rep_dim
        x = np.array(g, dtype=complex)
        exp_x = np.zeros_like(x)
        x[..., :r, :r], exp_x[..., :r, :r] = m1._log_matrix(x[..., :r, :r])
        x[..., r:, r:], exp_x[..., r:, r:] = m2._log_matrix(x[..., r:, r:])
        return x, exp_x


def product_model(m1: GroupModel, m2: GroupModel) -> GroupModel:
    return _ProductModel(m1, m2)


MODEL_BUILDERS = {
    "su2": su2_model,
    "so3": so3_model,
    "su3": su3_model,
    "coadjoint-semidirect": coadjoint_semidirect_model,
}


def get_model(name: str) -> GroupModel:
    try:
        return MODEL_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown group model {name!r}; known: {sorted(MODEL_BUILDERS)}")
