"""Output checks of the benchmark workloads.

Each check returns None when the output is right and a one-line reason when
it is not.  The checks test properties the method must have, or recompute a
quantity with numpy apart from the code under test; none compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Pass thresholds of the twelve criteria, pinned here so that a change to the
# program's own table cannot loosen the check.
CRITERIA = {
    1: ("clifford-exactness", lambda d: (
        int(d["assoc_failures"]) == 0 and d["projector_ok"] is True
        and {k: int(v) for k, v in d["rho_ranks"].items()} == {"1": 4, "2": 16, "3": 64})),
    2: ("fixed-line-dimension", lambda d: int(d["violations"]) == 0),
    3: ("purity-round-trip", lambda d: float(d["max_distance"]) < 1e-9),
    4: ("chevalley-transversality", lambda d: int(d["disagreements"]) == 0),
    5: ("orthogonal-spinor-closed-vs-pin", lambda d: (
        float(d["max_sign_matched_error"]) < 1e-8 and d["volume_fallback_ok"] is True)),
    6: ("cartan-dirac-integrability", lambda d: (
        float(d["max_phi_residual"]) < 1e-4 and d["control_ok"] is True)),
    7: ("conjugacy-volume-nondegeneracy", lambda d: (
        float(d["min_abs_density"]) > 1e-6 and float(d["max_oracle_error"]) < 1e-9)),
    8: ("ghjw-equals-kks", lambda d: float(d["max_difference"]) < 1e-10),
    9: ("qham-suite", lambda d: (
        float(d["max_class_residual"]) < 1e-8 and float(d["max_fused_residual"]) < 1e-8
        and d["kernel_checks_ok"] is True and int(d["equivalence_disagreements"]) == 0
        and float(d["min_fused_density"]) > 1e-10)),
    10: ("fusion-three-form-identity", lambda d: float(d["max_residual"]) < 1e-4),
    11: ("exponential-dirac", lambda d: (
        float(d["max_exterior_residual"]) < 1e-5 and float(d["max_dirac_distance"]) < 1e-8
        and d["all_strong"] is True)),
    12: ("courant-closure", lambda d: float(d["max_pairing"]) < 1e-4),
}


def verify_all_report(report: dict, criteria=tuple(CRITERIA)) -> str | None:
    """A written verify-all report: every criterion passed, details within threshold."""
    if report.get("command") != "verify-all" or report.get("passed") is not True:
        return "report not marked passed"
    checks = report.get("checks", [])
    numbers = [int(c.get("criterion", -1)) for c in checks]
    if numbers != list(criteria):
        return f"criteria {numbers}, expected {list(criteria)}"
    for entry in checks:
        k = int(entry["criterion"])
        name, within = CRITERIA[k]
        if entry.get("name") != name or entry.get("passed") is not True:
            return f"criterion {k} not passed"
        try:
            ok = within(entry["details"])
        except (KeyError, TypeError, ValueError) as err:
            return f"criterion {k} details unreadable: {err!r}"
        if not ok:
            return f"criterion {k} details outside threshold: {entry['details']}"
    return None


# --------------------------------------------------------------------------- #
# models

def class_density(density: float, oracle: float, signed: bool) -> str | None:
    """Nonzero, and equal to the independent expansion (in |.| without a lift)."""
    if not math.isfinite(density) or abs(density) <= 1e-6:
        return f"class density {density!r} vanishes"
    ref = oracle if signed else abs(oracle)
    if abs(density - ref) > 1e-9 * max(1.0, abs(ref)):
        return f"class density {density!r} differs from oracle {ref!r}"
    return None


def fused_density(density: float) -> str | None:
    if abs(abs(density) - 1.0) > 1e-8:
        return f"fused-double density {density!r} is not of modulus 1"
    return None


def _adjoint(basis, g) -> np.ndarray:
    """Matrix of Ad_g in the given Lie algebra basis, by least squares."""
    g = np.asarray(g, dtype=complex)
    g_inv = np.linalg.inv(g)
    flat = lambda x: np.concatenate([np.ravel(x).real, np.ravel(x).imag])
    cols = np.array([flat(x) for x in basis]).T
    images = np.array([flat(g @ x @ g_inv) for x in basis]).T
    return np.linalg.lstsq(cols, images, rcond=None)[0]


def moment_condition(basis, B, omega, phi, dphi, action) -> str | None:
    """ι(ξ^♯)ω = B(((Ad_Φ + 1)/2) dΦ(·), ξ), recomputed from the point's data."""
    omega, dphi, action = (np.asarray(x, dtype=float) for x in (omega, dphi, action))
    if omega.size == 0:
        return None
    ad = _adjoint(basis, phi)
    lhs = omega.T @ action
    rhs = dphi @ ((np.eye(len(basis)) + ad) / 2.0).T @ np.asarray(B, dtype=float)
    scale = max(1.0, np.abs(omega).max() * np.abs(action).max(), np.abs(dphi).max())
    residual = float(np.abs(lhs - rhs).max())
    if residual > 1e-8 * scale:
        return f"moment condition residual {residual:.3e}"
    return None


def integrability(phi_residual: float, psi_residual: float) -> str | None:
    if not phi_residual < 1e-4:
        return f"phi residual {phi_residual!r} not below 1e-4"
    if not psi_residual >= 10 * phi_residual:
        return f"psi residual {psi_residual!r} not ten times phi residual {phi_residual!r}"
    return None


# --------------------------------------------------------------------------- #
# engine

def split_gram(n: int) -> np.ndarray:
    return np.diag([1.0] * n + [-1.0] * n)


def reflection(w, gram) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    gw = gram @ w
    return np.eye(len(w)) - (2.0 / float(w @ gw)) * np.outer(w, gw)


def reflections_product(a, vectors, gram) -> str | None:
    """R_{w_1} ∘ ... ∘ R_{w_k} reproduces the input map."""
    a = np.asarray(a, dtype=float)
    prod = np.eye(a.shape[0])
    for w in vectors:
        prod = prod @ reflection(w, gram)
    err = float(np.linalg.norm(prod - a))
    if err > 1e-8 * max(1.0, float(np.linalg.norm(a)) ** 2):
        return f"product of reflections misses the map by {err:.3e}"
    return None


def induced_matrix(member: bool, induced, a) -> str | None:
    """A Pin lift lies in the Clifford group and acts on W by the input map."""
    if not member:
        return "Pin lift not in the Clifford group"
    a = np.asarray(a, dtype=float)
    err = float(np.linalg.norm(np.asarray(induced) - a))
    if err > 1e-8 * max(1.0, float(np.linalg.norm(a)) ** 2):
        return f"induced matrix misses the map by {err:.3e}"
    return None


def anticommutator(value: float, expected_scalar: float, stray: float) -> str | None:
    """vw + wv = <v,w> 1 in float Clifford arithmetic."""
    err = abs(value - expected_scalar) + stray
    if err > 1e-9 * max(1.0, abs(expected_scalar)):
        return f"generator relation off by {err:.3e}"
    return None


def _orthonormal(basis) -> np.ndarray:
    q, _ = np.linalg.qr(np.asarray(basis, dtype=float))
    return q


def subspace_gap(a, b) -> float:
    """Spectral distance of the orthogonal projectors onto two column spans."""
    qa, qb = _orthonormal(a), _orthonormal(b)
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2))


def round_trip(null_basis, lag_basis) -> str | None:
    gap = subspace_gap(null_basis, lag_basis)
    if np.shape(null_basis)[1] != np.shape(lag_basis)[1] or not gap < 1e-9:
        return f"null space misses the Lagrangian by {gap:.3e}"
    return None


def separation(a, b) -> float:
    """Smallest singular value of two orthonormalized bases side by side (1 if b is empty)."""
    if np.shape(b)[1] == 0:
        return 1.0
    return float(np.linalg.svd(np.hstack([_orthonormal(a), _orthonormal(b)]),
                               compute_uv=False)[-1])


def transverse_by_rank(a, b) -> bool:
    s = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
    return bool(s[-1] > 1e-8 * s[0])


def pairing_vs_rank(pairing: float, program_transverse: bool, a, b) -> str | None:
    by_rank = transverse_by_rank(a, b)
    if (abs(pairing) > 1e-8) != by_rank or program_transverse != by_rank:
        return (f"pairing {pairing!r} and transverse={program_transverse} disagree with "
                f"the rank test ({by_rank})")
    return None


def lagrangian(basis, n: int) -> str | None:
    """A basis of n independent vectors on which the split pairing vanishes."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (2 * n, n):
        return f"basis of shape {basis.shape}, expected {(2 * n, n)}"
    s = np.linalg.svd(basis, compute_uv=False)
    if n and not s[-1] > 1e-8 * s[0]:
        return "basis vectors are dependent"
    pairing = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    gram = basis.T @ pairing @ basis
    worst = float(np.abs(gram).max()) if n else 0.0
    if worst > 1e-8 * max(1.0, float(s[0]) ** 2 if n else 1.0):
        return f"basis is not isotropic (Gram entry {worst:.3e})"
    return None


def strong_dirac(flag: bool, a, lag_basis) -> str | None:
    """Strong iff E meets ker A ⊕ 0 only in 0, by a numpy rank test."""
    a = np.asarray(a, dtype=float)
    u, s, vh = np.linalg.svd(a)
    r = int(np.sum(s > 1e-10 * max(s[0] if s.size else 0.0, 1.0)))
    ker = vh[r:].T
    n = a.shape[1]
    if ker.shape[1] == 0:
        expected = True
    else:
        block = np.vstack([ker, np.zeros((n, ker.shape[1]))])
        stacked = np.hstack([np.asarray(lag_basis, dtype=float), block])
        sv = np.linalg.svd(stacked, compute_uv=False)
        expected = bool(sv[-1] > 1e-8 * sv[0])
    if bool(flag) != expected:
        return f"strong={flag} but the rank test gives {expected}"
    return None
