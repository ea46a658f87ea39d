"""Acceptance-level verification suites.

Each function runs one acceptance criterion at its pass thresholds, read
from ``TOLERANCES``, and returns a report dict {"name", "passed",
"details"}.  The same functions back the test suite
(tests/test_acceptance.py) and the CLI ``verify-all`` command; all
randomness is drawn from a seeded generator so reports are reproducible bit
for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import exact
from .bilinear import (
    BilinearSpace,
    haar_orthogonal,
    make_split_space,
    projector_distances,
    transverse_spans,
)
from .clifford import CliffordAlgebra, projector_p
from .dirac import kappa_lagrangians, spinor_of_orthogonal, spinors_of_orthogonal
from .geometry import (
    PinLift,
    cartan_dirac_integrability,
    cartan_section_jet,
    conjugacy_volume_tops,
    courant_bracket,
    ghjw_matrix,
    ghjw_value,
    random_class_point,
    random_class_points,
    su2_class_from_trace,
    volume_density_oracle,
)
from .groups import coadjoint_semidirect_model, su2_model
from .moment import (
    DoubleFactory,
    QHamPoint,
    conjugacy_qham_point,
    exp_dirac_report,
    minimal_degeneracy,
    moment_condition_residual,
    mult_eta_identity_residual,
    qham_volume_top,
    strong_dirac_equivalence,
)
from .multivector import Multivector
from .spinor import (
    PAIRING_CUT,
    DoubledSpace,
    fixed_line_dimension,
    spinors_of_lagrangians,
    transversality_by_pairing,
)

__all__ = ["ALL_CRITERIA", "TOLERANCES", "run_criterion", "run_all"]


# Every pass threshold a criterion applies, recorded in reports for
# provenance.  The criteria, and the CLI subcommands that apply a criterion's
# own test, read their thresholds here.
TOLERANCES = {
    "clifford-exactness": "exact",
    "fixed-line-dimension": "exact",
    "purity-round-trip": 1e-9,
    "chevalley-transversality": PAIRING_CUT,
    "orthogonal-spinor-closed-vs-pin": {"error": 1e-8, "fallback_distance": 1e-12},
    # the non-integrable control: ψ residual > control_ratio · max(worst φ, control_floor)
    "cartan-dirac-integrability": {"phi_residual": 1e-4, "control_ratio": 10,
                                   "control_floor": 1e-12},
    "conjugacy-volume-nondegeneracy": {"density": 1e-6, "oracle": 1e-9},
    "ghjw-equals-kks": 1e-10,
    "qham-suite": {"moment_residual": 1e-8, "fused_density": 1e-10},
    # criteria 10-12 compare exact tensors on su2 (B = I, Ad orthogonal): each residual bound is the
    # roundoff bound c·u, u = 2^-53, with c = 2^15, 2^12 and 2^17 (derived in CHANGES.md; criterion
    # 11's c for the closed-form ϖ, whose partials are one block Padé exponential per direction)
    "fusion-three-form-identity": 2.0 ** -38,
    "exponential-dirac": {"exterior_residual": 2.0 ** -41, "dirac_distance": 1e-8},
    "courant-closure": 2.0 ** -36,
}


def _sparse_integer_element(dim: int, rng) -> tuple[int, dict[int, int]]:
    """Five draws of a blade and a coefficient p/q (p in [-9, 9], q in [1, 7]), as integers over
    a common denominator: (the lcm of the q, {blade mask: integer}).  A later draw of a blade
    overwrites an earlier one, and zero coefficients are dropped."""
    drawn = {}
    for _ in range(5):
        indices = rng.choice(dim, size=int(rng.integers(0, dim + 1)), replace=False)
        drawn[sum(1 << i for i in indices.tolist())] = (int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
    scale = math.lcm(*(q for _, q in drawn.values()))
    return scale, {m: p * (scale // q) for m, (p, q) in drawn.items() if p}


# --------------------------------------------------------------------------- #

def criterion_1(seed: int) -> dict:
    """Exact Clifford engine: associativity, spinor representation rank, idempotent."""
    rng = np.random.default_rng(seed)
    assoc_failures = 0
    for n in (1, 2, 3):
        mul = CliffordAlgebra(make_split_space(n)).mul_masks
        for _ in range(200):
            # the product is bilinear, so integer operands compare (xy)z and x(yz) exactly
            x, y, z = (_sparse_integer_element(2 * n, rng)[1] for _ in range(3))
            if mul(mul(x, y, True), z, True) != mul(x, mul(y, z, True), True):
                assoc_failures += 1
    ranks = {}
    for n in (1, 2, 3):
        doubled = DoubledSpace(n)
        rows = [doubled.rho_word_matrix(b).ravel().tolist()
                for k in range(2 * n + 1) for b in combinations(range(2 * n), k)]
        ranks[n] = exact.rank(rows)
    rank_ok = all(ranks[n] == 4 ** n for n in (1, 2, 3))
    proj_ok = True
    for n in (1, 2, 3):
        algebra = CliffordAlgebra(make_split_space(n))
        e_basis = []
        f_basis = []
        for i in range(n):
            e = [Fraction(0)] * (2 * n)
            e[i] = Fraction(1)
            e[n + i] = Fraction(1)
            f = [Fraction(0)] * (2 * n)
            f[i] = Fraction(1, 2)
            f[n + i] = Fraction(-1, 2)
            e_basis.append(e)
            f_basis.append(f)
        p = projector_p(algebra, e_basis, f_basis)
        idem = (p * p - p).mv.terms == {}
        killed_left = all((algebra.vector(e) * p).mv.terms == {} for e in e_basis)
        killed_right = all((p * algebra.vector(f)).mv.terms == {} for f in f_basis)
        # p - 1 ∈ Cl(W)·E: exact membership in the span of {blade · e_i}
        cols = []
        for blade in algebra.blades:
            for e in e_basis:
                prod = algebra.mul(Multivector(2 * n, {blade: 1}), Multivector.from_vector(e))
                cols.append([Fraction(prod.terms.get(b, 0)) for b in algebra.blades])
        target = (p.mv - Multivector.scalar(2 * n)).terms
        tvec = [Fraction(target.get(b, 0)) for b in algebra.blades]
        mat = exact.transpose(cols)
        in_ideal = exact.rank(mat) == exact.rank([row + [tvec[i]] for i, row in enumerate(mat)])
        proj_ok = proj_ok and idem and killed_left and killed_right and in_ideal
    passed = assoc_failures == 0 and rank_ok and proj_ok
    return {"name": "clifford-exactness", "passed": passed,
            "details": {"assoc_failures": assoc_failures, "rho_ranks": ranks,
                        "projector_ok": proj_ok}}


def criterion_2(seed: int) -> dict:
    """dim of the fixed line of a Lagrangian is exactly 1 (rational arithmetic)."""
    rng = np.random.default_rng(seed)
    bad = 0
    trials = {}
    for n in (1, 2, 3):
        doubled = DoubledSpace(n)
        count = 0
        for _ in range(50):
            a = exact.random_rational_orthogonal(n, rng)
            half = Fraction(1, 2)
            quarter = Fraction(1, 4)
            eye = exact.identity(n)
            if rng.integers(2):  # A^κ(V)
                top = [[(a[i][j] + eye[i][j]) * half for j in range(n)] for i in range(n)]
                bot = [[(a[i][j] - eye[i][j]) * quarter for j in range(n)] for i in range(n)]
            else:  # A^κ(V*)
                top = [[a[i][j] - eye[i][j] for j in range(n)] for i in range(n)]
                bot = [[(a[i][j] + eye[i][j]) * half for j in range(n)] for i in range(n)]
            basis = [[top[i][j] for i in range(n)] + [bot[i][j] for i in range(n)]
                     for j in range(n)]
            dim = fixed_line_dimension(doubled, basis)
            count += 1
            if dim != 1:
                bad += 1
        trials[n] = count
    return {"name": "fixed-line-dimension", "passed": bad == 0,
            "details": {"violations": bad, "trials": trials}}


def _lagrangian_draws(rng, pairs: int) -> dict[int, np.ndarray]:
    """500 trials in the order of the random stream: each draws n in 1..4, then ``pairs``
    × (a Gaussian n × n matrix, a V/V* bit).  Returns their Lagrangian bases, grouped by n and
    stacked in draw order (a trial's ``pairs`` bases are consecutive)."""
    draws: dict[int, list] = {}
    for _ in range(500):
        n = int(rng.integers(1, 5))
        draws.setdefault(n, []).extend((rng.standard_normal((n, n)), rng.integers(2))
                                       for _ in range(pairs))
    return {n: kappa_lagrangians(haar_orthogonal(np.array([g for g, _ in rows])),
                                 np.array([bit for _, bit in rows], dtype=bool))
            for n, rows in draws.items()}


def criterion_3(seed: int) -> dict:
    """Purity round trip: the null space of the spinor of E returns E."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, lags in _lagrangian_draws(rng, 1).items():
        _, nulls = spinors_of_lagrangians(DoubledSpace(n), lags)
        worst = max(worst, float(projector_distances(nulls, lags).max()))
    return {"name": "purity-round-trip", "passed": worst < TOLERANCES["purity-round-trip"],
            "details": {"max_distance": worst, "trials": 500}}


def criterion_4(seed: int) -> dict:
    """Pairing-vs-subspace transversality: zero disagreements on 500 pairs, both outcomes present."""
    rng = np.random.default_rng(seed)
    disagreements = transverse_pairs = 0
    for n, lags in _lagrangian_draws(rng, 2).items():
        forms, _ = spinors_of_lagrangians(DoubledSpace(n), lags)
        by_pairing = transversality_by_pairing(forms[0::2], forms[1::2])
        by_subspace = transverse_spans(lags[0::2], lags[1::2])
        disagreements += int(np.sum(by_pairing != by_subspace))
        transverse_pairs += int(np.sum(by_subspace))
    return {"name": "chevalley-transversality",
            "passed": disagreements == 0 and 0 < transverse_pairs < 500,
            "details": {"disagreements": disagreements, "transverse_pairs": transverse_pairs,
                        "trials": 500}}


def _orthogonal_draws(rng) -> dict[int, np.ndarray]:
    """The 200 maps of criterion 5 in the order of the random stream, grouped by n and stacked.

    Each trial draws n in 1..5, then the Gaussian matrix of ``random_orthogonal``;
    the map is kept when |det(A + I)| > 1e-3.  Each pass draws as many trials
    as maps are still missing, so no trial past the 200th kept map is drawn.
    """
    kept: dict[int, list] = {}
    done = 0
    while done < 200:
        draws: dict[int, list] = {}
        for _ in range(200 - done):
            n = int(rng.integers(1, 6))
            draws.setdefault(n, []).append(rng.standard_normal((n, n)))
        for n, gaussians in draws.items():
            a = haar_orthogonal(np.array(gaussians))
            keep = a[np.abs(np.linalg.det(a + np.eye(n))) > 1e-3]
            if len(keep):
                kept.setdefault(n, []).append(keep)
                done += len(keep)
    return {n: np.concatenate(maps) for n, maps in kept.items()}


def criterion_5(seed: int) -> dict:
    """Closed-form spinor of an orthogonal map against the Pin reflection route."""
    tol = TOLERANCES["orthogonal-spinor-closed-vs-pin"]
    worst = 0.0
    for n, a in _orthogonal_draws(np.random.default_rng(seed)).items():
        b_eye = BilinearSpace(np.eye(n))
        closed, _ = spinors_of_orthogonal(a, b_eye, "closed")
        refl, _ = spinors_of_orthogonal(a, b_eye, "reflections")
        err = np.minimum(np.linalg.norm(closed - refl, axis=1), np.linalg.norm(closed + refl, axis=1))
        worst = max(worst, float(err.max()))
    # the singular locus: A = -I falls back to reflections, giving the V* line
    n = 3
    doubled = DoubledSpace(n)
    lift = spinor_of_orthogonal(-np.eye(n), BilinearSpace(np.eye(n)))
    vol_ok = (lift.method == "reflections"
              and np.flatnonzero(lift.psi.form).tolist() == [(1 << n) - 1]
              and lift.psi.null.distance(doubled.v_star_subspace()) < tol["fallback_distance"])
    return {"name": "orthogonal-spinor-closed-vs-pin", "passed": worst < tol["error"] and vol_ok,
            "details": {"max_sign_matched_error": worst, "volume_fallback_ok": vol_ok}}


def criterion_6(seed: int) -> dict:
    """Invariant-spinor integrability on su(2) with the non-integrable control."""
    tol = TOLERANCES["cartan-dirac-integrability"]
    model = su2_model()
    pin = PinLift(model)
    rng = np.random.default_rng(seed)
    worst_phi = 0.0
    for _ in range(20):
        g = model.random_element(rng)
        worst_phi = max(worst_phi, cartan_dirac_integrability(model, g, pin)["phi_residual"])
    control_ok = all(
        cartan_dirac_integrability(model, model.random_element(rng), pin)["psi_residual"]
        > tol["control_ratio"] * max(worst_phi, tol["control_floor"])
        for _ in range(10)
    )
    passed = worst_phi < tol["phi_residual"] and control_ok
    return {"name": "cartan-dirac-integrability", "passed": passed,
            "details": {"max_phi_residual": worst_phi, "control_ok": control_ok}}


def criterion_7(seed: int) -> dict:
    """Nonvanishing class volume densities, against the independent expansion.

    Each class's points are drawn and evaluated as one stack; three of them
    are checked against the per-point oracle.
    """
    tol = TOLERANCES["conjugacy-volume-nondegeneracy"]
    model = su2_model()
    pin = PinLift(model)
    rng = np.random.default_rng(seed)
    traces = [0.0] + [float(t) for t in rng.uniform(-1.9, 1.9, size=19)]
    min_density = math.inf
    worst_oracle = 0.0

    for trace in traces:
        g0 = su2_class_from_trace(trace)
        pts = random_class_points(model, g0, rng, 100)
        densities = conjugacy_volume_tops(pts, pin)
        min_density = min(min_density, float(np.abs(densities).min()))
        for pt, engine in zip(pts[:3], densities):
            psi = pin.forms_at(pt.g)[0]
            oracle = volume_density_oracle(ghjw_matrix(pt), psi, pt.frame)
            worst_oracle = max(worst_oracle, abs(engine - oracle))
    passed = min_density > tol["density"] and worst_oracle < tol["oracle"]
    return {"name": "conjugacy-volume-nondegeneracy", "passed": passed,
            "details": {"min_abs_density": min_density, "max_oracle_error": worst_oracle,
                        "classes": len(traces), "points_per_class": 100}}


def criterion_8(seed: int) -> dict:
    """Class 2-form equals the orbit symplectic form on the semidirect model."""
    model = coadjoint_semidirect_model()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        mu = rng.standard_normal(3)
        g0 = np.eye(4)
        g0[:3, 3] = mu
        pt = random_class_point(model, g0, rng)
        mu_pt = np.asarray(pt.g, dtype=float)[:3, 3]
        for _ in range(3):
            xi1, xi2 = rng.standard_normal(3), rng.standard_normal(3)
            z1 = np.concatenate([np.zeros(3), xi1])
            z2 = np.concatenate([np.zeros(3), xi2])
            gh = ghjw_value(model, pt.g, z1, z2)
            kks = float(mu_pt @ np.cross(xi1, xi2))
            worst = max(worst, abs(gh - kks))
    return {"name": "ghjw-equals-kks", "passed": worst < TOLERANCES["ghjw-equals-kks"],
            "details": {"max_difference": worst, "points": 100}}


def criterion_9(seed: int) -> dict:
    """Moment axioms, definition equivalence, and fused-double volume."""
    tol = TOLERANCES["qham-suite"]
    model = su2_model()
    pin = PinLift(model)
    factory = DoubleFactory(model)
    rng = np.random.default_rng(seed)

    worst_class = 0.0
    class_deg_ok = True
    points = []
    for _ in range(50):
        trace = float(rng.uniform(-1.9, 1.9)) if rng.integers(4) else 0.0
        pt = random_class_point(model, su2_class_from_trace(trace), rng)
        p = conjugacy_qham_point(model, pt.g)
        worst_class = max(worst_class, moment_condition_residual(p))
        md = minimal_degeneracy(p)
        class_deg_ok = class_deg_ok and md["original"] and md["elegant"] and md["consistent"]
        points.append(p)

    worst_fused = 0.0
    fused_deg_ok = True
    min_fused_density = math.inf
    for _ in range(50):
        a, b = model.random_element(rng), model.random_element(rng)
        p = factory.fused_double_point(a, b)
        worst_fused = max(worst_fused, moment_condition_residual(p))
        md = minimal_degeneracy(p)
        fused_deg_ok = fused_deg_ok and md["original"] and md["elegant"] and md["consistent"]
        min_fused_density = min(min_fused_density, abs(qham_volume_top(p, pin)))
        if len(points) < 100:
            points.append(p)

    disagreements = 0
    for idx, p in enumerate(points[:100]):
        if idx % 2:
            noisy = QHamPoint(p.model, p.omega + _noise(rng, p.frame_dim, 1e-3),
                              p.phi, p.dphi, p.action)
            rep = strong_dirac_equivalence(noisy)
        else:
            rep = strong_dirac_equivalence(p)
        if not rep["agree"]:
            disagreements += 1

    passed = (worst_class < tol["moment_residual"] and worst_fused < tol["moment_residual"]
              and class_deg_ok and fused_deg_ok and disagreements == 0
              and min_fused_density > tol["fused_density"])
    return {"name": "qham-suite", "passed": passed,
            "details": {"max_class_residual": worst_class,
                        "max_fused_residual": worst_fused,
                        "kernel_checks_ok": class_deg_ok and fused_deg_ok,
                        "equivalence_disagreements": disagreements,
                        "min_fused_density": min_fused_density}}


def _noise(rng, m: int, eps: float) -> np.ndarray:
    """An antisymmetric m × m matrix of Frobenius norm eps in a random direction.

    The norm is fixed, not drawn: a drawn norm can come out small enough to
    leave a residual between the two routes' thresholds, where one route
    counts the noisy point as failed and the other as passed.
    """
    if m < 2:  # an antisymmetric 1 × 1 matrix is zero
        return np.zeros((m, m))
    a = rng.standard_normal((m, m))
    a = a - a.T
    return eps * a / np.linalg.norm(a)


def criterion_10(seed: int) -> dict:
    """Product 3-form identity on the direct product, with τ differentiated exactly."""
    model = su2_model()
    factory = DoubleFactory(model)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        a, b = model.random_element(rng), model.random_element(rng)
        worst = max(worst, mult_eta_identity_residual(model, factory.product, a, b))
    return {"name": "fusion-three-form-identity",
            "passed": worst < TOLERANCES["fusion-three-form-identity"],
            "details": {"max_residual": worst, "points": 10}}


def criterion_11(seed: int) -> dict:
    """Exponential theorem: homotopy primitive and strong Dirac property."""
    tol = TOLERANCES["exponential-dirac"]
    model = su2_model()
    rng = np.random.default_rng(seed)
    worst_ext = 0.0
    worst_dist = 0.0
    all_strong = True
    for _ in range(20):
        xi = model.random_algebra(rng, 0.7)
        rep = exp_dirac_report(model, xi)
        worst_ext = max(worst_ext, rep["exterior_residual"])
        worst_dist = max(worst_dist, rep["dirac_distance"])
        all_strong = all_strong and rep["strong"]
    passed = (worst_ext < tol["exterior_residual"] and worst_dist < tol["dirac_distance"]
              and all_strong)
    return {"name": "exponential-dirac", "passed": passed,
            "details": {"max_exterior_residual": worst_ext,
                        "max_dirac_distance": worst_dist, "all_strong": all_strong}}


def criterion_12(seed: int) -> dict:
    """Closure of the invariant Lagrangian fibers under the derived bracket."""
    model = su2_model()
    eta = -0.5 * model.invariant_tensor
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        g = model.random_element(rng)
        xi, zeta, chi = (model.random_algebra(rng) for _ in range(3))
        br = courant_bracket(model, cartan_section_jet(model, g, xi),
                             cartan_section_jet(model, g, zeta), eta=eta)
        doubled = DoubledSpace(model.dim)
        val = abs(doubled.space.pairing(cartan_section_jet(model, g, chi)[0], br))
        worst = max(worst, val)
    return {"name": "courant-closure", "passed": worst < TOLERANCES["courant-closure"],
            "details": {"max_pairing": worst, "points": 10}}


ALL_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

def run_criterion(number: int, seed: int = 7) -> dict:
    report = ALL_CRITERIA[number](seed)
    report["criterion"] = number
    return report


def run_all(seed: int = 7) -> list[dict]:
    return [run_criterion(k, seed) for k in sorted(ALL_CRITERIA)]
