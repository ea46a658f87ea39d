"""Command-line front end: verification suites with deterministic JSON reports.

Reports are reproducible byte for byte for a fixed configuration: all
randomness derives from the --seed argument, scalars are written as decimal
strings, and keys are sorted.  Subcommands:

    clifford            engine conformance checks (relations, groups, idempotent)
    spinor              purity round trips and pairing/transversality agreement
    dirac               image / preimage / strong-check on JSON matrices
    conjugacy-volume    class volume densities on a chosen conjugacy class
    integrability       (d+η) residuals of the invariant spinors
    qham verify         moment axioms for a chosen model space
    verify-all          the full acceptance suite
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bilinear import (
    LagrangianSubspace,
    haar_orthogonal,
    make_split_space,
    nullspace_basis,
    projector_distances,
    transverse_spans,
)
from .clifford import (
    CliffordAlgebra,
    factor_into_reflections,
    pin_lift_from_reflections,
    reflection_matrix,
)
from .dirac import dirac_image, dirac_preimage, is_strong_dirac, kappa_lagrangians
from .geometry import (
    PinLift,
    cartan_dirac_integrability,
    conjugacy_volume_tops,
    ghjw_matrix,
    random_class_point,
    random_class_points,
    su2_class_from_trace,
)
from .groups import get_model
from .moment import (
    DoubleFactory,
    conjugacy_qham_point,
    exp_orbit_qham_point,
    minimal_degeneracy,
    moment_condition_residual,
    qham_volume_top,
    strong_dirac_equivalence,
)
from .multivector import Multivector, _scalar_str
from .spinor import DoubledSpace, spinors_of_lagrangians, transversality_by_pairing
from .suites import TOLERANCES, run_all

SCHEMA = "purespin-report/1"


def _stringify(obj):
    """Scalars to decimal strings (floats via repr, exact values verbatim)."""
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (Fraction, int, np.integer, float, np.floating)):
        return _scalar_str(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"{z.real!r}{z.imag:+}j"
    if isinstance(obj, np.ndarray):
        return _stringify(obj.tolist())
    return obj


def emit_report(command: str, config: dict, checks: list[dict], out: str | None) -> int:
    passed = all(c.get("passed", True) for c in checks)
    config = {k: v for k, v in config.items() if not callable(v) and k != "out"}
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": _stringify(config),
        "checks": _stringify(checks),
        "passed": passed,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0 if passed else 1


# --------------------------------------------------------------------------- #
# subcommands

def _require_at_least(value: int, flag: str, least: int = 1) -> None:
    """Refuse a flag value below ``least``, naming the flag.

    A run over no samples would pass vacuously; a split form needs n >= 1;
    a seed must be non-negative (least 0).
    """
    if value < least:
        raise ValueError(f"{flag} must be at least {least}")


# Each Pin membership check reads ρ(g) off a table of ρ(e_I) over the 4^n blades of Cl(n,n), 16^n
# floats: 8 MB at n = 5 and 128 MB at n = 6.  A check takes 0.2 ms at n = 4 and 2.7 ms at n = 5
# (one thread, CPython 3.11), but the reflection factorization already fails at n = 3 and 4.
CLIFFORD_MAX_N = 4


def cmd_clifford(args) -> int:
    _require_at_least(args.samples, "--samples")
    _require_at_least(args.n, "--n")
    if args.n > CLIFFORD_MAX_N:
        raise ValueError(f"--n must be at most {CLIFFORD_MAX_N}")
    rng = np.random.default_rng(args.seed)
    space = make_split_space(args.n)
    algebra = CliffordAlgebra(space)
    checks = []
    worst = 0.0
    for _ in range(args.samples):
        v = rng.standard_normal(2 * args.n)
        w = rng.standard_normal(2 * args.n)
        anti = (algebra.vector(v) * algebra.vector(w) + algebra.vector(w) * algebra.vector(v)).mv
        expect = Multivector.scalar(2 * args.n, space.pairing(v, w))
        worst = max(worst, (anti - expect).norm())
    checks.append({"name": "generator-relations", "passed": worst < 1e-9,
                   "max_residual": worst})
    members_ok = True
    worst_miss = 0.0
    for _ in range(args.samples):
        a = _split_orthogonal(space, rng)
        lift = pin_lift_from_reflections(algebra, factor_into_reflections(a, space))
        member, induced = algebra.group_action(lift.g.mv)
        # the lift must act on W by the sampled map, not merely lie in the Clifford group
        miss = float(np.linalg.norm(induced - a))
        worst_miss = max(worst_miss, miss)
        members_ok = members_ok and member and miss <= 1e-8 * max(1.0, float(np.linalg.norm(a)) ** 2)
    checks.append({"name": "pin-lift-membership", "passed": members_ok,
                   "max_induced_error": worst_miss})
    return emit_report("clifford", vars(args), checks, args.out)


def _split_orthogonal(space, rng):
    """Random element of O(n,n) from reflections in random non-isotropic vectors."""
    m = np.eye(space.dim)
    count = 0
    while count < space.dim:
        w = rng.standard_normal(space.dim)
        if abs(space.pairing(w, w)) < 0.3:
            continue
        m = reflection_matrix(w, space) @ m
        count += 1
    return m


# The null spaces of the 2·samples spinors are one batched SVD of their (2^n, 2n) action
# matrices, 2^(n+4)·n bytes each.  At 100 samples (one thread, CPython 3.11, peak RSS) n = 10
# takes 0.30 s and 117 MB, n = 11 0.60 s and 209 MB, and n = 12 2.2 s and 356 MB; n = 16 would
# need 3.4 GB for the action matrices alone.  Memory also grows linearly with --samples.
SPINOR_MAX_N = 10


def cmd_spinor(args) -> int:
    _require_at_least(args.samples, "--samples")
    _require_at_least(args.n, "--n")
    if args.n > SPINOR_MAX_N:
        raise ValueError(f"--n must be at most {SPINOR_MAX_N}")
    n, count = args.n, args.samples
    rng = np.random.default_rng(args.seed)
    # each sample draws the map of A^κ(V), then the map of A^κ(V*)
    gaussians = np.array([rng.standard_normal((n, n)) for _ in range(2 * count)])
    lags = kappa_lagrangians(haar_orthogonal(gaussians), np.arange(2 * count) % 2 == 0)
    forms, nulls = spinors_of_lagrangians(DoubledSpace(n), lags)
    worst = float(projector_distances(nulls, lags).max())
    agree = bool(np.all(transversality_by_pairing(forms[0::2], forms[1::2])
                        == transverse_spans(lags[0::2], lags[1::2])))
    checks = [
        {"name": "purity-round-trip", "passed": worst < TOLERANCES["purity-round-trip"],
         "max_distance": worst},
        {"name": "pairing-transversality", "passed": agree},
    ]
    return emit_report("spinor", vars(args), checks, args.out)


def _finite_matrix(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a float matrix, refused unless it is non-empty, 2-D and finite."""
    try:
        a = np.array(payload[key], dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != 2 or not a.size or not np.isfinite(a).all():
        raise ValueError(f'"{key}" must be a non-empty 2-D array of finite numbers')
    return a


def cmd_dirac(args) -> int:
    if args.input:
        with open(args.input) as handle:
            payload = json.loads(handle.read())
    else:
        payload = json.loads(sys.stdin.read())
    if not isinstance(payload, dict) or not {"matrix", "dirac_basis"} <= payload.keys():
        raise ValueError('input JSON needs "matrix" and "dirac_basis"')
    a = _finite_matrix(payload, "matrix")
    n_out, n_in = a.shape
    doubled_in = DoubledSpace(n_in)
    doubled_out = DoubledSpace(n_out)
    side = doubled_out if args.op == "preimage" else doubled_in  # the space the basis lives in
    basis = _finite_matrix(payload, "dirac_basis")
    if basis.shape != (2 * side.n, side.n):
        raise ValueError(f'"dirac_basis" must have shape (2n, n) = ({2 * side.n}, {side.n}) '
                         f"for {args.op}, not {basis.shape}")
    lag = LagrangianSubspace(side.space, basis)
    checks = []
    if args.op == "image":
        image, strong = dirac_image(a, lag, doubled_out)
        checks.append({"name": "image", "passed": True, "basis": image.basis.tolist(),
                       "strong": strong})
    elif args.op == "preimage":
        pre, nonzero = dirac_preimage(a, lag, doubled_in)
        checks.append({"name": "preimage", "passed": True, "basis": pre.basis.tolist(),
                       "pullback_nonzero": nonzero})
    else:
        checks.append({"name": "strong-check", "passed": True,
                       "strong": is_strong_dirac(a, lag)})
    return emit_report(f"dirac-{args.op}", {"op": args.op}, checks, args.out)


def cmd_conjugacy_volume(args) -> int:
    _require_at_least(args.samples, "--samples")
    model = get_model(args.group)
    if model.name != "su2" and args.class_trace != 0.0:
        raise ValueError("--class-trace applies to su2 only; other groups sample a random class")
    pin = PinLift(model)
    rng = np.random.default_rng(args.seed)
    if model.name == "su2":
        g0 = su2_class_from_trace(args.class_trace)
    else:
        g0 = model.random_element(rng)
    pts = random_class_points(model, g0, rng, args.samples)
    checks = []
    for idx, (pt, dens) in enumerate(zip(pts, conjugacy_volume_tops(pts, pin).tolist())):
        omega = ghjw_matrix(pt)
        checks.append({
            "index": idx,
            "point": np.asarray(pt.g).tolist(),
            "ghjw_rank": omega.shape[1] - nullspace_basis(omega, scale=1.0).shape[1],
            "density": dens,
            "passed": abs(dens) > TOLERANCES["conjugacy-volume-nondegeneracy"]["density"],
        })
    return emit_report("conjugacy-volume", vars(args), checks, args.out)


def cmd_integrability(args) -> int:
    _require_at_least(args.points, "--points")
    model = get_model(args.group)
    if not model.liftable:
        raise ValueError(f"group {model.name!r} has no global lift")
    pin = PinLift(model)
    rng = np.random.default_rng(args.seed)
    bound = TOLERANCES["cartan-dirac-integrability"]["phi_residual"]
    checks = []
    for idx in range(args.points):
        g = model.random_element(rng)
        rep = cartan_dirac_integrability(model, g, pin)
        checks.append({
            "index": idx,
            "phi_residual": rep["phi_residual"],
            "psi_residual": rep["psi_residual"],
            "xi_fit_coefficient": rep["xi_fit_coefficient"],
            "passed": rep["phi_residual"] < bound < rep["psi_residual"],
        })
    return emit_report("integrability", vars(args), checks, args.out)


def cmd_qham(args) -> int:
    _require_at_least(args.samples, "--samples")
    model = get_model(args.group)
    pin = PinLift(model) if model.liftable else None
    rng = np.random.default_rng(args.seed)
    factory = DoubleFactory(model)
    bound = TOLERANCES["qham-suite"]["moment_residual"]
    checks = []
    for idx in range(args.samples):
        if args.space == "class":
            trace = float(rng.uniform(-1.9, 1.9))
            g0 = su2_class_from_trace(trace) if model.name == "su2" else model.random_element(rng)
            p = conjugacy_qham_point(model, random_class_point(model, g0, rng).g)
        elif args.space == "double":
            p = factory.double_point(model.random_element(rng), model.random_element(rng))
        elif args.space == "fused-double":
            p = factory.fused_double_point(model.random_element(rng), model.random_element(rng))
        else:
            p = exp_orbit_qham_point(model, model.random_algebra(rng, 0.8))
        residual = moment_condition_residual(p)
        md = minimal_degeneracy(p)
        eq = strong_dirac_equivalence(p)
        entry = {
            "index": idx,
            "moment_residual": residual,
            "minimal_degeneracy": md,
            "equivalence_agrees": eq["agree"],
            "passed": residual < bound and md["original"] and md["elegant"] and eq["agree"],
        }
        if pin is not None and p.model is model:
            entry["volume_density"] = qham_volume_top(p, pin)
        checks.append(entry)
    return emit_report("qham-verify", vars(args), checks, args.out)


def cmd_verify_all(args) -> int:
    reports = run_all(args.seed)
    config = dict(vars(args))
    config["tolerances"] = TOLERANCES
    return emit_report("verify-all", config, reports, args.out)


# --------------------------------------------------------------------------- #

class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through ``add_subparsers``, its subparsers) that
    refuses a command line with one line, "error: …", and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="purespin", description="pure-spinor / Dirac-geometry verifier")
    parser.add_argument("--version", action="version", version=f"purespin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clifford", help="Clifford engine conformance")
    p.add_argument("--n", type=int, default=3, help="split form signature (n,n)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("spinor", help="pure spinor round trips")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spinor)

    p = sub.add_parser("dirac", help="linear Dirac maps on JSON matrices")
    p.add_argument("op", choices=["image", "preimage", "strong-check"])
    p.add_argument("--input", help="JSON file with 'matrix' and 'dirac_basis' (default stdin)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dirac)

    p = sub.add_parser("conjugacy-volume", help="class volume densities")
    p.add_argument("--group", default="su2")
    p.add_argument("--class-trace", type=float, default=0.0, dest="class_trace")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_conjugacy_volume)

    p = sub.add_parser("integrability", help="(d+η) residual tables")
    p.add_argument("--group", default="su2")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_integrability)

    p = sub.add_parser("qham", help="moment axiom verification")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--space", choices=["class", "double", "fused-double", "exp"],
                   default="class")
    p.add_argument("--group", default="su2")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_qham)

    p = sub.add_parser("verify-all", help="full acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1e-3, -inf or -nan after a flag for a flag; "=" attaches it
    for i in reversed(range(1, len(argv))):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] \
                and re.fullmatch(r"-(\d*\.?\d+(e[-+]?\d+)?|inf|nan)", argv[i], re.IGNORECASE):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args:
            _require_at_least(args.seed, "--seed", 0)
        return args.func(args)
    except (ValueError, OSError) as err:
        raise SystemExit(f"error: {err}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
