"""Fast self-test of the benchmark's output checks and of the tracer.

    python3 bench/selftest.py

At the smallest sizes, each workload's checks accept the program's current
outputs and reject a deliberately corrupted one; a traced round gives the
same outputs as an untraced one.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from purespin import cli, suites  # noqa: E402
from purespin.clifford import factor_into_reflections  # noqa: E402

SMALL_MIX = (("su2", "volume-trace0", 1), ("su2", "volume", 1), ("so3", "volume", 1),
             ("su2", "class", 1), ("su2", "fused-double", 1), ("so3", "exp", 1),
             ("su2", "integrability", 1))
FAST_CRITERIA = (2, 8, 10)


def small_engine() -> workloads.Engine:
    return workloads.Engine(pool_samples=5, pins=1, per_n=2, dirac_per_n=2)


def results(out, prefix: str) -> list:
    return [r for name, r in out.outputs if name.startswith(prefix)]


def digest(obj):
    """Comparable form of an operation's output (arrays by their bytes)."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(digest(x) for x in obj)
    if isinstance(obj, dict):
        return tuple((k, digest(v)) for k, v in obj.items())
    if hasattr(obj, "__slots__"):
        return tuple((k, digest(getattr(obj, k))) for k in obj.__slots__)
    if hasattr(obj, "__dict__"):
        return tuple((k, digest(v)) for k, v in vars(obj).items()
                     if k != "model" and not callable(v))
    return obj


class VerifyAllChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        path = os.path.join(workloads.OUT_DIR, f"selftest-{os.getpid()}.json")
        cli.emit_report("verify-all", {"seed": 7, "tolerances": suites.TOLERANCES},
                        [suites.run_criterion(k, 7) for k in FAST_CRITERIA], path)
        with open(path) as fh:
            cls.report = json.load(fh)
        os.remove(path)

    def corrupted(self):
        return json.loads(json.dumps(self.report))

    def test_accepts_report(self):
        self.assertIsNone(checks.verify_all_report(self.report, FAST_CRITERIA))

    def test_rejects_criterion_marked_failed(self):
        report = self.corrupted()
        report["checks"][1]["passed"] = False
        self.assertIsNotNone(checks.verify_all_report(report, FAST_CRITERIA))

    def test_rejects_detail_over_threshold(self):
        report = self.corrupted()
        report["checks"][1]["details"]["max_difference"] = "1e-06"
        self.assertIsNotNone(checks.verify_all_report(report, FAST_CRITERIA))

    def test_rejects_missing_criterion(self):
        self.assertIsNotNone(checks.verify_all_report(self.report))


class ModelsChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = workloads.Models(SMALL_MIX).round(np.random.default_rng([1, 0]))

    def test_accepts_outputs(self):
        self.assertEqual((self.out.failed, self.out.problems), (0, []))
        self.assertEqual(self.out.attempted, sum(c for _, _, c in SMALL_MIX))

    def test_rejects_flipped_density_sign(self):
        density, oracle, _ = results(self.out, "su2 volume")[0]
        self.assertIsNone(checks.class_density(density, oracle, signed=True))
        self.assertIsNotNone(checks.class_density(-density, oracle, signed=True))

    def test_so3_density_compared_in_absolute_value(self):
        density, oracle, _ = results(self.out, "so3 volume")[0]
        self.assertIsNone(checks.class_density(density, oracle, signed=False))
        self.assertIsNotNone(checks.class_density(2 * density, oracle, signed=False))

    def test_rejects_fused_density_off_modulus_one(self):
        _, _, _, volume = results(self.out, "su2 fused-double")[0]
        self.assertIsNone(checks.fused_density(volume))
        self.assertIsNotNone(checks.fused_density(volume * (1 + 1e-6)))

    def test_rejects_perturbed_moment_data(self):
        for prefix in ("su2 class", "su2 fused-double", "so3 exp"):
            _, p, _, _ = results(self.out, prefix)[0]
            data = (p.model.basis, p.model.B, p.omega, p.phi, p.dphi, p.action)
            self.assertIsNone(checks.moment_condition(*data), prefix)
            upper = np.triu(np.ones_like(p.omega), 1)
            omega = p.omega + 1e-4 * (upper - upper.T)
            self.assertIsNotNone(checks.moment_condition(*data[:2], omega, *data[3:]), prefix)

    def test_rejects_integrable_psi(self):
        phi_res, psi_res = results(self.out, "su2 integrability")[0]
        self.assertIsNone(checks.integrability(phi_res, psi_res))
        self.assertIsNotNone(checks.integrability(phi_res, 5 * phi_res))
        self.assertIsNotNone(checks.integrability(2e-4, psi_res))


class EngineChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.engine = small_engine()
        cls.out = cls.engine.round(np.random.default_rng([1, 0]))
        # the input of the first factorization that succeeded
        cls.first = next(a for a in cls.engine.pool[3] if cls.converges(a))

    @classmethod
    def converges(cls, a) -> bool:
        try:
            factor_into_reflections(a, cls.engine.spaces[3])
        except ValueError:
            return False
        return True

    def test_accepts_outputs_and_counts_only_factorization_failures(self):
        self.assertEqual(self.out.problems, [])
        self.assertLessEqual(self.out.reported, {"factor n=3", "factor n=4"})

    def test_rejects_perturbed_reflection_vector(self):
        a = self.first
        vectors = results(self.out, "factor n=3")[0]
        gram = checks.split_gram(3)
        self.assertIsNone(checks.reflections_product(a, vectors, gram))
        bent = [np.array(v, dtype=float) for v in vectors]
        bent[0] = bent[0] + 1e-4 * np.arange(1, 7)
        self.assertIsNotNone(checks.reflections_product(a, bent, gram))

    def test_rejects_wrong_induced_matrix(self):
        member, induced = results(self.out, "pin-lift")[0]
        a = self.first
        self.assertIsNone(checks.induced_matrix(member, induced, a))
        self.assertIsNotNone(checks.induced_matrix(member, -induced, a))
        self.assertIsNotNone(checks.induced_matrix(False, induced, a))

    def test_rejects_non_isotropic_dirac_image_basis(self):
        for image, _ in results(self.out, "dirac-image"):
            n = image.basis.shape[1]
            self.assertIsNone(checks.lagrangian(image.basis, n))
            swap = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
            bent = image.basis.copy()
            bent[:, 0] += 0.1 * swap @ bent[:, 0]  # <b, b> becomes 0.2 |b|^2
            self.assertIsNotNone(checks.lagrangian(bent, n))

    def test_rejects_round_trip_off_the_lagrangian(self):
        null_basis, lag_basis = results(self.out, "round-trip n=3")[0]
        self.assertIsNone(checks.round_trip(null_basis, lag_basis))
        self.assertIsNotNone(checks.round_trip(null_basis + 1e-6, lag_basis))

    def test_rejects_pairing_against_rank(self):
        for pairing, program, e, f in results(self.out, "pairing"):
            self.assertIsNone(checks.pairing_vs_rank(pairing, program, e, f))
            wrong = 1.0 if abs(pairing) <= 1e-8 else 0.0
            self.assertIsNotNone(checks.pairing_vs_rank(wrong, program, e, f))


class TracingLeavesResultsUnchanged(unittest.TestCase):
    def test_same_outputs_and_counts_traced(self):
        plain = [small_engine().round(np.random.default_rng([3, 0])),
                 workloads.Models(SMALL_MIX).round(np.random.default_rng([3, 0]))]
        criteria = [suites.run_criterion(k, 3) for k in FAST_CRITERIA]
        tracer = Tracer()
        tracer.install(callers=[workloads])
        try:
            traced = [small_engine().round(np.random.default_rng([3, 0])),
                      workloads.Models(SMALL_MIX).round(np.random.default_rng([3, 0]))]
            traced_criteria = [suites.run_criterion(k, 3) for k in FAST_CRITERIA]
            layers = tracer.take()
        finally:
            tracer.uninstall()
        for a, b in zip(plain, traced):
            self.assertEqual((a.attempted, a.failed, a.problems),
                             (b.attempted, b.failed, b.problems))
            self.assertEqual(digest(a.outputs), digest(b.outputs))
        self.assertEqual(criteria, traced_criteria)
        self.assertEqual(layers["clifford.factor_into_reflections.failures"], plain[0].failed)
        self.assertGreater(layers["geometry.PinLift.forms_at.calls"], 0)
        self.assertGreater(layers["suites.criterion_8_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
