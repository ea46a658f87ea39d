"""The three benchmark workloads.

A workload is built once (its set-up) and then runs rounds.  Every round
attempts the same operations in the same order; round ``r`` of a run with
seed ``s`` draws its inputs from ``numpy.random.default_rng([s, r])``, so a
seed fixes the whole input sequence.  An operation that raises counts as
failed; an operation whose output fails a check is recorded as a problem,
which makes the run's result incorrect.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
from purespin import cli
from purespin.bilinear import BilinearSpace, LagrangianSubspace, make_split_space
from purespin.bilinear import random_orthogonal, transverse
from purespin.clifford import CliffordAlgebra, factor_into_reflections, pin_lift_from_reflections
from purespin.dirac import dirac_image, dirac_preimage, is_strong_dirac, kappa_embed
from purespin.geometry import (
    PinLift,
    cartan_dirac_integrability,
    conjugacy_volume_top,
    ghjw_matrix,
    random_class_point,
    su2_class_from_trace,
    volume_density_oracle,
)
from purespin.groups import get_model
from purespin.moment import (
    DoubleFactory,
    conjugacy_qham_point,
    exp_orbit_qham_point,
    minimal_degeneracy,
    moment_condition_residual,
    qham_volume_top,
    strong_dirac_equivalence,
)
from purespin.spinor import DoubledSpace, chevalley_pairing, spinor_of_lagrangian

OUT_DIR = ".bench_out"


@dataclass
class Round:
    """Outcome of one round: counts, check problems and the outputs made."""

    reported: set = field(default_factory=set)  # operations whose failure was printed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def op(self, name: str, fn, check=None):
        """Run one operation, then its check on the result; None if it raised."""
        self.attempted += 1
        try:
            result = fn()
        except Exception as err:  # an operation that raises is counted, not fatal
            self.failed += 1
            if name not in self.reported:
                self.reported.add(name)
                print(f"operation {name} failed: {err!r}", file=sys.stderr)
            return None
        self.outputs.append((name, result))
        if check is not None:
            problem = check(result)
            if problem is not None:
                self.problems.append(f"{name}: {problem}")
        return result


# --------------------------------------------------------------------------- #
# verify-all

class VerifyAll:
    """The twelve acceptance criteria through ``purespin verify-all``, in process."""

    def __init__(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, f"verify-all-{os.getpid()}.json")

    def round(self, rng: np.random.Generator) -> Round:
        out = Round()
        seed = int(rng.integers(2 ** 31))
        out.attempted = len(checks.CRITERIA)
        try:
            cli.main(["verify-all", "--seed", str(seed), "--out", self.path])
            with open(self.path) as fh:
                report = json.load(fh)
        except (Exception, SystemExit):  # the whole report is lost
            out.failed = out.attempted
            print(f"verify-all --seed {seed} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return out
        finally:
            if os.path.exists(self.path):
                os.remove(self.path)
        out.outputs.append(("verify-all", report["checks"]))
        problem = checks.verify_all_report(report)
        if problem is not None:
            out.problems.append(f"verify-all --seed {seed}: {problem}")
        return out


# --------------------------------------------------------------------------- #
# models

GROUPS = ("su2", "so3", "su3", "coadjoint-semidirect")

# (group, operation, points per round).  su3 fused-double volumes are left out:
# one such point takes minutes in qham_volume_top.
MIX = (
    ("su2", "volume-trace0", 2), ("su2", "volume", 2), ("su2", "class", 1),
    ("su2", "double", 1), ("su2", "fused-double", 1), ("su2", "exp", 1),
    ("su2", "integrability", 1),
    ("so3", "volume", 2), ("so3", "class", 1), ("so3", "double", 1),
    ("so3", "fused-double", 1), ("so3", "exp", 1),
    ("su3", "volume", 1), ("su3", "class", 1), ("su3", "double", 1), ("su3", "exp", 1),
    ("su3", "integrability", 1),
    ("coadjoint-semidirect", "volume", 1), ("coadjoint-semidirect", "class", 1),
    ("coadjoint-semidirect", "double", 1), ("coadjoint-semidirect", "fused-double", 1),
    ("coadjoint-semidirect", "exp", 1), ("coadjoint-semidirect", "integrability", 1),
)


# On the split form of coadjoint-semidirect, factor_into_reflections fails to
# converge at about 1 in 4000 random points, so any seeded point could fail
# (see CHANGES.md).  Its points are drawn from FIXED_SEED afresh in every
# round: the same for every seed, so a failure would repeat in every round.
FIXED_GROUPS = ("coadjoint-semidirect",)
FIXED_SEED = 7


class Models:
    """Point-wise subcommands on every group model the CLI accepts."""

    def __init__(self, mix=MIX):
        self.mix = mix
        self.reported = set()
        self.models = {g: get_model(g) for g in GROUPS}
        self.factories = {g: DoubleFactory(m) for g, m in self.models.items()}

    def round(self, round_rng: np.random.Generator) -> Round:
        out = Round(self.reported)
        # one lift per model and round, as each CLI command builds its own
        pins = {g: PinLift(m) for g, m in self.models.items()}
        fixed_rng = np.random.default_rng(FIXED_SEED)
        for group, kind, count in self.mix:
            model, pin = self.models[group], pins[group]
            rng = fixed_rng if group in FIXED_GROUPS else round_rng
            for _ in range(count):
                name = f"{group} {kind}"
                if kind.startswith("volume"):
                    trace = 0.0 if kind == "volume-trace0" else float(rng.uniform(-1.9, 1.9))
                    out.op(name, lambda: self._volume(model, pin, trace, rng),
                           lambda r: checks.class_density(r[0], r[1], model.liftable))
                elif kind == "integrability":
                    out.op(name, lambda: self._integrability(model, pin, rng),
                           lambda r: checks.integrability(*r))
                else:
                    out.op(name, lambda: self._qham(group, kind, pin, rng), self._check_qham)
        return out

    @staticmethod
    def _volume(model, pin, trace, rng):
        g0 = su2_class_from_trace(trace) if model.name == "su2" else model.random_element(rng)
        pt = random_class_point(model, g0, rng)
        omega = ghjw_matrix(pt)
        # the rank `purespin conjugacy-volume` reports with each density
        rank = int(np.linalg.matrix_rank(omega, tol=1e-8)) if omega.size else 0
        density = conjugacy_volume_top(pt, pin)
        psi = (pin.forms_at(pt.g) if model.liftable else pin.forms_at_unsigned(pt.g))[0]
        return density, volume_density_oracle(omega, psi, pt.frame), rank

    @staticmethod
    def _integrability(model, pin, rng):
        rep = cartan_dirac_integrability(model, model.random_element(rng), pin)
        return rep["phi_residual"], rep["psi_residual"]

    def _qham(self, group, kind, pin, rng):
        model, factory = self.models[group], self.factories[group]
        if kind == "class":
            trace = float(rng.uniform(-1.9, 1.9))
            g0 = su2_class_from_trace(trace) if group == "su2" else model.random_element(rng)
            p = conjugacy_qham_point(model, random_class_point(model, g0, rng).g)
        elif kind == "double":
            p = factory.double_point(model.random_element(rng), model.random_element(rng))
        elif kind == "fused-double":
            p = factory.fused_double_point(model.random_element(rng), model.random_element(rng))
        else:
            p = exp_orbit_qham_point(model, model.random_algebra(rng, 0.8))
        residual = moment_condition_residual(p)
        md = minimal_degeneracy(p)
        eq = strong_dirac_equivalence(p) if p.model is model else {"agree": True}
        passed = residual < 1e-8 and md["original"] and md["elegant"] and eq["agree"]
        volume = qham_volume_top(p, pin) if model.liftable and p.model is model else None
        return kind, p, passed, volume

    @staticmethod
    def _check_qham(result):
        kind, p, passed, volume = result
        if not passed:
            return "moment axioms reported failed"
        problem = checks.moment_condition(p.model.basis, p.model.B, p.omega, p.phi,
                                          p.dphi, p.action)
        if problem is None and volume is not None:
            if kind == "fused-double":
                problem = checks.fused_density(volume)
            elif not (np.isfinite(volume) and abs(volume) > 1e-10):
                problem = f"{kind} volume density {volume!r} vanishes"
        return problem


# --------------------------------------------------------------------------- #
# engine

# `purespin clifford --n 3` fails for these seeds today.
POOL_SEEDS = (1, 7, 11)


def split_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """The sampler of ``purespin clifford``: 2n reflections with |<w,w>| >= 0.3."""
    gram = checks.split_gram(n)
    m = np.eye(2 * n)
    count = 0
    while count < 2 * n:
        w = rng.standard_normal(2 * n)
        if abs(float(w @ gram @ w)) < 0.3:
            continue
        m = checks.reflection(w, gram) @ m
        count += 1
    return m


def clifford_inputs(n: int, seed: int, samples: int) -> list[np.ndarray]:
    """The O(n,n) elements ``purespin clifford --n n --seed seed --samples samples`` factors."""
    rng = np.random.default_rng(seed)
    for _ in range(2 * samples):  # the generator-relation vectors come first
        rng.standard_normal(2 * n)
    return [split_orthogonal(n, rng) for _ in range(samples)]


class Engine:
    """Split-signature conformance without a group model.

    The O(n,n) elements to factor form a fixed pool, the inputs of
    ``purespin clifford`` at ``POOL_SEEDS``, the same in every round and for
    every seed, so the factorizations that fail today fail in every round
    and the failed share of a run does not depend on its seed or length.
    Everything else is drawn per round.
    """

    def __init__(self, pool_samples: int = 50, pins: int = 6, per_n: int = 10,
                 dirac_per_n: int = 6):
        self.pins, self.per_n, self.dirac_per_n = pins, per_n, dirac_per_n
        self.reported = set()
        self.spaces = {n: make_split_space(n) for n in (3, 4)}
        self.algebra = CliffordAlgebra(self.spaces[3])
        self.doubled = {n: DoubledSpace(n) for n in range(1, 5)}
        self.euclid = {n: BilinearSpace(np.eye(n)) for n in range(1, 5)}
        self.pool = {n: [a for seed in POOL_SEEDS
                         for a in clifford_inputs(n, seed, pool_samples)] for n in (3, 4)}

    def round(self, rng: np.random.Generator) -> Round:
        out = Round(self.reported)
        lifts = []
        for n in (3, 4):
            space, gram = self.spaces[n], checks.split_gram(n)
            for a in self.pool[n]:
                vectors = out.op(f"factor n={n}", lambda: factor_into_reflections(a, space),
                                 lambda v: checks.reflections_product(a, v, gram))
                if n == 3 and vectors is not None and len(lifts) < self.pins:
                    lifts.append((a, vectors))
        for a, vectors in lifts:
            out.op("pin-lift n=3", lambda: self._membership(vectors),
                   lambda r: checks.induced_matrix(r[0], r[1], a))
        self._relations(out, rng)
        for n in range(1, 5):
            for _ in range(self.per_n):
                out.op(f"round-trip n={n}", lambda: self._round_trip(n, rng),
                       lambda r: checks.round_trip(*r))
            for i in range(self.per_n):
                out.op(f"pairing n={n}", lambda: self._pairing(n, i % 2 == 1, rng),
                       lambda r: checks.pairing_vs_rank(*r))
            for _ in range(self.dirac_per_n):
                self._dirac(out, n, rng)
        return out

    def _membership(self, vectors):
        lift = pin_lift_from_reflections(self.algebra, vectors)
        return self.algebra.group_action(lift.g.mv)

    def _relations(self, out: Round, rng) -> None:
        alg, gram = self.algebra, checks.split_gram(3)
        for _ in range(self.per_n * 2):
            v, w = rng.standard_normal(6), rng.standard_normal(6)

            def relation():
                return (alg.vector(v) * alg.vector(w) + alg.vector(w) * alg.vector(v)).mv

            def check(anti):
                stray = sum(abs(float(c)) for b, c in anti.terms.items() if b != ())
                return checks.anticommutator(float(anti.scalar_part()), float(v @ gram @ w), stray)

            out.op("relations n=3", relation, check)

    def _lagrangian(self, n: int, rng, columns: str | None = None, a=None):
        a = random_orthogonal(n, rng) if a is None else a
        k = kappa_embed(a, self.euclid[n])
        if columns is None:
            columns = "V" if rng.integers(2) else "V*"
        cols = k[:, :n] if columns == "V" else k[:, n:]
        return a, LagrangianSubspace(self.doubled[n].space, cols, check=False)

    def _round_trip(self, n: int, rng):
        _, lag = self._lagrangian(n, rng)
        ps = spinor_of_lagrangian(self.doubled[n], lag)
        return ps.null.basis, lag.basis

    def _pairing(self, n: int, meeting: bool, rng):
        """A pair of Lagrangians; with ``meeting`` they share n - 1 directions (all if n = 1)."""
        if meeting:
            a, lag1 = self._lagrangian(n, rng, "V")
            c = np.eye(n)
            if n > 1:
                u = rng.standard_normal(n)
                c -= 2.0 * np.outer(u, u) / float(u @ u)
            _, lag2 = self._lagrangian(n, rng, "V", a @ c)
        else:
            _, lag1 = self._lagrangian(n, rng)
            _, lag2 = self._lagrangian(n, rng)
        s1 = spinor_of_lagrangian(self.doubled[n], lag1)
        s2 = spinor_of_lagrangian(self.doubled[n], lag2)
        pairing = float(chevalley_pairing(s1.form, s2.form))
        return pairing, transverse(lag1, lag2), lag1.basis, lag2.basis

    def _dirac(self, out: Round, n_in: int, rng) -> None:
        """Image, preimage and strong check under a full-rank map.

        The map has singular values in [0.5, 2].  The source keeps a distance
        of at least 0.1 from ker A ⊕ 0 and the target from 0 ⊕ ann(ran A):
        near those, and on rank-deficient or badly scaled maps, dirac_image
        and dirac_preimage lose isotropy or raise (see CHANGES.md).
        """
        n_out = int(rng.integers(1, 5))
        r = min(n_in, n_out)
        qu, qv = random_orthogonal(n_out, rng), random_orthogonal(n_in, rng)
        a = qu[:, :r] @ np.diag(rng.uniform(0.5, 2.0, r)) @ qv[:, :r].T
        kernel = np.vstack([qv[:, r:], np.zeros((n_in, n_in - r))])
        annihilator = np.vstack([np.zeros((n_out, n_out - r)), qu[:, r:]])
        source = self._away_from(n_in, kernel, rng)
        target = self._away_from(n_out, annihilator, rng)

        def check_image(result):
            image, strong = result
            return (checks.lagrangian(image.basis, n_out)
                    or checks.strong_dirac(strong, a, source.basis))

        out.op(f"dirac-image n={n_in}", lambda: dirac_image(a, source, self.doubled[n_out]),
               check_image)
        out.op(f"dirac-preimage n={n_in}",
               lambda: dirac_preimage(a, target, self.doubled[n_in]),
               lambda r: checks.lagrangian(r[0].basis, n_in))
        out.op(f"strong-check n={n_in}", lambda: is_strong_dirac(a, source),
               lambda r: checks.strong_dirac(r, a, source.basis))


    def _away_from(self, n: int, block, rng) -> LagrangianSubspace:
        while True:
            _, lag = self._lagrangian(n, rng, "V")
            if checks.separation(lag.basis, block) >= 0.1:
                return lag


WORKLOADS = {"verify-all": VerifyAll, "models": Models, "engine": Engine}
