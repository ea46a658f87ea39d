"""Per-layer call tracing for the benchmark, installed from outside the package.

Each traced function is replaced, wherever callers look it up, by a wrapper
that records a span: on the class for methods, and for plain functions in
every ``purespin`` module that holds the same function object (the defining
module and every module that imported it by name), plus the criterion table
of ``suites``.  Spans are kept as running sums per function: call count and
self time, which is the span's duration minus the durations of the traced
spans nested directly inside it.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

MODULES = ("geometry", "multivector", "clifford", "spinor", "forms", "moment",
           "groups", "exact", "bilinear", "dirac", "suites", "cli")

TRACED = {
    "geometry": ["PinLift.forms_at", "PinLift.forms_near", "PinLift.forms_at_unsigned",
                 "conjugacy_volume_top", "volume_density_oracle",
                 "cartan_dirac_integrability", "class_point", "courant_bracket"],
    "multivector": ["Multivector.wedge", "Multivector.contract", "Multivector.pullback",
                    "Multivector.exp_wedge", "Multivector.evaluate"],
    "clifford": ["CliffordAlgebra.mul", "CliffordAlgebra.group_action",
                 "factor_into_reflections", "pin_lift_from_reflections"],
    "spinor": ["null_space", "spinor_of_lagrangian", "rho_contravariant",
               "chevalley_pairing", "fixed_line_dimension"],
    "forms": ["fd_exterior_derivative"],
    "moment": ["qham_volume_top", "moment_condition_residual", "minimal_degeneracy",
               "strong_dirac_equivalence", "DoubleFactory.fused_double_point",
               "exp_orbit_qham_point", "exp_dirac_report"],
    "groups": ["GroupModel.exp", "GroupModel.log", "GroupModel.Ad"],
    "exact": ["rank", "rref", "nullspace"],
    "bilinear": ["nullspace_basis", "transverse", "random_orthogonal"],
    "dirac": ["dirac_image", "dirac_preimage", "is_strong_dirac", "spinor_of_orthogonal",
              "kappa_embed"],
    "suites": [f"criterion_{k}" for k in range(1, 13)],
    "cli": ["emit_report"],
}

# CliffordAlgebra.mul is reported in two parts, by coefficient type.
MUL_KEY = "clifford.CliffordAlgebra.mul"
FORMS_AT = "geometry.PinLift.forms_at"
FORMS_NEAR = "geometry.PinLift.forms_near"
WEDGE = "multivector.Multivector.wedge"
FACTOR = "clifford.factor_into_reflections"
COUNTERS = ("multivector.Multivector.wedge.terms_out",
            "clifford.factor_into_reflections.failures",
            "geometry.PinLift.forms_at.cache_hits")


def function_keys() -> list[str]:
    """Keys of the reported functions, in a fixed order."""
    keys = []
    for module, names in TRACED.items():
        if module == "suites":
            continue
        for name in names:
            key = f"{module}.{name}"
            if key == MUL_KEY:
                keys += [key + ".exact", key + ".float"]
            else:
                keys.append(key)
    return keys


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for key in function_keys():
        out += [(key + ".calls", "count"), (key + ".self_s", "s")]
    out += [(m + ".self_s", "s") for m in MODULES]
    out += [(f"suites.criterion_{k}_s", "s") for k in range(1, 13)]
    out += [(c, "count") for c in COUNTERS]
    out.append(("trace.round_s", "s"))
    return out


def _is_exact(mv) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in mv.terms.values())


class Tracer:
    """Running per-function sums; one instance per process."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, self_s, inclusive_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []       # frames: [start, child_time, key, saw_forms_near]
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------- #

    def _enter(self, key: str) -> list:
        frame = [time.perf_counter(), 0.0, key, False]
        if key == FORMS_NEAR and self._stack and self._stack[-1][2] == FORMS_AT:
            self._stack[-1][3] = True
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        entry = self.stats.get(frame[2])
        if entry is None:
            entry = self.stats[frame[2]] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur - frame[1]
        entry[2] += dur
        if self._stack:
            self._stack[-1][1] += dur
        if frame[2] == FORMS_AT and not frame[3]:
            self.counters["geometry.PinLift.forms_at.cache_hits"] += 1

    def _wrap(self, fn, key: str):
        tracer = self

        if key == MUL_KEY:
            def wrapper(algebra, x, y, *args, **kwargs):
                kind = ".exact" if _is_exact(x) and _is_exact(y) else ".float"
                frame = tracer._enter(key + kind)
                try:
                    return fn(algebra, x, y, *args, **kwargs)
                finally:
                    tracer._exit(frame)
        elif key == WEDGE:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(key)
                try:
                    out = fn(*args, **kwargs)
                    tracer.counters[WEDGE + ".terms_out"] += len(out.terms)
                    return out
                finally:
                    tracer._exit(frame)
        elif key == FACTOR:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(key)
                try:
                    return fn(*args, **kwargs)
                except ValueError:
                    tracer.counters[FACTOR + ".failures"] += 1
                    raise
                finally:
                    tracer._exit(frame)
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ---------------------------------------------------- #

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, callers=()) -> None:
        """Wrap every traced function where its callers look it up.

        ``callers`` are further modules, outside the package, that imported
        traced functions by name.
        """
        modules = {m: importlib.import_module(f"purespin.{m}") for m in MODULES}
        package = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "purespin" or name.startswith("purespin."))]
        package += list(callers)
        for module, names in TRACED.items():
            for name in names:
                key = f"{module}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(modules[module], cls_name)
                    self._set(cls, meth, self._wrap(cls.__dict__[meth], key))
                    continue
                original = getattr(modules[module], name)
                wrapper = self._wrap(original, key)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
                if module == "suites":
                    table = modules["suites"].ALL_CRITERIA
                    for k, fn in table.items():
                        if fn is original:
                            table[k] = wrapper

    def uninstall(self) -> None:
        suites = sys.modules.get("purespin.suites")
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if suites is not None:
            for k, fn in suites.ALL_CRITERIA.items():
                suites.ALL_CRITERIA[k] = getattr(fn, "__wrapped__", fn)

    # -- reading --------------------------------------------------------- #

    def take(self) -> dict:
        """Per-layer figures since the last call, then reset the sums."""
        out = {}
        for key in function_keys():
            calls, self_s, _ = self.stats.get(key, (0, 0.0, 0.0))
            out[key + ".calls"] = calls
            out[key + ".self_s"] = self_s
        for module in MODULES:
            out[module + ".self_s"] = sum((v[1] for k, v in self.stats.items()
                                           if k.split(".", 1)[0] == module), 0.0)
        for k in range(1, 13):
            out[f"suites.criterion_{k}_s"] = self.stats.get(f"suites.criterion_{k}",
                                                            (0, 0.0, 0.0))[2]
        out.update(self.counters)
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        return out
