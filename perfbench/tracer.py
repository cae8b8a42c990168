"""Per-layer tracing from outside the package.

While installed, a Tracer rebinds public names of the wedflow modules in
the module namespaces where their callers look them up (for example
`newton_solve` in `wed`, `rateind` and `wide`, `splu` in `_newton`), so
each call records a span: name, start, end and the enclosing span. The
`grad_fn`/`hess_fn` callbacks that `newton_solve` receives and the
factorization that `splu` returns are wrapped the same way. Uninstalling
restores every original binding. No library code changes.

Spans stay in memory and are written once, when the run ends. A layer's
self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NEWTON_CALLERS = ("wed", "rateind", "wide")

# span name, attribute, where callers look the attribute up
SPANS = (
    ("energies.energy1_grad", "energy1_value_grad",
     ("wed", "comparison", "qualitative", "runner")),
    ("energies.energy1_hess", "energy1_hessian", ("wed",)),
    ("energies.grid_edges", "grid_edges", ("energies",)),
    ("wed.continuation", "eps_continuation", ("runner", "qualitative")),
    ("wed.fixed_point", "fixed_point_solve", ("wed", "comparison")),
    ("wed.minimize", "minimize_wed", ("wed",)),
    ("wed.dual_field", "dual_field", ("wed", "qualitative")),
    ("wed.diagnostics", "euler_lagrange_residual", ("runner",)),
    ("wed.diagnostics", "strong_solution_residual", ("runner",)),
    ("rateind.continuation", "ri_continuation", ("runner",)),
    ("rateind.ordered", "ordered_ri_minimizers", ("runner",)),
    ("rateind.value", "wed_ri_value", ("rateind",)),
    ("rateind.energetic", "energetic_residuals", ("runner",)),
    ("rateind.sign_condition", "sign_condition", ("runner",)),
    ("comparison.ordered", "ordered_minimizers", ("runner",)),
    ("comparison.potential_value", "wed_potential_value", ("comparison",)),
    ("qualitative.invariant_solve", "invariant_solve", ("runner",)),
    ("qualitative.check_r2", "check_r2", ("qualitative",)),
    ("qualitative.residual", "invariance_residual", ("qualitative",)),
    ("grids.rearrange", "rearrange", ("runner", "qualitative")),
    ("wide.continuation", "wide_continuation", ("runner", "wide")),
    ("wide.diagnostics", "hamiltonian_drift", ("runner",)),
    ("wide.diagnostics", "wide_invariance_residual", ("runner", "wide")),
    ("runner.run", "run", ("cli",)),
    ("runner.verify", "verify", ("cli",)),
    ("runner.csv", "trajectory_to_csv", ("runner",)),
    ("runner.csv", "to_csv", ("rateind.RITrajectory",)),
)


def _newton_metrics(c: str) -> list:
    p = f"newton.{c}."
    return [(p + k, u) for k, u in (
        ("calls", "count"), ("iterations", "count"),
        ("unconverged", "count"), ("grad_calls", "count"), ("grad_s", "s"),
        ("hess_calls", "count"), ("hess_s", "s"), ("factor_calls", "count"),
        ("factor_s", "s"), ("solve_s", "s"), ("factor_fill", "ratio"),
        ("linesearch_evals", "count"), ("self_s", "s"))]


# (metric, unit) in report order; BENCHMARK.json lists the same names
LAYER_METRICS = (
    [m for c in NEWTON_CALLERS for m in _newton_metrics(c)]
    + [("energies.energy1_grad_calls", "count"),
       ("energies.energy1_grad_s", "s"),
       ("energies.energy1_hess_calls", "count"),
       ("energies.energy1_hess_s", "s"),
       ("energies.grid_edges_calls", "count"),
       ("wed.continuation_s", "s"), ("wed.levels", "count"),
       ("wed.fixed_point_calls", "count"),
       ("wed.outer_iterations", "count"), ("wed.minimize_calls", "count"),
       ("wed.dual_field_calls", "count"), ("wed.diagnostics_s", "s"),
       ("rateind.continuation_s", "s"), ("rateind.ordered_s", "s"),
       ("rateind.value_calls", "count"), ("rateind.value_s", "s"),
       ("rateind.energetic_s", "s"), ("rateind.sign_condition_s", "s"),
       ("comparison.ordered_s", "s"),
       ("comparison.potential_value_calls", "count"),
       ("comparison.potential_value_s", "s"),
       ("qualitative.invariant_solve_s", "s"),
       ("qualitative.check_r2_s", "s"), ("qualitative.residual_s", "s"),
       ("grids.rearrange_calls", "count"), ("grids.rearrange_s", "s"),
       ("wide.continuation_s", "s"), ("wide.diagnostics_s", "s"),
       ("runner.self_s", "s"), ("runner.csv_s", "s"),
       ("runner.artifact_bytes", "bytes"),
       ("cli.tempfiles_leaked", "count"), ("trace.overhead", "ratio")])


class _TimedLU:
    """A factorization whose solves are recorded as spans."""

    def __init__(self, lu, tracer: "Tracer", name: str):
        self._lu = lu
        self._tracer = tracer
        self._name = name

    def solve(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Spans (name, start, end, parent) and counters of one run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._callers: list = []
        self.counts = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out
        return wrapper

    # -- wrappers with counters ---------------------------------------------

    def _newton(self, caller: str, fn):
        prefix = f"newton.{caller}"

        def wrapper(x0, grad_fn, hess_fn, *args, **kwargs):
            self._callers.append(caller)
            try:
                out = self.timed(prefix, fn)(
                    x0, self.timed(f"{prefix}.grad", grad_fn),
                    self.timed(f"{prefix}.hess", hess_fn), *args, **kwargs)
            finally:
                self._callers.pop()
            self.counts[f"{prefix}.iterations"] += out[2]
            self.counts[f"{prefix}.unconverged"] += not out[3]
            return out
        return wrapper

    def _splu(self, fn):
        def wrapper(A, *args, **kwargs):
            prefix = f"newton.{self._callers[-1] if self._callers else 'other'}"
            lu = self.timed(f"{prefix}.factor", fn)(A, *args, **kwargs)
            # a span of its own, so that extracting L and U is not
            # counted as Newton self time
            with self.span("trace.fill"):
                self.counts[f"{prefix}.lu_nnz"] += \
                    lu.L.nnz + lu.U.nnz - A.shape[0]
            self.counts[f"{prefix}.a_nnz"] += A.nnz
            return _TimedLU(lu, self, f"{prefix}.solve")
        return wrapper

    def _after(self, name: str):
        if name == "wed.continuation":
            def count(out):
                self.counts["wed.levels"] += len(out.reports)
            return count
        if name == "wed.fixed_point":
            def count(out):
                self.counts["wed.outer_iterations"] += out[1].outer_iterations
            return count
        return None

    # -- installing ----------------------------------------------------------

    def _plan(self):
        """(owner, attribute, replacement) for every rebinding."""
        def owner(path: str):
            mod, _, cls = path.partition(".")
            obj = importlib.import_module(f"wedflow.{mod}")
            return getattr(obj, cls) if cls else obj

        wraps = [(c, "newton_solve", lambda fn, c=c: self._newton(c, fn))
                 for c in NEWTON_CALLERS]
        wraps.append(("_newton", "splu", self._splu))
        wraps += [(path, attr, lambda fn, name=name: self.timed(
                      name, fn, self._after(name)))
                  for name, attr, where in SPANS for path in where]
        plan = []
        for path, attr, wrap in wraps:
            obj = owner(path)
            if attr not in vars(obj):
                print(f"perfbench: wedflow.{path}.{attr} not found; it is "
                      "not traced", file=sys.stderr)
                continue
            plan.append((obj, attr, wrap(vars(obj)[attr])))
        return plan

    @contextmanager
    def installed(self):
        originals = []
        try:
            for obj, attr, replacement in self._plan():
                originals.append((obj, attr, vars(obj)[attr]))
                setattr(obj, attr, replacement)
            yield self
        finally:
            for obj, attr, original in reversed(originals):
                setattr(obj, attr, original)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """{span name: (calls, total s, self s)} over all recorded spans."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        dur = np.frombuffer(self.end, dtype=float) \
            - np.frombuffer(self.start, dtype=float)
        covered = np.bincount(parent[parent >= 0],
                              weights=dur[parent >= 0], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - covered, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(own[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path: Path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int64)[:n],
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64)[:n])


def layer_metrics(tracer: Tracer, passes: int, pass_extras: dict,
                  overhead: float) -> dict:
    """Per-pass values of LAYER_METRICS from a tracer that recorded
    `passes` traced passes. pass_extras holds per-pass values measured
    outside the tracer (artifact bytes, leaked temp files)."""
    tot = tracer.totals()
    cnt = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def secs(*names):
        return sum(tot.get(nm, (0, 0.0, 0.0))[1] for nm in names)

    def own(*names):
        return sum(tot.get(nm, (0, 0.0, 0.0))[2] for nm in names)

    raw = {}
    for c in NEWTON_CALLERS:
        p = f"newton.{c}"
        raw.update({
            f"{p}.calls": calls(p),
            f"{p}.iterations": cnt[f"{p}.iterations"],
            f"{p}.unconverged": cnt[f"{p}.unconverged"],
            f"{p}.grad_calls": calls(f"{p}.grad"),
            f"{p}.grad_s": secs(f"{p}.grad"),
            f"{p}.hess_calls": calls(f"{p}.hess"),
            f"{p}.hess_s": secs(f"{p}.hess"),
            f"{p}.factor_calls": calls(f"{p}.factor"),
            f"{p}.factor_s": secs(f"{p}.factor"),
            f"{p}.solve_s": secs(f"{p}.solve"),
            # each iteration evaluates the gradient once before its Hessian;
            # every other evaluation after the first is a line-search trial
            f"{p}.linesearch_evals": calls(f"{p}.grad") - calls(p)
            - calls(f"{p}.hess"),
            f"{p}.self_s": own(p),
        })
    raw.update({
        "energies.energy1_grad_calls": calls("energies.energy1_grad"),
        "energies.energy1_grad_s": secs("energies.energy1_grad"),
        "energies.energy1_hess_calls": calls("energies.energy1_hess"),
        "energies.energy1_hess_s": secs("energies.energy1_hess"),
        "energies.grid_edges_calls": calls("energies.grid_edges"),
        "wed.continuation_s": secs("wed.continuation"),
        "wed.levels": cnt["wed.levels"],
        "wed.fixed_point_calls": calls("wed.fixed_point"),
        "wed.outer_iterations": cnt["wed.outer_iterations"],
        "wed.minimize_calls": calls("wed.minimize"),
        "wed.dual_field_calls": calls("wed.dual_field"),
        "wed.diagnostics_s": secs("wed.diagnostics"),
        "rateind.continuation_s": secs("rateind.continuation"),
        "rateind.ordered_s": secs("rateind.ordered"),
        "rateind.value_calls": calls("rateind.value"),
        "rateind.value_s": secs("rateind.value"),
        "rateind.energetic_s": secs("rateind.energetic"),
        "rateind.sign_condition_s": secs("rateind.sign_condition"),
        "comparison.ordered_s": secs("comparison.ordered"),
        "comparison.potential_value_calls":
            calls("comparison.potential_value"),
        "comparison.potential_value_s": secs("comparison.potential_value"),
        "qualitative.invariant_solve_s": secs("qualitative.invariant_solve"),
        "qualitative.check_r2_s": secs("qualitative.check_r2"),
        "qualitative.residual_s": secs("qualitative.residual"),
        "grids.rearrange_calls": calls("grids.rearrange"),
        "grids.rearrange_s": secs("grids.rearrange"),
        "wide.continuation_s": secs("wide.continuation"),
        "wide.diagnostics_s": secs("wide.diagnostics"),
        "runner.self_s": own("runner.run", "runner.verify"),
        "runner.csv_s": secs("runner.csv"),
    })
    out = {name: value / passes for name, value in raw.items()}
    for c in NEWTON_CALLERS:
        a_nnz = cnt[f"newton.{c}.a_nnz"]
        out[f"newton.{c}.factor_fill"] = \
            cnt[f"newton.{c}.lu_nnz"] / a_nnz if a_nnz else 0.0
    out.update(pass_extras)
    out["trace.overhead"] = overhead
    return {name: {"value": float(out[name]), "unit": unit}
            for name, unit in LAYER_METRICS}
