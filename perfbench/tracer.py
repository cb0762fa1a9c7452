"""Call-site wrappers around the caden layers, and the per-layer metrics
they feed.

``from module import name`` binds a function into the importing module, so
each wrapper replaces the name in the module that calls it (for example
``caden.engine.solve_lbfgs``, not ``caden.solvers.solve_lbfgs``).  Loss
methods are replaced on their classes.  Every replaced name is restored when
the ``patched`` block exits.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median

import caden.baselines
import caden.engine
import caden.graphs
import caden.harness
import caden.losses
import caden.metrics
import caden.solvers

# (span name, owner, attribute): the span's layer is the text before its
# first dot; the owner is the module or class whose attribute is replaced.
TRACED = (
    ("harness.run_experiment", caden.harness, "run_experiment"),
    ("harness.build_topology", caden.harness, "build_topology"),
    ("harness.build_losses", caden.harness, "build_losses"),
    ("harness.initialize", caden.harness, "initialize"),
    ("harness.resolve_parameters", caden.harness, "resolve_parameters"),
    ("harness.gt_tune", caden.harness, "_tune_gt_step"),
    ("graphs.laplacian_spectrum", caden.graphs, "laplacian_spectrum"),
    ("engine.run_round", caden.engine, "run_round"),
    ("engine.sample_participation", caden.engine, "sample_participation"),
    ("engine.primal_update", caden.engine, "primal_update"),
    ("engine.broadcast", caden.engine, "broadcast"),
    ("engine.dual_update", caden.engine, "dual_update"),
    ("solvers.solve_lbfgs", caden.engine, "solve_lbfgs"),
    ("solvers.solve_gd", caden.engine, "solve_gd"),
    ("accel.two_loop", caden.solvers, "two_loop_direction"),
    ("baselines.gt_init", caden.baselines, "gt_init"),
    ("baselines.gt_round", caden.baselines, "gt_round"),
    ("metrics.lyapunov_v", caden.metrics, "lyapunov_v"),
    ("metrics.relative_error", caden.metrics, "relative_error"),
    ("metrics.relative_error_graph", caden.metrics, "relative_error_graph"),
    ("metrics.test_accuracy", caden.metrics, "test_accuracy"),
    ("metrics.phi_drift", caden.metrics, "phi_drift"),
    *(
        (f"losses.{method}", cls, method)
        for cls in (caden.losses.QuadraticLoss, caden.losses.LogisticLoss, caden.losses.MlpLoss)
        for method in ("value", "gradient")
    ),
)

# Layers a loss gradient call is attributed to, by the span it is called in.
GRAD_CALLERS = ("solvers", "metrics", "baselines", "harness")

PER_LAYER_UNITS = {
    "engine.participation_ms": "ms/round",
    "engine.primal_self_ms": "ms/round",
    "engine.dual_ms": "ms/round",
    "engine.broadcast_ms": "ms/round",
    "engine.round_self_ms": "ms/round",
    "engine.active_agents": "agents/round",
    "solvers.solves": "count",
    "solvers.iterations": "count",
    "solvers.solve_self_ms": "ms/round",
    "solvers.value_evals_per_solve": "calls/solve",
    "solvers.grad_evals_per_solve": "calls/solve",
    "solvers.armijo_accept_ratio": "ratio",
    "solvers.ls_failures": "count",
    "solvers.grad_reduction_p50": "ratio",
    "accel.two_loop_calls": "count",
    "accel.two_loop_us_per_call": "us/call",
    "losses.value_calls": "count",
    "losses.grad_calls": "count",
    "losses.value_ms": "ms/round",
    "losses.grad_ms": "ms/round",
    "losses.us_per_grad": "us/call",
    **{f"losses.grad_calls.{layer}": "count" for layer in GRAD_CALLERS},
    "metrics.row_ms": "ms/row",
    "metrics.grad_calls_per_row": "calls/row",
    "metrics.accuracy_ms": "ms/row",
    "baselines.gt_round_ms": "ms/round",
    "baselines.tune_rounds": "count",
    "harness.build_topology_s": "s/run",
    "harness.build_losses_s": "s/run",
    "harness.initialize_s": "s/run",
    "harness.resolve_parameters_s": "s/run",
    "harness.gt_tune_s": "s/run",
    "graphs.laplacian_spectrum_s": "s/run",
    "harness.write_s": "s/run",
    "trace.wrapped_calls": "count",
    "trace.overhead_s": "s/run",
    "trace.overhead_pct": "%",
}


@contextmanager
def patched(replacements):
    """Replace ``owner.attr`` with ``make(original)`` for each
    ``(owner, attr, make)``, restoring every original on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class RoundMarks:
    """Start time of every round of the method's own loop.

    Gradient tracking runs short trial loops while tuning its step, each
    opened by ``gt_init``; the run's own loop is the one after the last
    ``gt_init``.  Costs one clock read per round, so it stays on in untraced
    runs.
    """

    def __init__(self):
        self.starts: list[float] = []

    def replacements(self):
        def on_round(fn):
            def wrapper(*args, **kwargs):
                self.starts.append(time.perf_counter())
                return fn(*args, **kwargs)

            return wrapper

        def on_init(fn):
            def wrapper(*args, **kwargs):
                self.starts.clear()
                return fn(*args, **kwargs)

            return wrapper

        return [
            (caden.engine, "run_round", on_round),
            (caden.baselines, "gt_round", on_round),
            (caden.baselines, "gt_init", on_init),
        ]


class _Span:
    __slots__ = ("name", "layer", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.child_s = 0.0


class Tracer:
    """Nested spans over the wrapped calls: per span name the call count,
    inclusive time and self time (inclusive minus wrapped children), plus
    the solver reports and loss-call attribution the per-layer metrics need.
    Spans are kept as totals in memory; nothing is written during a run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.grad_calls_by: dict[str, int] = {}
        self.value_calls_in_lbfgs = 0
        self.reports: list = []  # SolverReport of every traced lbfgs solve
        self.gd_reports: list = []
        self.active_agents = 0
        self.rounds = 0  # rounds run by the method's own loops
        self.rows = 0  # logged CSV rows
        self.runs = 0
        self.tune_rounds = 0
        self.write_s = 0.0
        self._stack: list[_Span] = []
        self._last_metric_end = 0.0

    def replacements(self):
        return [(owner, attr, self._wrapper_factory(name)) for name, owner, attr in TRACED]

    def _wrapper_factory(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                span = _Span(name)
                stack = self._stack
                self._on_enter(span)
                stack.append(span)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    elapsed = end - start
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
                    self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - span.child_s
                    if stack:
                        stack[-1].child_s += elapsed
                    if span.layer == "metrics":
                        self._last_metric_end = end
                    elif name == "harness.run_experiment":
                        self.write_s += end - self._last_metric_end
                self._on_result(name, result)
                return result

            return wrapper

        return make

    def _on_enter(self, span: _Span) -> None:
        # Loss methods call no other wrapped function, so the innermost open
        # span is the caller of a loss call or of a gt round.
        caller = self._stack[-1] if self._stack else None
        if span.name == "losses.gradient":
            layer = caller.layer if caller else None
            self.grad_calls_by[layer] = self.grad_calls_by.get(layer, 0) + 1
        elif span.name == "losses.value":
            if caller and caller.name == "solvers.solve_lbfgs":
                self.value_calls_in_lbfgs += 1
        elif span.name == "baselines.gt_round":
            if caller and caller.name == "harness.gt_tune":
                self.tune_rounds += 1
            else:
                self.rounds += 1

    def _on_result(self, name: str, result) -> None:
        if name == "solvers.solve_lbfgs":
            self.reports.append(result)
        elif name == "solvers.solve_gd":
            self.gd_reports.append(result)
        elif name == "engine.run_round":
            self.rounds += 1
            self.active_agents += int(result.active.sum())
        elif name == "harness.run_experiment":
            self.runs += 1
            self.rows += len(result.trace.rows)

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics over every traced run, without the overhead
        entries, which need an untraced run to compare with."""
        calls, total, own = self.calls.get, self.total_s.get, self.self_s.get
        rounds = max(self.rounds, 1)
        rows = max(self.rows, 1)
        runs = max(self.runs, 1)
        ms_round = lambda seconds: 1e3 * seconds / rounds  # noqa: E731
        metric_names = [n for n, _, _ in TRACED if n.startswith("metrics.")]
        solves = len(self.reports) + len(self.gd_reports)
        lbfgs_solves = len(self.reports)
        accepted = sum(r.iterations - r.line_search_failures for r in self.reports)
        trials = self.value_calls_in_lbfgs - lbfgs_solves
        reductions = [
            r.grad_norm_out / r.grad_norm_in
            for r in self.reports + self.gd_reports
            if r.grad_norm_in > 0.0
        ]
        grad_calls = calls("losses.gradient", 0)
        return {
            "engine.participation_ms": ms_round(total("engine.sample_participation", 0.0)),
            "engine.primal_self_ms": ms_round(own("engine.primal_update", 0.0)),
            "engine.dual_ms": ms_round(total("engine.dual_update", 0.0)),
            "engine.broadcast_ms": ms_round(total("engine.broadcast", 0.0)),
            "engine.round_self_ms": ms_round(own("engine.run_round", 0.0)),
            "engine.active_agents": self.active_agents / rounds,
            "solvers.solves": solves,
            "solvers.iterations": sum(r.iterations for r in self.reports + self.gd_reports),
            "solvers.solve_self_ms": ms_round(
                own("solvers.solve_lbfgs", 0.0) + own("solvers.solve_gd", 0.0)
            ),
            "solvers.value_evals_per_solve": self.value_calls_in_lbfgs / max(lbfgs_solves, 1),
            "solvers.grad_evals_per_solve": self.grad_calls_by.get("solvers", 0) / max(solves, 1),
            "solvers.armijo_accept_ratio": accepted / trials if trials > 0 else 0.0,
            "solvers.ls_failures": sum(r.line_search_failures for r in self.reports),
            "solvers.grad_reduction_p50": median(reductions) if reductions else 0.0,
            "accel.two_loop_calls": calls("accel.two_loop", 0),
            "accel.two_loop_us_per_call": 1e6
            * total("accel.two_loop", 0.0)
            / max(calls("accel.two_loop", 0), 1),
            "losses.value_calls": calls("losses.value", 0),
            "losses.grad_calls": grad_calls,
            "losses.value_ms": ms_round(total("losses.value", 0.0)),
            "losses.grad_ms": ms_round(total("losses.gradient", 0.0)),
            "losses.us_per_grad": 1e6 * total("losses.gradient", 0.0) / max(grad_calls, 1),
            **{
                f"losses.grad_calls.{layer}": self.grad_calls_by.get(layer, 0)
                for layer in GRAD_CALLERS
            },
            "metrics.row_ms": 1e3 * sum(total(n, 0.0) for n in metric_names) / rows,
            "metrics.grad_calls_per_row": self.grad_calls_by.get("metrics", 0) / rows,
            "metrics.accuracy_ms": 1e3 * total("metrics.test_accuracy", 0.0) / rows,
            "baselines.gt_round_ms": 1e3
            * total("baselines.gt_round", 0.0)
            / max(calls("baselines.gt_round", 0), 1),
            "baselines.tune_rounds": self.tune_rounds,
            "harness.build_topology_s": total("harness.build_topology", 0.0) / runs,
            "harness.build_losses_s": total("harness.build_losses", 0.0) / runs,
            "harness.initialize_s": total("harness.initialize", 0.0) / runs,
            "harness.resolve_parameters_s": total("harness.resolve_parameters", 0.0) / runs,
            "harness.gt_tune_s": total("harness.gt_tune", 0.0) / runs,
            "graphs.laplacian_spectrum_s": total("graphs.laplacian_spectrum", 0.0) / runs,
            "harness.write_s": self.write_s / runs,
            "trace.wrapped_calls": sum(self.calls.values()),
        }
