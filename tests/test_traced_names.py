"""The benchmark's tracer replaces package attributes by name; every name it
replaces must exist, or the benchmark breaks while the package tests pass, and
no engine path may reach a traced name whose results the tracer misreads.  The
environment record that every benchmark run writes reads package names too."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import caden
from caden import edge_form, engine, graphs
from caden.config import ExperimentConfig
from caden.engine import CadenConfig
from caden.harness import run_experiment
from caden.losses import LossStack, QuadraticLoss

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
MEASURE = ROOT / "perfbench" / "measure.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_attribute_of_its_owner(tracer):
    missing = [name for name, owner, attr in tracer.TRACED if attr not in owner.__dict__]
    assert not missing


def test_every_round_mark_name_is_an_attribute_of_its_owner(tracer):
    replacements = tracer.RoundMarks().replacements()
    assert replacements
    missing = [(owner.__name__, attr) for owner, attr, _ in replacements
               if attr not in owner.__dict__]
    assert not missing


def test_no_engine_path_calls_the_traced_solver_names(tracer):
    # The tracer reads each result of caden.engine.solve_lbfgs/solve_gd as one
    # agent's report, but every solve now reports (k, ...) arrays; the engine
    # therefore solves through caden.solvers and never through these names.
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return wrapper

    topology = graphs.ring_graph(4)
    losses = LossStack([QuadraticLoss(q=np.ones(2), a=np.full(2, float(i))) for i in range(4)])
    x0 = np.arange(8.0).reshape(4, 2)
    with tracer.patched([(engine, "solve_lbfgs", counting), (engine, "solve_gd", counting)]):
        for solver in ("lbfgs", "gd"):
            config = CadenConfig(mu_z=3.0, mu_y=1.0, solver=solver)
            engine.run_round(engine.init_states(losses, topology, x0), losses, topology,
                             config, 0)
            edge_form.edge_x_step(edge_form.init_edge_state(topology, x0), losses, topology,
                                  config, 0)
        for algorithm in ("caden", "caden-gd"):
            cfg = ExperimentConfig(
                seed=2, rounds=1, algorithm=algorithm, mode="theory", topology_kind="complete",
                topology_m=4, loss_kind="quadratic", quadratic_style="identity",
                metrics_wall_time=False,
            )
            assert "contraction_rate" in run_experiment(cfg, write_outputs=False).summary["theory"]
    assert calls == []


def test_round_marks_time_every_engine_round(tracer):
    # perfbench times a run's rounds by replacing caden.engine.run_round; a
    # harness that bound the name at import would leave them untimed.
    marks = tracer.RoundMarks()
    cfg = ExperimentConfig(seed=0, rounds=3, topology_kind="ring", topology_m=4,
                           loss_kind="quadratic", metrics_wall_time=False)
    with tracer.patched(marks.replacements()):
        run_experiment(cfg, write_outputs=False)
    assert len(marks.starts) == 3


def test_benchmark_environment_record_reads_existing_names(monkeypatch):
    # perfbench/run.py records measure.environment on every run, and that
    # record reads caden.BACKEND; removing the name would break every run.
    monkeypatch.syspath_prepend(str(MEASURE.parent))
    spec = importlib.util.spec_from_file_location("perfbench_measure", MEASURE)
    measure = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, measure)
    spec.loader.exec_module(measure)
    record = measure.environment(ROOT)
    assert record["caden_backend"] == caden.BACKEND
