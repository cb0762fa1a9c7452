"""Runs a workload through ``caden.harness.run_experiment``, checks every
run's output, and turns the runs into the end-to-end metrics (untraced) or
the per-layer metrics (traced).

The loop is closed: one experiment at a time, in this process.  Each call
writes its CSV and JSON into a temporary directory, and the targets and
trajectories are read back from those files, as a user of ``caden run``
would read them.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import caden
import caden.harness
from tracer import PER_LAYER_UNITS, RoundMarks, Tracer, patched
from workloads import Workload

# The end-to-end metrics of the result line, as listed in BENCHMARK.json.
# Times other than setup_s are given in probes: a call's time over the time
# of the reference kernel run just before and after it (see ``probe``).
E2E_UNITS = {
    "setup_s": "s",
    "wall_probes": "probes",
    "round_probes_p50": "probes",
    "round_probes_p95": "probes",
    "rounds_to_target": "rounds",
    "comms_to_target": "count",
    "peak_rss_mb": "MB",
}

# Printed, but not in the result line: the same times in seconds, which move
# with the host's speed, and the time to target, which also multiplies in
# how far apart instances converge.
PRINTED_ONLY_UNITS = {
    "wall_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "time_to_target_s": "s",
    "probe_ms": "ms",
}

# A tail percentile needs at least this many rounds beyond it.
TAIL_SAMPLES = 10


# The probe's fixed inputs: interpreter work plus small numpy operations,
# the same mix as a round of the program.
_PROBE_LOOP = 40_000
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(500)


def probe() -> float:
    """Seconds taken by a fixed reference kernel (about 8 ms on a fast host).

    The host's speed drifts between levels about 1.6x apart, in spells from
    under a second to a minute, in wall and CPU time alike.  A call's time
    over the mean of the probes timed just before and after it cancels most
    of that drift while keeping every change in the program's own work.
    """
    start = time.perf_counter()
    x = 0
    for k in range(_PROBE_LOOP):
        x += k * k
    for _ in range(200):
        _PROBE_MATRIX @ _PROBE_MATRIX
    for _ in range(300):
        np.tanh(_PROBE_VECTOR).sum()
    return time.perf_counter() - start


@dataclass
class Call:
    """One ``run_experiment`` call and what its outputs showed."""

    seed: int
    wall_s: float
    probe_s: float  # mean of the probes just before and after the call
    failure: str | None = None
    setup_s: float = math.nan
    time_to_target_s: float = math.nan
    rounds_to_target: int = -1
    comms_to_target: int = -1
    round_ms: list[float] = field(default_factory=list)  # start to next start
    trajectory: tuple = ()  # CSV rows without the time_s column
    final: dict = field(default_factory=dict)


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in summary JSON")


def run_call(
    workload: Workload, seed: int, out_dir: Path, tracer: Tracer | None = None
) -> Call:
    """Run one experiment, then gate its outputs: no exception, a finite
    CSV with the documented header, strict JSON, and the quality target
    met.  A failed gate sets ``failure``."""
    cfg = caden.ExperimentConfig(
        seed=seed, output_label=f"{workload.name}_{seed}", **workload.config
    )
    marks = RoundMarks()
    replacements = marks.replacements() + (tracer.replacements() if tracer else [])
    error = None
    probe_before = probe()
    with patched(replacements):
        start = time.perf_counter()
        try:
            caden.harness.run_experiment(cfg, out_dir=str(out_dir))
        except Exception as exc:  # the run failed; record it and go on
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    call = Call(seed=seed, wall_s=end - start, probe_s=(probe_before + probe()) / 2)
    if error is not None:
        call.failure = error
        return call
    try:
        row0_time_s, hit_time_s = _read_outputs(
            call,
            workload,
            out_dir / f"{cfg.output_label}_metrics.csv",
            out_dir / f"{cfg.output_label}_summary.json",
        )
    except ValueError as exc:
        call.failure = str(exc)
        return call
    if not marks.starts:
        call.failure = "no round ran"
        return call
    first_round = marks.starts[0]
    call.setup_s = first_round - start
    # The CSV clock started row0_time_s before the first round.
    call.time_to_target_s = first_round - row0_time_s - start + hit_time_s
    call.round_ms = [1e3 * (b - a) for a, b in zip(marks.starts, marks.starts[1:])]
    return call


def _read_outputs(
    call: Call, workload: Workload, csv_path: Path, json_path: Path
) -> tuple[float, float]:
    """Fill ``call`` from the written files; return the CSV time_s of the
    first row and of the row that met the target."""
    columns = caden.harness.CSV_COLUMNS
    lines = csv_path.read_text(encoding="ascii").splitlines()
    if tuple(lines[0].split(",")) != columns:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        for cell in row:
            if cell and not math.isfinite(float(cell)):
                raise ValueError(f"non-finite CSV value {cell!r}")
    json.loads(json_path.read_text(encoding="ascii"), parse_constant=_reject_constant)

    col = {name: k for k, name in enumerate(columns)}
    target = col[workload.target_column]
    hit = next((r for r in rows if r[target] and float(r[target]) <= workload.target), None)
    if hit is None:
        raise ValueError(
            f"target {workload.target_column} <= {workload.target:g} missed in "
            f"{len(rows) - 1} logged rounds"
        )
    t = col["time_s"]
    call.rounds_to_target = int(hit[col["round"]])
    call.comms_to_target = int(hit[col["comms"]])
    call.trajectory = tuple(tuple(c for k, c in enumerate(r) if k != t) for r in rows)
    last = rows[-1]
    call.final = {
        name: float(last[col[name]]) if last[col[name]] else None
        for name in ("rel_err", "V_t", "phi_drift")
    }
    return float(rows[0][t]), float(hit[t])


def _check_repeat(call: Call, first: dict[int, Call]) -> None:
    """Fail a call whose trajectory differs from an earlier repeat of its seed."""
    if call.failure is not None:
        return
    earlier = first.setdefault(call.seed, call)
    if earlier is not call and earlier.trajectory != call.trajectory:
        call.failure = "trajectory differs from an earlier repeat of the same seed"


def run_untraced(workload: Workload, seed: int, seconds: float, out_dir: Path) -> list[Call]:
    """Calls cycling through the instances: each instance once, the first
    one a second time (to compare trajectories), then on until ``seconds``
    have passed."""
    seeds = workload.instance_seeds(seed)
    first: dict[int, Call] = {}
    calls: list[Call] = []
    start = time.perf_counter()
    while len(calls) <= len(seeds) or time.perf_counter() - start < seconds:
        call = run_call(workload, seeds[len(calls) % len(seeds)], out_dir)
        _check_repeat(call, first)
        calls.append(call)
    return calls


# Untraced/traced pairs a traced run makes at least, for a median overhead.
MIN_TRACED_PAIRS = 3


def run_traced(workload: Workload, seed: int, out_dir: Path) -> tuple[list[Call], Tracer, dict]:
    """One pass over the instances (cycled to at least MIN_TRACED_PAIRS
    calls), each untraced then traced.

    The pass has a fixed length, so the traced counts depend only on the
    seed.  A traced trajectory that differs from its untraced twin fails.
    """
    tracer = Tracer()
    calls: list[Call] = []
    overhead_s, overhead_pct = [], []
    seeds = workload.instance_seeds(seed)
    for k in range(max(len(seeds), MIN_TRACED_PAIRS)):
        s = seeds[k % len(seeds)]
        plain = run_call(workload, s, out_dir)
        traced = run_call(workload, s, out_dir, tracer)
        first = {s: plain}
        _check_repeat(traced, first)
        calls += [plain, traced]
        if plain.failure is None and traced.failure is None:
            overhead_s.append(traced.wall_s - plain.wall_s)
            overhead_pct.append(100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s)
    overhead = {
        "trace.overhead_s": median(overhead_s) if overhead_s else math.nan,
        "trace.overhead_pct": median(overhead_pct) if overhead_pct else math.nan,
    }
    return calls, tracer, overhead


def tail_percentile(n: int) -> int:
    """95, or the highest whole percentile with TAIL_SAMPLES samples beyond it."""
    return max(50, min(95, math.floor(100.0 * (1.0 - TAIL_SAMPLES / n))))


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(calls: list[Call]) -> tuple[dict[str, float], dict[str, str]]:
    """Metric values and, per metric, how many samples it summarizes.

    Per-call times are reduced to a median per instance and then to a median
    over instances, so an instance that ran twice does not weigh double.
    Round times pool every round of every passing call; in probes, each is
    divided by its own call's probe time.
    """
    ok = [c for c in calls if c.failure is None]
    by_seed: dict[int, list[Call]] = {}
    for c in ok:
        by_seed.setdefault(c.seed, []).append(c)

    per_call = {
        "setup_s": lambda c: c.setup_s,
        "wall_s": lambda c: c.wall_s,
        "wall_probes": lambda c: c.wall_s / c.probe_s,
        "time_to_target_s": lambda c: c.time_to_target_s,
        "probe_ms": lambda c: 1e3 * c.probe_s,
    }
    values: dict[str, float] = {}
    samples: dict[str, str] = {}
    for name, of in per_call.items():
        values[name] = median(median(of(c) for c in group) for group in by_seed.values())
        samples[name] = f"median over {len(by_seed)} instances; {len(ok)} runs"
    # Repeats of an instance have identical trajectories, hence counts.
    for name in ("rounds_to_target", "comms_to_target"):
        values[name] = median(getattr(group[0], name) for group in by_seed.values())
        samples[name] = f"median over {len(by_seed)} instances"
    round_ms = [x for c in ok for x in c.round_ms]
    round_probes = [x / (1e3 * c.probe_s) for c in ok for x in c.round_ms]
    pct = tail_percentile(len(round_ms))
    for name, rounds in (("round_ms", round_ms), ("round_probes", round_probes)):
        values[f"{name}_p50"] = median(rounds)
        values[f"{name}_p95"] = nearest_rank(rounds, pct)
        samples[f"{name}_p50"] = f"{len(rounds)} rounds of {len(ok)} runs"
        samples[f"{name}_p95"] = f"p{pct} of {len(rounds)} rounds"
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["peak_rss_mb"] = "1 process"
    return values, samples


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caden_backend": caden.BACKEND,
        "git_commit": _git_commit(root),
    }


def describe(calls: list[Call]) -> list[str]:
    """Human-readable lines: failures, the final values per instance and
    the error rate."""
    failed = sum(c.failure is not None for c in calls)
    lines = [f"error_rate {failed / len(calls)!r} ({failed} of {len(calls)} runs failed)"]
    for c in calls:
        if c.failure is not None:
            lines.append(f"FAILED seed {c.seed}: {c.failure}")
    seen = set()
    for c in calls:
        if c.failure is None and c.seed not in seen:
            seen.add(c.seed)
            final = " ".join(f"{k}={v!r}" for k, v in c.final.items())
            lines.append(
                f"instance seed {c.seed}: rounds_to_target={c.rounds_to_target} "
                f"comms_to_target={c.comms_to_target} final {final}"
            )
    return lines


def result_line(calls: list[Call], values: dict[str, float], units: dict[str, str]) -> str:
    failed = sum(c.failure is not None for c in calls)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values and math.isfinite(values[name])
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}
    )


def per_layer(tracer: Tracer, overhead: dict) -> dict[str, float]:
    values = tracer.per_layer()
    values.update(overhead)
    return {name: values[name] for name in PER_LAYER_UNITS}
