"""Run orchestration: builds the problem from a config, runs the chosen
method, records metrics, and writes CSV + JSON outputs.  ``sweep`` is the one
runner of a grid of runs over ``caden.participation`` or ``caden.tau``.  Both
refuse a config that ``config.check_config`` refuses before anything is built
or written.  ``run_experiment`` is the one writer of a run's summary: the
parameter resolvers and the round loops return values and raise errors, and
it records them.

A CSV row is a ``TraceRow``, whose fields are the columns in order (round,
V_t, rel_err, rel_err_graph, acc, comms, time_s, phi_drift, active); metrics
without a defined value for the current method are left empty.  Floats are
written shortest-roundtrip, so a (config, seed) pair reproduces its CSV byte
for byte when wall-time recording is off.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, engine, graphs, metrics, theory
from .config import ExperimentConfig, check_config, check_value, config_as_dict, float_list
from .datasets import (
    gaussian_blobs,
    load_idx_images,
    load_idx_labels,
    shard_indices,
)
from .engine import CadenConfig
from .errors import ConfigError, DivergenceError
from .losses import LogisticLoss, LossStack, MlpLoss, QuadraticLoss, estimate_lipschitz
from .solvers import LbfgsPool, estimate_contraction

_TARGET_STREAM = 501
_CURVATURE_STREAM = 502
_XINIT_STREAM = 503

GT_STEP_GRID = (1e-1, 1e-2, 1e-3, 1e-4)

# A logged V_t (rel_err for gt) above this factor of max(its start, 1) stops
# the run as diverged.  The largest factor seen in a healthy run is 8.5e5
# (a warm-started caden-gd run of the 10-agent MLP ring, at round 2).
DIVERGENCE_GROWTH = 1e10


class TraceRow(NamedTuple):
    """One CSV row; its fields are the CSV columns, in order."""

    round: int
    V_t: float | None
    rel_err: float
    rel_err_graph: float
    acc: float | None
    comms: int
    time_s: float
    phi_drift: float | None
    active: int

    def finite(self) -> bool:
        """False once a logged metric has overflowed or turned NaN."""
        return all(v is None or math.isfinite(v) for v in self)

    def cells(self) -> list[str]:
        return ["" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                for v in self]


CSV_COLUMNS = TraceRow._fields


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows and row.round <= self.rows[-1].round:
            raise ValueError("trace rounds must be strictly increasing")
        self.rows.append(row)

    def to_csv(self) -> str:
        lines = [CSV_COLUMNS, *(r.cells() for r in self.rows)]
        return "".join(",".join(cells) + "\n" for cells in lines)


@dataclass
class RunResult:
    config: ExperimentConfig
    trace: RunTrace
    summary: dict
    csv_path: Path | None = None
    json_path: Path | None = None


def build_topology(cfg: ExperimentConfig) -> graphs.Topology:
    kind = cfg.topology_kind
    if kind == "random":
        return graphs.build_random_graph(cfg.topology_m, cfg.topology_edge_prob, cfg.seed)
    of_m = {"complete": graphs.complete_graph, "path": graphs.path_graph, "ring": graphs.ring_graph}
    if kind in of_m:
        return of_m[kind](cfg.topology_m)
    if not cfg.topology_file:
        raise ConfigError("topology.kind = file requires topology.file")
    return _read_input(cfg, "topology.file", graphs.load_edge_list)


def _read_input(cfg: ExperimentConfig, key: str, load):
    """``load`` of the file ``key`` names, or ConfigError naming the key."""
    path = getattr(cfg, key.replace(".", "_"))
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"{key} {path}: cannot be read ({exc.strerror or exc})") from exc
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{key} {path}: {exc}") from exc


def _idx_pair(cfg: ExperimentConfig, images_key: str, labels_key: str):
    """The images and labels of an IDX file pair, which must agree in count."""
    images = _read_input(cfg, images_key, load_idx_images)
    labels = _read_input(cfg, labels_key, load_idx_labels)
    if len(images) != len(labels):
        raise ConfigError(f"{images_key} holds {len(images)} images, {labels_key} {len(labels)}")
    return images, labels


def _random_psd(dim: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = np.logspace(0.0, np.log10(cond), dim)
    return basis @ np.diag(evals) @ basis.T


def _quadratic_losses(cfg: ExperimentConfig, m: int) -> list[QuadraticLoss]:
    targets = float_list(cfg.quadratic_targets)
    if targets:
        if len(targets) != m:
            raise ConfigError(f"quadratic.targets lists {len(targets)} values for m={m}")
        a = np.asarray(targets).reshape(m, 1)
        d = 1
    else:
        d = cfg.loss_dimension
        rng = np.random.default_rng([_TARGET_STREAM, cfg.seed])
        a = cfg.quadratic_target_spread * rng.standard_normal((m, d))
    losses = []
    for i in range(m):
        if cfg.quadratic_style == "identity":
            q = np.ones(d)
        else:
            rng_i = np.random.default_rng([_CURVATURE_STREAM, cfg.seed, i])
            q = _random_psd(d, cfg.quadratic_cond, rng_i)
        losses.append(QuadraticLoss(q=q, a=a[i]))
    return losses


def _data_losses(cfg: ExperimentConfig, m: int):
    if cfg.loss_data == "blobs":
        total = m * cfg.loss_samples_per_agent
        x, y = gaussian_blobs(
            total + cfg.loss_eval_samples,
            cfg.loss_features,
            cfg.loss_classes,
            seed=cfg.seed,
            spread=cfg.loss_blob_spread,
        )
        if cfg.loss_feature_scale_max != 1.0:
            # Log-spaced column scales mimic unnormalized data; they spread
            # the loss curvature spectrum without changing separability.
            x = x * np.logspace(
                0.0, np.log10(cfg.loss_feature_scale_max), cfg.loss_features
            )
        x_train, y_train = x[:total], y[:total]
        x_eval, y_eval = x[total:], y[total:]
        classes = cfg.loss_classes
    else:
        if not (cfg.loss_idx_images and cfg.loss_idx_labels):
            raise ConfigError("loss.data = idx requires loss.idx_images and loss.idx_labels")
        if bool(cfg.loss_idx_eval_images) != bool(cfg.loss_idx_eval_labels):
            raise ConfigError("loss.idx_eval_images and loss.idx_eval_labels must be set together")
        x_train, y_train = _idx_pair(cfg, "loss.idx_images", "loss.idx_labels")
        held = x_train.shape[0]
        classes = int(y_train.max(initial=0)) + 1
        if cfg.loss_idx_eval_images:
            x_eval, y_eval = _idx_pair(cfg, "loss.idx_eval_images", "loss.idx_eval_labels")
            if x_eval.shape[1] != x_train.shape[1]:
                raise ConfigError("loss.idx_eval_images and loss.idx_images differ in image size")
            use = f"{held} training samples"
        else:
            cut = max(1, held - cfg.loss_eval_samples)
            x_eval, y_eval = x_train[cut:], y_train[cut:]
            x_train, y_train = x_train[:cut], y_train[:cut]
            use = (
                f"{held} samples; loss.eval_samples = {cfg.loss_eval_samples} carves "
                f"{len(x_eval)} of them for evaluation, leaving {len(x_train)} for training"
            )
        if x_train.shape[0] < m:
            raise ConfigError(f"loss.idx_images holds {use}, fewer than m={m} agents")
    shards = shard_indices(x_train.shape[0], m, cfg.shard_seed())
    losses = []
    for idx in shards:
        if cfg.loss_kind == "logistic":
            losses.append(LogisticLoss(x_train[idx], y_train[idx], classes, cfg.loss_l2))
        else:
            losses.append(
                MlpLoss(x_train[idx], y_train[idx], cfg.loss_hidden, classes, cfg.loss_l2)
            )
    return losses, (x_eval, y_eval)


def build_losses(cfg: ExperimentConfig, topology: graphs.Topology):
    """The agents' losses as one ``LossStack``, built once per run, plus the
    shared held-out set (None for quadratics)."""
    if cfg.loss_kind == "quadratic":
        return LossStack(_quadratic_losses(cfg, topology.m)), None
    losses, eval_set = _data_losses(cfg, topology.m)
    return LossStack(losses), eval_set


@dataclass
class Initialization:
    x0: np.ndarray
    phi0: np.ndarray | None
    start_round: int
    lipschitz: float | None


def initialize(cfg: ExperimentConfig, losses: LossStack, topology) -> Initialization:
    """Initial models plus the resolved smoothness constant.

    The warm-start strategy runs the lockstep smoothness probe from a common
    start; its final iterates become the initial models and the global
    constant is the max across agents.  Quadratic losses report their exact
    smoothness, so the harness never needs a probe for them.  A resumed run
    resolves both as a fresh run does, so its constant is the writer's, and
    then takes the checkpoint's models, duals and start round; a checkpoint
    written for another ``checkpoint_problem`` raises CheckpointError.
    """
    m, d = topology.m, losses.dim
    if cfg.init_strategy == "warmstart":
        est = _warm_start(cfg, losses)
        x0, lipschitz = est.x_init, est.l_hat
    else:
        exact = [loss.smoothness() for loss in losses]
        lipschitz = None if None in exact else max(exact)
        if cfg.init_strategy == "random":
            rng = np.random.default_rng([_XINIT_STREAM, cfg.seed])
            x0 = cfg.init_scale * rng.standard_normal((m, d))
        elif isinstance(losses[0], MlpLoss):
            # Zero weights are a ReLU saddle; seeded small weights keep the probe
            # and the solvers off it while staying deterministic.
            x0 = np.tile(losses[0].init_params(cfg.seed), (m, 1))
        else:
            x0 = np.zeros((m, d))
    start = (x0, None, 0)
    if cfg.init_state_file:
        problem = checkpoint_problem(cfg, m, d)
        start = _read_input(
            cfg, "init.state_file", lambda path: engine.load_checkpoint(path, problem)
        )
        if start[0].shape != (m, d):
            raise ConfigError(
                f"checkpoint {cfg.init_state_file} holds (m, d) = {start[0].shape}, but the "
                f"config's topology and loss give (m, d) = {(m, d)}"
            )
    return Initialization(*start, lipschitz)


def checkpoint_problem(cfg: ExperimentConfig, m: int, d: int) -> dict[str, str]:
    """What fixes a run's problem, as a checkpoint records it: the
    ``topology.*``, ``loss.*`` and ``quadratic.*`` keys and ``seed`` as the
    config spells them, and the model count m and dimension d."""
    problem = {
        name: text for name, text in config_as_dict(cfg).items()
        if name == "seed" or name.startswith(("topology.", "loss.", "quadratic."))
    }
    return {**problem, "m": str(m), "d": str(d)}


def _warm_start(cfg: ExperimentConfig, losses: LossStack):
    """The lockstep smoothness probe from the run's common start."""
    if isinstance(losses[0], MlpLoss):
        common = losses[0].init_params(cfg.seed)
    else:
        rng = np.random.default_rng([_XINIT_STREAM, cfg.seed])
        common = cfg.init_scale * rng.standard_normal(losses.dim)
    return estimate_lipschitz(
        losses, common,
        warm_epochs=cfg.lipschitz_warm_epochs, warm_lr=cfg.lipschitz_warm_lr,
        probe_epochs=cfg.lipschitz_probe_epochs, probe_lr=cfg.lipschitz_probe_lr,
    )


def _probe_contraction(cfg, run_cfg, losses, topology, init) -> float:
    """Max over agents of the empirical subproblem contraction rate of the
    run's own local solver, on the first round's subproblems at its mu_z."""
    x0 = init.x0
    z = graphs.edge_midpoints(topology, x0)
    report = engine.solve_subproblems(
        np.arange(topology.m), x0, None, np.zeros_like(x0), z, losses, topology, run_cfg,
        cfg.contraction_probe_iters,
    )
    return float(estimate_contraction(report).max(initial=0.0))


def resolve_parameters(
    cfg: ExperimentConfig, losses, topology, init: Initialization,
    spectral: graphs.SpectralSummary,
) -> tuple[CadenConfig, dict]:
    """The engine config of a CADEN run, with auto parameters filled, and the
    summary's theory record.

    Practice mode: mu_z = 2L + 1 and mu_y = mu_z unless set explicitly; the
    ``caden.tau*`` keys give the budget.  Theory mode probes the local
    contraction rate of the run's solver at the prescribed mu_z = 2L + 1,
    takes the full prescribed triple for the run's Laplacian ``spectral``
    summary with no budget reduction, and reports the analysis constants at
    the prescribed budget.
    """
    l_hat = init.lipschitz
    if cfg.caden_mu_z is None and l_hat is None:
        raise ConfigError(
            "caden.mu_z = auto needs a smoothness constant; use init.strategy ="
            " warmstart or a loss family with exact smoothness"
        )
    mu_z = cfg.caden_mu_z if cfg.caden_mu_z is not None else theory.prescribed_mu_z(l_hat)
    solver = "gd" if cfg.algorithm == "caden-gd" else "lbfgs"
    if solver == "gd" and cfg.caden_gd_step is None and l_hat is None:
        raise ConfigError("caden-gd needs caden.gd_step or a resolvable smoothness constant")
    run_cfg = CadenConfig(
        mu_z=mu_z,
        mu_y=cfg.caden_mu_y if cfg.caden_mu_y is not None else mu_z,
        tau=cfg.caden_tau,
        tau_reduce_round=cfg.caden_tau_reduce_round,
        tau_reduced=cfg.caden_tau_reduced,
        participation=cfg.caden_participation,
        solver=solver,
        seed=cfg.seed,
        lbfgs_memory=cfg.caden_lbfgs_memory,
        gd_step=cfg.caden_gd_step,
        lipschitz=l_hat,
    )
    theory_info: dict = {"mode": cfg.mode}
    if cfg.mode == "theory":
        if l_hat is None:
            raise ConfigError("theory mode needs a smoothness constant")
        probe_cfg = replace(run_cfg, mu_z=theory.prescribed_mu_z(l_hat))
        rate = _probe_contraction(cfg, probe_cfg, losses, topology, init)
        rate = min(max(rate, 1e-12), 1.0 - 1e-12)
        selected = theory.select_parameters(l_hat, spectral, cfg.caden_participation, rate)
        run_cfg = replace(
            run_cfg, mu_z=selected.mu_z, mu_y=selected.mu_y, tau=selected.tau,
            tau_reduce_round=-1,
        )
        report = theory.compute_constants(
            l_hat, spectral, cfg.caden_participation, rate, selected
        )
        theory_info.update(contraction_rate=rate, selected=asdict(selected), report=report.as_dict())
    theory_info["parameters"] = {"mu_z": run_cfg.mu_z, "mu_y": run_cfg.mu_y, "lipschitz": l_hat}
    return run_cfg, theory_info


def _tau_segments(run_cfg: CadenConfig, start: int, rounds: int) -> list[list[int]]:
    """Run-length encoding [start, end, tau] of the per-round budget."""
    segments: list[list[int]] = []
    for t in range(start, start + rounds):
        tau = run_cfg.tau_at(t)
        if segments and segments[-1][2] == tau:
            segments[-1][1] = t + 1
        else:
            segments.append([t, t + 1, tau])
    return segments


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, write_outputs: bool = True
) -> RunResult:
    """Build the problem, run T rounds, record metrics, emit CSV + JSON.

    A config that ``check_config`` refuses raises before anything is built,
    and a refused parameter (CADEN's or gt's step) before anything is
    written.  Any error during the round loop flushes the partial trace and a
    summary carrying the failure message before re-raising; a divergence
    also records the round of its last row as ``diverged_at``.
    """
    check_config(cfg)
    gt = cfg.algorithm == "gt"
    if gt:
        # A checkpoint holds models and duals; gradient tracking's state is
        # models and trackers, so it can neither resume from nor write one.
        # Theory mode prescribes CADEN's parameters, which gt does not have.
        for key, value in (
            ("init.state_file", cfg.init_state_file),
            ("output.save_state", cfg.output_save_state),
            ("mode = theory", cfg.mode == "theory"),
        ):
            if value:
                raise ConfigError(f"{key} is not supported with algorithm = gt")
    topology = build_topology(cfg)
    losses, eval_set = build_losses(cfg, topology)
    init = initialize(cfg, losses, topology)

    spectral = graphs.laplacian_spectrum(topology)
    summary: dict = {
        "config": config_as_dict(cfg),
        "graph": {
            "m": topology.m,
            "n": topology.n,
            "d_max": topology.d_max,
            "lambda_max": spectral.lambda_max,
            "lambda_min": spectral.lambda_min,
            "resamples": topology.resamples,
        },
    }
    if gt:
        w = baselines.metropolis_weights(topology)
        step = cfg.gt_step
        if step is None:
            step, table = _tune_gt_step(cfg, losses, init.x0, w)
            summary["gt_tuning"] = {"grid": list(GT_STEP_GRID), "table": table, "selected": step}
        summary["theory"] = {"mode": cfg.mode, "parameters": {"gt_step": step}}
        rounds = _gt_rounds(losses, init.x0, w, step, cfg.rounds)
    else:
        run_cfg, summary["theory"] = resolve_parameters(cfg, losses, topology, init, spectral)
        summary["tau_by_round"] = _tau_segments(run_cfg, init.start_round, cfg.rounds)
        rounds = _caden_rounds(cfg, run_cfg, losses, topology, init)

    def acc_fn(x):
        return None if eval_set is None else metrics.test_accuracy(x, losses, *eval_set)

    trace = RunTrace()
    t0 = time.perf_counter()
    clock = lambda: (time.perf_counter() - t0) if cfg.metrics_wall_time else 0.0  # noqa: E731
    error: Exception | None = None
    final_state: tuple[np.ndarray, np.ndarray] | None = None
    try:
        final_state = _record(
            rounds, cfg, losses, topology, init.start_round, trace, clock, acc_fn, duals=not gt
        )
    except Exception as exc:  # flush partial trace, then surface the failure
        error = exc
        summary["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, DivergenceError):
            summary["diverged_at"] = trace.rows[-1].round

    if trace.rows:
        last = trace.rows[-1]
        summary["totals"] = {
            "rounds": last.round,
            "communications": last.comms,
            "wall_time_s": last.time_s,
            "final_rel_err": last.rel_err,
            "final_v": last.V_t,
            "final_acc": last.acc,
        }
        summary["thresholds"] = _threshold_table(cfg, trace)

    csv_path = json_path = None
    if write_outputs:
        out = Path(out_dir if out_dir is not None else cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{cfg.output_label}_metrics.csv"
        json_path = out / f"{cfg.output_label}_summary.json"
        csv_path.write_text(trace.to_csv(), encoding="ascii")
        json_path.write_text(strict_json(summary), encoding="ascii")
    if error is None and cfg.output_save_state:
        engine.save_checkpoint(
            cfg.output_save_state, *final_state, init.start_round + cfg.rounds,
            checkpoint_problem(cfg, topology.m, losses.dim),
        )
    if error is not None:
        raise error
    return RunResult(config=cfg, trace=trace, summary=summary, csv_path=csv_path, json_path=json_path)


def _finite_or_none(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def strict_json(payload) -> str:
    """Indented, key-sorted JSON text in which every non-finite float is
    written as null, so the output is valid JSON."""
    return json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _record(rounds, cfg, losses, topology, start, trace, clock, acc_fn, duals):
    """Log the states that ``rounds`` yields as ``(round, models, duals or
    trackers, loss gradients at the models, communication units, active
    agents)``: the state at round ``start``, every cadence-th round and the
    last one.  Raises DivergenceError at the first state that is not finite
    or whose logged metrics are not, or whose V_t (rel_err without duals)
    exceeds ``DIVERGENCE_GROWTH`` times max(the first row's, 1), once its
    row is logged.  ``duals`` says whether the second array holds duals,
    which define V_t and phi_drift; with duals V_t and the relative errors
    come from ``metrics.carried_row``, which reads the yielded loss
    gradients, sums them once and evaluates no loss."""
    last = start + cfg.rounds
    comms = 0
    size = "V_t" if duals else "rel_err"
    for t, x, y, grad, units, active in rounds:
        comms += units
        finite = np.isfinite(x).all() and np.isfinite(y).all()
        if finite and (t - start) % cfg.metrics_cadence != 0 and t != last:
            continue
        if duals:
            v_t, rel_err, rel_err_graph = metrics.carried_row(x, y, grad, losses, topology)
        else:
            # gt's relative errors evaluate every agent again; baselines.py says why.
            v_t = None
            rel_err = metrics.relative_error(x, losses)
            rel_err_graph = metrics.relative_error_graph(x, losses, topology)
        row = TraceRow(
            round=t,
            V_t=v_t,
            rel_err=rel_err,
            rel_err_graph=rel_err_graph,
            acc=acc_fn(x),
            comms=comms,
            time_s=clock(),
            phi_drift=metrics.phi_drift(y) if duals else None,
            active=active,
        )
        trace.append(row)
        if not (finite and row.finite()):
            what = "duals" if duals else "trackers"
            raise DivergenceError(f"models, {what} or metrics not finite after round {t}")
        value = getattr(row, size)
        if value > DIVERGENCE_GROWTH * max(getattr(trace.rows[0], size), 1.0):
            raise DivergenceError(
                f"{size} = {value:.3g} after round {t} exceeds {DIVERGENCE_GROWTH:.0e}"
                " times max(its start, 1)"
            )
    return x, y


def _caden_rounds(cfg, run_cfg, losses, topology, init):
    """The starting state, then the state after each CADEN round.  One
    L-BFGS pair pool serves every round's solve."""
    x, phi, grad, value = engine.init_states(losses, topology, init.x0)
    if init.phi0 is not None:
        phi[:] = init.phi0
    pool = LbfgsPool(topology.m, losses.dim)
    start = init.start_round
    yield start, x, phi, grad, 0, 0
    for t in range(start, start + cfg.rounds):
        result = engine.run_round(x, phi, grad, value, losses, topology, run_cfg, t, pool)
        yield t + 1, x, phi, grad, result.broadcasts, int(result.active.sum())


def _gt_rounds(losses, x0, w, step, rounds):
    """The starting state, then the state after each of ``rounds``
    gradient-tracking rounds at ``step`` with mixing weights ``w``."""
    m = len(x0)
    state = baselines.gt_init(losses, x0, w, step)
    yield 0, state.x, state.g, state.grads, 0, 0
    for t in range(rounds):
        state = baselines.gt_round(state, losses)
        # Each agent shares its model and its tracker: two d-vectors.
        yield t + 1, state.x, state.g, state.grads, 2 * m, m


def _tune_gt_step(cfg, losses, x0, w) -> tuple[float, list[dict]]:
    """Short deterministic runs over the step grid; best final error wins."""
    rounds = min(cfg.rounds, cfg.gt_tune_rounds)
    table = []
    best_step, best_err = None, np.inf
    for step in GT_STEP_GRID:
        with np.errstate(over="ignore", invalid="ignore"):
            for _, x, *_ in _gt_rounds(losses, x0, w, step, rounds):
                pass  # x ends as the trial's final models
            err = metrics.relative_error(x, losses)
        table.append({"step": step, "rel_err": err if np.isfinite(err) else None})
        if err < best_err:
            best_step, best_err = step, err
    if best_step is None:
        raise ConfigError("every gt.step candidate diverged; set gt.step explicitly")
    return best_step, table


def _threshold_table(cfg: ExperimentConfig, trace: RunTrace) -> list[dict]:
    table = []
    for eps in cfg.thresholds():
        hit = next((r for r in trace.rows if r.rel_err <= eps), None)
        table.append(
            {
                "epsilon": eps,
                "round": None if hit is None else hit.round,
                "communications": None if hit is None else hit.comms,
                "time_s": None if hit is None else hit.time_s,
            }
        )
    return table


# The keys a sweep may vary, each with its tag in the per-run output labels.
SWEEP_LABELS = {"caden.participation": "p{:g}", "caden.tau": "tau{}"}


@dataclass
class SweepResult:
    key: str
    values: list
    seeds: list[int]
    runs: dict[tuple, RunResult]

    @property
    def final_v(self) -> dict:
        """Per value, the seed mean of the runs' mean V over their last 10%."""
        out = {}
        for value in self.values:
            per_seed = []
            for s in self.seeds:
                v_col = [r.V_t for r in self.runs[(value, s)].trace.rows if r.V_t is not None]
                tail = max(1, int(np.ceil(0.1 * len(v_col))))
                per_seed.append(float(np.mean(v_col[-tail:])))
            out[value] = float(np.mean(per_seed))
        return out

    @property
    def final_rel_err(self) -> dict:
        """Per value, the seed mean of the runs' final rel_err."""
        out = {}
        for value in self.values:
            errs = [self.runs[(value, s)].summary["totals"]["final_rel_err"] for s in self.seeds]
            out[value] = sum(errs) / len(errs)
        return out


def check_sweep(cfg, key, values, n_seeds=5) -> dict:
    """The output label of each value of a ``sweep`` of ``cfg`` over
    ``key``, or ConfigError for an unknown key, gradient tracking (no V and
    neither key), n_seeds below 1, any value that ``check_value`` refuses
    and two values that share an output label, whose files would overwrite
    each other's.  Runs nothing."""
    if key not in SWEEP_LABELS:
        raise ConfigError(f"cannot sweep {key!r}; the sweepable keys are {', '.join(SWEEP_LABELS)}")
    if cfg.algorithm == "gt":
        raise ConfigError(f"a {key} sweep needs a CADEN algorithm; gradient tracking has no {key}")
    if n_seeds < 1:
        raise ConfigError(f"a {key} sweep needs n_seeds of at least 1, got {n_seeds!r}")
    tags = {}
    for value in values:
        check_value(key, value)
        tag = SWEEP_LABELS[key].format(value)
        if tag in tags:
            raise ConfigError(
                f"{key} values {tags[tag]!r} and {value!r} share the output label {tag!r}"
            )
        tags[tag] = value
    return tags


def sweep(cfg, key, values, n_seeds=5, out_dir=None, write_outputs=False) -> SweepResult:
    """Runs of ``cfg`` varying only ``key`` over ``values``, each on seeds
    seed .. seed + n_seeds - 1, all logging the same rounds.  ``check_sweep``
    refuses a grid before any run."""
    tags = check_sweep(cfg, key, values, n_seeds)
    attr = key.replace(".", "_")
    seeds = [cfg.seed + k for k in range(n_seeds)]
    runs = {}
    for tag, value in tags.items():
        for s in seeds:
            label = f"{cfg.output_label}_{tag}_s{s}"
            run_cfg = cfg.replace(**{attr: value}, seed=s, output_label=label)
            runs[(value, s)] = run_experiment(run_cfg, out_dir=out_dir, write_outputs=write_outputs)
    return SweepResult(key, list(values), seeds, runs)
