"""End-to-end runs, CSV/JSON output, determinism, sweeps, CLI."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import cli, engine, graphs, harness, metrics
from caden.config import KEYS, ExperimentConfig, check_config, serialize_config
from caden.errors import CadenError, CheckpointError, ConfigError, DivergenceError
from caden.harness import (
    CSV_COLUMNS,
    RunTrace,
    TraceRow,
    build_losses,
    build_topology,
    initialize,
    run_experiment,
    sweep,
)
from caden.losses import LogisticLoss, LossStack, MlpLoss, QuadraticLoss
from caden.solvers import estimate_contraction, solve_gd

from helpers import (
    Row,
    batch_of,
    neighbors,
    write_edge_list,
    write_idx_images,
    write_idx_labels,
)


def _k2_config(**overrides):
    base = dict(
        seed=1,
        rounds=120,
        algorithm="caden",
        topology_kind="complete",
        topology_m=2,
        loss_kind="quadratic",
        quadratic_targets="0,2",
        caden_mu_z=3.0,
        metrics_wall_time=False,
        output_label="k2",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _strict_json_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _convex_benchmark(**overrides):
    base = dict(
        seed=10,
        rounds=60,
        algorithm="caden",
        topology_kind="random",
        topology_m=10,
        topology_edge_prob=0.4,
        loss_kind="quadratic",
        quadratic_style="identity",
        loss_dimension=4,
        caden_mu_y=0.5,
        metrics_wall_time=False,
        output_label="convex",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _cells_after(result, split):
    """The result's CSV rows after round ``split``, without comms and time_s."""
    skip = {CSV_COLUMNS.index("comms"), CSV_COLUMNS.index("time_s")}
    rows = [line.split(",") for line in result.csv_path.read_text().splitlines()[1:]]
    return [[c for j, c in enumerate(row) if j not in skip] for row in rows if int(row[0]) > split]


class TestRunExperiment:
    def test_k2_converges(self, tmp_path):
        result = run_experiment(_k2_config(), out_dir=str(tmp_path))
        assert result.summary["totals"]["final_rel_err"] <= 1e-8
        assert result.csv_path.exists() and result.json_path.exists()

    def test_csv_schema(self, tmp_path):
        result = run_experiment(_k2_config(), out_dir=str(tmp_path))
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 120 + 1  # header + round-0 row + per-round rows

    def test_communication_accounting(self, tmp_path):
        result = run_experiment(_k2_config(rounds=50), out_dir=str(tmp_path))
        assert result.summary["totals"]["communications"] == 2 * 50

    def test_threshold_table(self, tmp_path):
        result = run_experiment(_k2_config(), out_dir=str(tmp_path))
        table = result.summary["thresholds"]
        assert [row["epsilon"] for row in table] == [1e-2, 1e-4, 1e-6]
        assert all(row["round"] is not None for row in table)
        assert all(row["communications"] is not None for row in table)

    def test_byte_identical_reruns(self, tmp_path):
        a = run_experiment(_k2_config(), out_dir=str(tmp_path / "a"))
        b = run_experiment(_k2_config(), out_dir=str(tmp_path / "b"))
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
        assert a.json_path.read_bytes() == b.json_path.read_bytes()

    def test_wall_time_only_differs_when_enabled(self, tmp_path):
        cfg = _k2_config(metrics_wall_time=True, rounds=30)
        a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        time_idx = CSV_COLUMNS.index("time_s")
        for ra, rb in zip(
            a.csv_path.read_text().splitlines()[1:],
            b.csv_path.read_text().splitlines()[1:],
        ):
            ca, cb = ra.split(","), rb.split(",")
            ca[time_idx] = cb[time_idx] = ""
            assert ca == cb

    def test_reduced_workload_schedule_logged(self, tmp_path):
        cfg = _k2_config(rounds=150, caden_tau=5, caden_tau_reduce_round=100,
                         caden_tau_reduced=1)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.summary["tau_by_round"] == [[0, 100, 5], [100, 150, 1]]

    def test_metric_cadence_thins_rows(self, tmp_path):
        result = run_experiment(_k2_config(metrics_cadence=10), out_dir=str(tmp_path))
        rounds = [r.round for r in result.trace.rows]
        assert rounds == [0] + list(range(10, 121, 10))

    def test_partial_trace_flushed_on_error(self, tmp_path):
        # A loss whose gradient blows up after a few evaluations.
        from caden import harness
        from caden.losses import LocalLoss, QuadraticLoss

        class Bomb(QuadraticLoss):
            calls = 0
            _values_and_gradients = LocalLoss._values_and_gradients

            def _gradients(self, x, data):
                Bomb.calls += 1
                if Bomb.calls > 60:
                    raise FloatingPointError("synthetic failure")
                return super()._gradients(x, data)

        def broken_losses(cfg, topology):
            return LossStack([Bomb(q=np.ones(1), a=np.array([float(i)])) for i in range(2)]), None

        original = harness.build_losses
        harness.build_losses = broken_losses
        try:
            with pytest.raises(FloatingPointError):
                run_experiment(_k2_config(output_label="boom"), out_dir=str(tmp_path))
        finally:
            harness.build_losses = original
        csv_path = tmp_path / "boom_metrics.csv"
        summary = json.loads((tmp_path / "boom_summary.json").read_text())
        assert csv_path.exists()
        assert "synthetic failure" in summary["error"]

    def test_checkpoint_save_and_resume(self, tmp_path):
        state_path = str(tmp_path / "state.bin")
        first = run_experiment(
            _k2_config(rounds=40, output_save_state=state_path),
            out_dir=str(tmp_path / "a"),
        )
        resumed = run_experiment(
            _k2_config(rounds=40, init_state_file=state_path, output_label="k2b"),
            out_dir=str(tmp_path / "b"),
        )
        straight = run_experiment(
            _k2_config(rounds=80, output_label="k2c"), out_dir=str(tmp_path / "c")
        )
        assert resumed.trace.rows[0].round == 40
        assert resumed.trace.rows[-1].round == 80
        assert resumed.trace.rows[-1].rel_err == pytest.approx(
            straight.trace.rows[-1].rel_err, rel=1e-9, abs=1e-30
        )

    def test_resume_reproduces_partial_participation_run(self, tmp_path):
        k = 15
        state_path = str(tmp_path / "state.bin")
        cfg = _convex_benchmark(caden_participation=0.5)
        run_experiment(
            cfg.replace(rounds=k, output_save_state=state_path), out_dir=str(tmp_path / "a")
        )
        resumed = run_experiment(
            cfg.replace(rounds=40 - k, init_state_file=state_path, output_label="resumed"),
            out_dir=str(tmp_path / "b"),
        )
        straight = run_experiment(cfg.replace(rounds=40), out_dir=str(tmp_path / "c"))

        assert len(_cells_after(straight, k)) == 40 - k
        assert _cells_after(resumed, k) == _cells_after(straight, k)

    @pytest.mark.parametrize("algorithm", ["caden", "caden-gd"])
    def test_warm_start_resume_equals_continuous_run(self, tmp_path, algorithm):
        # The checkpoint holds models and duals only; a resumed warm-start run
        # reruns the deterministic probe, so caden.mu_z = auto (and the
        # caden-gd step) resolve as in the run it continues.
        state_path = str(tmp_path / "state.bin")
        cfg = ExperimentConfig(
            seed=4, rounds=10, algorithm=algorithm, topology_kind="ring", topology_m=4,
            loss_kind="logistic", loss_l2=1e-3, loss_samples_per_agent=20, loss_features=4,
            loss_eval_samples=20, init_strategy="warmstart", metrics_wall_time=False,
            output_label="straight",
        )
        straight = run_experiment(cfg, out_dir=str(tmp_path))
        run_experiment(cfg.replace(rounds=5, output_save_state=state_path, output_label="first"),
                       out_dir=str(tmp_path))
        resumed = run_experiment(
            cfg.replace(rounds=5, init_state_file=state_path, output_label="resumed"),
            out_dir=str(tmp_path),
        )
        assert resumed.summary["theory"] == straight.summary["theory"]
        assert len(_cells_after(straight, 5)) == 5
        assert _cells_after(resumed, 5) == _cells_after(straight, 5)

    @settings(max_examples=25, deadline=None)
    @given(
        split=st.integers(1, 11),
        p=st.floats(0.05, 1.0),
        seed=st.integers(0, 1000),
        loss_kind=st.sampled_from(["quadratic", "logistic"]),
    )
    def test_resume_equals_continuous_run(self, tmp_path_factory, split, p, seed, loss_kind):
        # Partial participation makes every round solve a different subset.
        out = tmp_path_factory.mktemp("resume")
        state_path = str(out / "state.bin")
        cfg = _convex_benchmark(
            seed=seed, rounds=12, caden_participation=p, loss_kind=loss_kind,
            loss_samples_per_agent=8, loss_features=3, loss_eval_samples=5, caden_mu_z=3.0,
        )
        run_experiment(cfg.replace(rounds=split, output_save_state=state_path), out_dir=str(out))
        resumed = run_experiment(
            cfg.replace(rounds=12 - split, init_state_file=state_path, output_label="resumed"),
            out_dir=str(out),
        )
        straight = run_experiment(cfg.replace(output_label="straight"), out_dir=str(out))
        assert _cells_after(resumed, split) == _cells_after(straight, split)
        assert len(_cells_after(straight, split)) == 12 - split

    @pytest.mark.parametrize(
        "corrupt",
        ["short-header", "trailing-bytes", "truncated-body", "shape-mismatch"],
    )
    def test_bad_checkpoint_raises_typed_error(self, tmp_path, corrupt):
        path = tmp_path / "state.bin"
        m, d = (3, 1) if corrupt == "shape-mismatch" else (2, 1)
        engine.save_checkpoint(str(path), np.zeros((m, d)), np.zeros((m, d)), round_index=5)
        raw = path.read_bytes()
        raw = {
            "short-header": raw[:10],
            "trailing-bytes": raw + b"\0" * 8,
            "truncated-body": raw[:-8],
            "shape-mismatch": raw,
        }[corrupt]
        path.write_bytes(raw)
        expected = ConfigError if corrupt == "shape-mismatch" else CadenError
        with pytest.raises(expected, match=re.escape(str(path))) as info:
            run_experiment(_k2_config(init_state_file=str(path)), out_dir=str(tmp_path))
        if corrupt == "shape-mismatch":
            assert "(3, 1)" in str(info.value) and "(2, 1)" in str(info.value)

    @pytest.mark.parametrize("changed, key", [
        (dict(seed=8), "seed"),
        (dict(loss_l2=0.5), "loss.l2"),
        (dict(quadratic_targets="0, 3"), "quadratic.targets"),
    ])
    def test_checkpoint_of_another_problem_is_refused(self, tmp_path, changed, key):
        # The checkpoint records the keys that fix the problem; a resume
        # whose config differs in one of them is refused, naming it.
        state_path = str(tmp_path / "state.bin")
        run_experiment(_k2_config(rounds=3, output_save_state=state_path),
                       out_dir=str(tmp_path / "a"))
        resume = _k2_config(rounds=3, init_state_file=state_path, output_label="resumed")
        named = rf"{re.escape(state_path)}.*\b{re.escape(key)} = "
        with pytest.raises(CheckpointError, match=named):
            run_experiment(resume.replace(**changed), out_dir=str(tmp_path / "b"))
        assert not (tmp_path / "b").exists()

    def test_missing_checkpoint_names_its_key(self, tmp_path):
        missing = str(tmp_path / "nope.bin")
        out = tmp_path / "out"
        match = rf"^init\.state_file {re.escape(missing)}: cannot be read"
        with pytest.raises(ConfigError, match=match):
            run_experiment(_k2_config(init_state_file=missing), out_dir=str(out))
        assert not out.exists()

    def test_summary_json_is_strict_when_run_diverges(self, tmp_path):
        # Rows at rounds 0 and 100 only, so the growth bound never sees V_t
        # grow: it overflows at round 53, and the run stops on the row of
        # round 100.
        cfg = ExperimentConfig(
            seed=0, rounds=120, loss_kind="logistic", init_strategy="warmstart",
            caden_mu_z=0.05, caden_mu_y=200.0, caden_tau=1, metrics_cadence=100,
            metrics_wall_time=False, output_label="diverge",
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite"):
            run_experiment(cfg, out_dir=str(tmp_path))
        summary = _strict_json_loads((tmp_path / "diverge_summary.json").read_text())
        assert summary["diverged_at"] == summary["totals"]["rounds"] == 100
        assert summary["totals"]["final_v"] is None
        assert summary["error"].startswith("DivergenceError")
        rows = (tmp_path / "diverge_metrics.csv").read_text().splitlines()
        assert rows[-1].split(",")[0] == str(summary["diverged_at"])

    def test_growing_run_stops_at_the_growth_bound(self, tmp_path):
        # V_t grows about tenfold a round from 2,066 and stays finite for
        # 200 rounds; it first exceeds 1e10 times its start at round 12.
        cfg = ExperimentConfig(
            seed=0, rounds=30, topology_kind="random", topology_m=8, loss_kind="quadratic",
            quadratic_style="random", loss_dimension=5, caden_mu_z=21.0, caden_tau=6,
            caden_mu_y=100.0, metrics_wall_time=False, output_label="grow",
        )
        with pytest.raises(DivergenceError, match=r"^V_t = 7.15e\+13 after round 12 exceeds"):
            run_experiment(cfg, out_dir=str(tmp_path))
        summary = _strict_json_loads((tmp_path / "grow_summary.json").read_text())
        assert summary["diverged_at"] == summary["totals"]["rounds"] == 12
        assert summary["error"].startswith("DivergenceError: V_t = ")
        rows = (tmp_path / "grow_metrics.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(13))
        v = [float(r.split(",")[1]) for r in rows[1:]]
        assert v[11] <= harness.DIVERGENCE_GROWTH * v[0] < v[12]

    def test_gt_stops_at_first_non_finite_state(self, tmp_path):
        # Step 3 on unit quadratics makes the models grow geometrically; the
        # per-round state check stops the run between logged rows.
        cfg = ExperimentConfig(
            seed=0, rounds=1000, algorithm="gt", gt_step=3.0,
            topology_kind="ring", topology_m=4, loss_kind="quadratic",
            metrics_cadence=500, metrics_wall_time=False, output_label="gt",
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="trackers"):
            run_experiment(cfg, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "gt_summary.json").read_text())
        diverged_at = summary["diverged_at"]
        assert 0 < diverged_at < 1000 and diverged_at % 500 != 0
        rows = (tmp_path / "gt_metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", str(diverged_at)]

    @pytest.mark.parametrize("algorithm", ["caden", "gt"])
    def test_non_finite_start_stops_at_start_round(self, tmp_path, algorithm):
        cfg = _k2_config(
            algorithm=algorithm, gt_step=0.1, rounds=10, init_strategy="random",
            init_scale=float("inf"), output_label="inf",
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            run_experiment(cfg, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "inf_summary.json").read_text())
        assert summary["diverged_at"] == 0
        rows = (tmp_path / "inf_metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0"]

    def test_topology_from_file(self, tmp_path):
        from caden import graphs

        path = str(tmp_path / "graph.txt")
        with open(path, "w", encoding="ascii") as fp:
            write_edge_list(graphs.complete_graph(2), fp)
        cfg = _k2_config(topology_kind="file", topology_file=path)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.summary["graph"]["m"] == 2

    @pytest.mark.parametrize(
        "text, defect",
        [
            ("1 0\n", "at least 2 are needed"),
            ("3\n", "header must be 'm n'"),
            ("3 2\n1 2 3\n2 3\n", "malformed edge line"),
            ("3 3\n1 2\n2 3\n", "declares 3 edges, file has 2"),
            ("2 1\n1 1\n", "self-loop"),
            ("3 3\n1 2\n2 1\n2 3\n", "duplicate edges"),
            ("2 1\n1 3\n", "out of range"),
            ("2 1\n1 b\n", "invalid literal"),
        ],
        ids=["one-agent", "header", "line", "count", "self-loop", "duplicate", "range", "token"],
    )
    def test_bad_topology_file_is_a_config_error(self, tmp_path, text, defect):
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="ascii")
        cfg = _k2_config(topology_kind="file", topology_file=str(path))
        with pytest.raises(ConfigError, match=re.escape(f"topology.file {path}: ")) as err:
            build_topology(cfg)
        assert defect in str(err.value)

    def test_missing_topology_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "absent" / "graph.txt"
        cfg = _k2_config(topology_kind="file", topology_file=str(path))
        with pytest.raises(ConfigError, match=re.escape(f"topology.file {path}: cannot be read")):
            build_topology(cfg)

    def test_theory_mode_reports_constants(self, tmp_path):
        cfg = ExperimentConfig(
            seed=2, rounds=3, mode="theory",
            topology_kind="complete", topology_m=6,
            loss_kind="quadratic", quadratic_style="identity", loss_dimension=2,
            metrics_wall_time=False, output_label="theory",
        )
        theory_info = _diverged_summary(cfg, tmp_path)["theory"]
        assert theory_info["mode"] == "theory"
        assert theory_info["report"]["constants"]["c1"] > 0
        assert set(theory_info["selected"]) == {"mu_z", "mu_y", "tau"}

    def test_theory_probe_measures_the_run_solver(self, tmp_path):
        # A caden-gd run prescribes its parameters from the gradient-descent
        # contraction rate at the run's default step, not the L-BFGS one,
        # and on the subproblems at the mu_z = 2L + 1 it prescribes, also
        # when the run sets caden.mu_z.
        for mu_z in (None, 50.0):
            cfg = ExperimentConfig(
                seed=2, rounds=3, algorithm="caden-gd", mode="theory",
                topology_kind="complete", topology_m=6,
                loss_kind="quadratic", quadratic_style="random", loss_dimension=4,
                quadratic_cond=50.0, init_strategy="random", caden_mu_z=mu_z,
                metrics_wall_time=False, output_label="theory_gd",
            )
            summary = _diverged_summary(cfg, tmp_path)
            topology = build_topology(cfg)
            losses, _ = build_losses(cfg, topology)
            init = initialize(cfg, losses, topology)
            prescribed = 2.0 * init.lipschitz + 1.0
            phi = np.zeros_like(init.x0)
            rates = []
            for i, loss in enumerate(losses):
                anchors = 0.5 * (init.x0[i] + init.x0[list(neighbors(topology, i))])
                report = solve_gd(
                    batch_of([Row(loss, phi[i], anchors, prescribed)]), init.x0[i][None],
                    cfg.contraction_probe_iters, lipschitz=init.lipschitz,
                )
                rates.append(estimate_contraction(report)[0])
            assert summary["theory"]["contraction_rate"] == max(rates)

    def test_theory_run_computes_the_spectrum_once(self, tmp_path, monkeypatch):
        # The graph summary and the prescribed parameters share one
        # Laplacian spectrum.
        calls = []
        spectrum = graphs.laplacian_spectrum
        monkeypatch.setattr(graphs, "laplacian_spectrum",
                            lambda topology: calls.append(1) or spectrum(topology))
        cfg = ExperimentConfig(
            seed=2, rounds=3, mode="theory", topology_kind="complete", topology_m=6,
            loss_kind="quadratic", quadratic_style="identity", loss_dimension=2,
            metrics_wall_time=False, output_label="theory",
        )
        summary = _diverged_summary(cfg, tmp_path)
        assert len(calls) == 1
        assert summary["graph"]["lambda_max"] == spectrum(build_topology(cfg)).lambda_max

    def test_mu_z_auto_needs_smoothness(self, tmp_path):
        cfg = ExperimentConfig(
            seed=0, rounds=2, loss_kind="mlp", loss_data="blobs",
            topology_kind="complete", topology_m=3,
            loss_samples_per_agent=10, loss_eval_samples=10,
            init_strategy="zeros", metrics_wall_time=False,
        )
        with pytest.raises(ConfigError, match="smoothness"):
            run_experiment(cfg, out_dir=str(tmp_path))

    def test_gd_step_auto_needs_smoothness(self, tmp_path):
        cfg = ExperimentConfig(
            seed=0, rounds=2, algorithm="caden-gd", loss_kind="mlp", loss_data="blobs",
            topology_kind="complete", topology_m=3,
            loss_samples_per_agent=10, loss_eval_samples=10,
            init_strategy="zeros", caden_mu_z=1.0, caden_gd_step=None,
            metrics_wall_time=False,
        )
        with pytest.raises(ConfigError, match="caden.gd_step"):
            run_experiment(cfg, out_dir=str(tmp_path))

    def test_idx_data_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        count, rows, cols = 60, 3, 4
        labels = (np.arange(count) % 2).astype(np.int64)
        images = rng.random((count, rows * cols)) * 0.2
        images[labels == 1] += 0.6
        img_path = str(tmp_path / "train.idx")
        lab_path = str(tmp_path / "labels.idx")
        write_idx_images(img_path, images, rows, cols)
        write_idx_labels(lab_path, labels)
        cfg = ExperimentConfig(
            seed=0, rounds=10, topology_kind="complete", topology_m=3,
            loss_kind="logistic", loss_data="idx",
            loss_idx_images=img_path, loss_idx_labels=lab_path,
            loss_eval_samples=12, init_strategy="warmstart",
            metrics_wall_time=False, output_label="idx",
        )
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.trace.rows[-1].acc is not None
        assert result.summary["totals"]["final_rel_err"] >= 0.0

    def test_idx_data_with_fewer_samples_than_agents_refused(self, tmp_path):
        img_path = str(tmp_path / "train.idx")
        lab_path = str(tmp_path / "labels.idx")
        write_idx_images(img_path, np.full((4, 2), 0.5), 1, 2)
        write_idx_labels(lab_path, np.array([0, 1, 0, 1]))
        cfg = ExperimentConfig(
            seed=0, rounds=2, topology_kind="complete", topology_m=3,
            loss_kind="logistic", loss_data="idx", loss_idx_images=img_path,
            loss_idx_labels=lab_path, loss_eval_samples=2, output_label="idx",
        )
        with pytest.raises(ConfigError, match="loss.idx_images holds 4 samples; .* leaving 2 for"):
            run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_warmstart_resolves_smoothness(self, tmp_path):
        cfg = ExperimentConfig(
            seed=0, rounds=3, loss_kind="mlp", loss_data="blobs",
            topology_kind="complete", topology_m=3,
            loss_features=6, loss_hidden=5, loss_classes=3,
            loss_samples_per_agent=15, loss_eval_samples=30,
            init_strategy="warmstart", metrics_wall_time=False,
        )
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.summary["theory"]["parameters"]["lipschitz"] > 0
        assert result.trace.rows[-1].acc is not None


def _idx_files(directory, name, count, rows=1, cols=2):
    """Write ``count`` two-class IDX images and labels; return both paths."""
    images, labels = str(directory / f"{name}_images.idx"), str(directory / f"{name}_labels.idx")
    write_idx_images(images, np.full((count, rows * cols), 0.5), rows, cols)
    write_idx_labels(labels, np.arange(count) % 2)
    return images, labels


class TestIdxInputs:
    """Each bad IDX input raises a ConfigError naming its key before any
    output is written."""

    def _refused(self, tmp_path, match, **keys):
        images, labels = _idx_files(tmp_path, "train", 30)
        fields = dict(
            seed=0, rounds=2, topology_kind="complete", topology_m=3,
            loss_kind="logistic", loss_data="idx", loss_eval_samples=6,
            loss_idx_images=images, loss_idx_labels=labels,
        )
        cfg = ExperimentConfig(**{**fields, **keys})
        with pytest.raises(ConfigError, match=match):
            run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("attr", ["loss_idx_images", "loss_idx_labels"])
    def test_missing_file(self, tmp_path, attr):
        missing = str(tmp_path / "missing.idx")
        key = attr.replace("_", ".", 1)
        self._refused(tmp_path, f"^{key} {re.escape(missing)}: cannot be read", **{attr: missing})

    def test_label_file_passed_as_images(self, tmp_path):
        _, labels = _idx_files(tmp_path, "other", 30)
        self._refused(tmp_path, "^loss.idx_images .*bad image magic", loss_idx_images=labels)

    @pytest.mark.parametrize("attr, size", [("loss_idx_images", 15), ("loss_idx_labels", 7)])
    def test_short_header(self, tmp_path, attr, size):
        short = tmp_path / "short.idx"
        short.write_bytes(b"\x00" * size)
        key = attr.replace("_", ".", 1)
        self._refused(tmp_path, f"^{key} .*IDX header of {size} bytes", **{attr: str(short)})

    def test_header_declaring_more_than_the_file_holds(self, tmp_path):
        # 2**31 x 2**31 x 4 bytes declared, 100 held: the reader asks for no
        # more than the file has.
        big = tmp_path / "big.idx"
        big.write_bytes(struct.pack(">IIII", 0x803, 2**31, 2**31, 4) + b"\x00" * 100)
        self._refused(tmp_path, "^loss.idx_images .*truncated IDX image file",
                      loss_idx_images=str(big))

    def test_eval_images_without_eval_labels(self, tmp_path):
        eval_images, _ = _idx_files(tmp_path, "eval", 10)
        self._refused(
            tmp_path, "loss.idx_eval_images and loss.idx_eval_labels must be set together",
            loss_idx_eval_images=eval_images,
        )

    def test_training_counts_differ(self, tmp_path):
        images, _ = _idx_files(tmp_path, "many", 300)
        _, labels = _idx_files(tmp_path, "few", 200)
        self._refused(
            tmp_path, "loss.idx_images holds 300 images, loss.idx_labels 200",
            loss_idx_images=images, loss_idx_labels=labels,
        )

    def test_eval_counts_differ(self, tmp_path):
        images, _ = _idx_files(tmp_path, "many", 300)
        _, labels = _idx_files(tmp_path, "few", 250)
        self._refused(
            tmp_path, "loss.idx_eval_images holds 300 images, loss.idx_eval_labels 250",
            loss_idx_eval_images=images, loss_idx_eval_labels=labels,
        )

    def test_eval_image_size_differs(self, tmp_path):
        eval_images, eval_labels = _idx_files(tmp_path, "eval", 10, rows=2)
        self._refused(
            tmp_path, "loss.idx_eval_images and loss.idx_images differ in image size",
            loss_idx_eval_images=eval_images, loss_idx_eval_labels=eval_labels,
        )

    def test_empty_files(self, tmp_path):
        images, labels = _idx_files(tmp_path, "empty", 0)
        self._refused(
            tmp_path, "loss.idx_images holds 0 samples; .* leaving 0 for training",
            loss_idx_images=images, loss_idx_labels=labels,
        )

    @pytest.mark.parametrize(
        "count, eval_count, message",
        [
            # The default loss.eval_samples = 200 takes 149 of 150 images.
            (150, 0, "loss.idx_images holds 150 samples; loss.eval_samples = 200 carves 149 "
                     "of them for evaluation, leaving 1 for training, fewer than m=10 agents"),
            (5, 10, "loss.idx_images holds 5 training samples, fewer than m=10 agents"),
        ],
        ids=["carve", "eval-files"],
    )
    def test_too_few_training_samples_names_the_split(self, tmp_path, count, eval_count, message):
        images, labels = _idx_files(tmp_path, "small", count)
        keys = {}
        if eval_count:
            keys["loss_idx_eval_images"], keys["loss_idx_eval_labels"] = _idx_files(
                tmp_path, "eval", eval_count
            )
        self._refused(
            tmp_path, f"^{re.escape(message)}$",
            loss_idx_images=images, loss_idx_labels=labels,
            topology_kind="ring", topology_m=10, loss_eval_samples=200, **keys,
        )


@pytest.mark.parametrize(
    "overrides, key",
    [
        (dict(caden_tau=0), "caden.tau"),
        (dict(caden_tau_reduced=0), "caden.tau_reduced"),
        (dict(caden_participation=0.0), "caden.participation"),
        (dict(caden_participation=1.5), "caden.participation"),
        (dict(caden_mu_z=-1.0), "caden.mu_z"),
        (dict(caden_mu_y=0.0), "caden.mu_y"),
        (dict(algorithm="caden-gd", caden_gd_step=-0.1), "caden.gd_step"),
        (dict(caden_lbfgs_memory=0), "caden.lbfgs_memory"),
        (dict(metrics_cadence=0), "metrics.cadence"),
        (dict(rounds=-1), "rounds"),
        (dict(mode="theory", contraction_probe_iters=0), "contraction.probe_iters"),
        (dict(algorithm="gt", gt_step=-0.1), "gt.step"),
        (dict(algorithm="gt", gt_tune_rounds=0), "gt.tune_rounds"),
        (dict(topology_m=1), "topology.m"),
        (dict(topology_kind="path", topology_m=1), "topology.m"),
        (dict(topology_kind="ring", topology_m=1), "topology.m"),
        (dict(topology_kind="random", topology_m=1), "topology.m"),
        (dict(topology_kind="random", topology_edge_prob=0.0), "topology.edge_prob"),
        (dict(topology_kind="random", topology_edge_prob=1.5), "topology.edge_prob"),
        (dict(quadratic_targets="", loss_dimension=0), "loss.dimension"),
        (dict(quadratic_style="random", quadratic_cond=0.0), "quadratic.cond"),
        (dict(loss_kind="logistic", loss_samples_per_agent=0), "loss.samples_per_agent"),
        (dict(loss_kind="mlp", loss_eval_samples=0), "loss.eval_samples"),
        (dict(loss_kind="logistic", loss_features=0), "loss.features"),
        (dict(loss_kind="logistic", loss_classes=0), "loss.classes"),
        (dict(loss_kind="mlp", loss_hidden=0), "loss.hidden"),
        (dict(init_strategy="warmstart", lipschitz_warm_lr=0.0), "lipschitz.warm_lr"),
        (dict(init_strategy="warmstart", lipschitz_probe_lr=-1e-7), "lipschitz.probe_lr"),
        (dict(init_strategy="warmstart", lipschitz_warm_epochs=-3), "lipschitz.warm_epochs"),
        (dict(init_strategy="warmstart", lipschitz_probe_epochs=0), "lipschitz.probe_epochs"),
        (dict(metrics_thresholds="1e-2,abc"), "metrics.thresholds"),
        (dict(metrics_thresholds="nan"), "metrics.thresholds"),
        (dict(metrics_thresholds="1e-2,inf"), "metrics.thresholds"),
        (dict(metrics_thresholds="0"), "metrics.thresholds"),
        (dict(algorithm="gt", metrics_thresholds="-1e-3"), "metrics.thresholds"),
        (dict(loss_kind="logistic", loss_l2=-1.0), "loss.l2"),
        (dict(loss_kind="logistic", loss_l2=float("nan")), "loss.l2"),
        (dict(loss_kind="mlp", loss_l2=float("inf")), "loss.l2"),
        (dict(loss_kind="logistic", loss_feature_scale_max=0.0), "loss.feature_scale_max"),
        (dict(loss_kind="mlp", loss_feature_scale_max=-2.0), "loss.feature_scale_max"),
        (dict(loss_kind="logistic", loss_feature_scale_max=float("inf")),
         "loss.feature_scale_max"),
        (dict(caden_mu_z=float("inf")), "caden.mu_z"),
        (dict(caden_mu_y=float("inf")), "caden.mu_y"),
        (dict(algorithm="caden-gd", caden_gd_step=float("inf")), "caden.gd_step"),
        (dict(algorithm="gt", gt_step=float("inf")), "gt.step"),
        (dict(init_strategy="warmstart", lipschitz_warm_lr=float("inf")), "lipschitz.warm_lr"),
        (dict(init_strategy="warmstart", lipschitz_probe_lr=float("inf")), "lipschitz.probe_lr"),
        (dict(quadratic_style="random", quadratic_cond=float("inf")), "quadratic.cond"),
        (dict(loss_kind="logistic", loss_blob_spread=-1.0), "loss.blob_spread"),
        (dict(loss_kind="mlp", loss_blob_spread=float("nan")), "loss.blob_spread"),
        (dict(loss_kind="logistic", loss_blob_spread=float("inf")), "loss.blob_spread"),
        (dict(quadratic_targets="", quadratic_target_spread=-0.5), "quadratic.target_spread"),
        (dict(quadratic_targets="", quadratic_target_spread=float("nan")),
         "quadratic.target_spread"),
        (dict(quadratic_targets="", quadratic_target_spread=float("inf")),
         "quadratic.target_spread"),
        (dict(caden_tau_reduce_round=-3), "caden.tau_reduce_round"),
        (dict(algorithm="caden-gd", caden_tau_reduce_round=-2), "caden.tau_reduce_round"),
        (dict(seed=-1), "seed"),
        (dict(loss_shard_seed=-2), "loss.shard_seed"),
        (dict(quadratic_targets="0,nan"), "quadratic.targets"),
        (dict(algorithm="gt", caden_tau=0), "caden.tau"),
        (dict(loss_kind="quadratic", loss_hidden=0), "loss.hidden"),
        # Values of the wrong kind, as a config built in Python may hold.
        (dict(caden_tau=2.5), "caden.tau"),
        (dict(topology_m=3.0), "topology.m"),
        (dict(caden_tau="5"), "caden.tau"),
        (dict(metrics_cadence=True), "metrics.cadence"),
        (dict(caden_mu_z=True), "caden.mu_z"),
        (dict(metrics_wall_time=0), "metrics.wall_time"),
        (dict(output_label=None), "output.label"),
    ],
)
def test_out_of_range_key_refused_before_any_round(tmp_path, monkeypatch, overrides, key):
    _refused_before_build(tmp_path, monkeypatch, _k2_config(**overrides), key)


def _refused_before_build(tmp_path, monkeypatch, cfg, key):
    """``run_experiment`` of cfg raises ConfigError naming key before it
    builds the problem, runs a round or writes a file."""

    def no_round(*args, **kwargs):
        raise AssertionError("a round ran")

    def no_build(*args, **kwargs):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(engine, "run_round", no_round)
    monkeypatch.setattr(harness, "build_topology", no_build)
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must"):
        run_experiment(cfg, out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


_RANGED_REALS = [k for k in KEYS if k.within and k.kind in ("float", "autofloat")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("key", _RANGED_REALS, ids=lambda k: k.name)
def test_ranged_real_refuses_non_finite(tmp_path, monkeypatch, key, value):
    cfg = _k2_config(**{key.attr: value})
    _refused_before_build(tmp_path, monkeypatch, cfg, key.name)


@pytest.mark.parametrize("key", [k for k in KEYS if k.choices], ids=lambda k: k.name)
def test_unknown_choice_refused_before_any_round(tmp_path, monkeypatch, key):
    # Built in Python, so no parser has seen the value.
    cfg = _k2_config(**{key.attr: "unknown"})
    _refused_before_build(tmp_path, monkeypatch, cfg, key.name)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(loss_kind="mlp", loss_blob_spread=0.0),
        dict(quadratic_targets="", quadratic_target_spread=0.0),
        dict(caden_tau_reduce_round=-1),
        dict(caden_tau_reduce_round=0),
        dict(seed=0),
        dict(loss_shard_seed=-1),
    ],
)
def test_range_bounds_are_accepted(overrides):
    check_config(_k2_config(**overrides))


class TestGtRuns:
    def test_gt_rejects_init_state_file(self, tmp_path):
        cfg = _k2_config(algorithm="gt", gt_step=0.1, init_state_file=str(tmp_path / "s.bin"))
        with pytest.raises(ConfigError, match="init.state_file"):
            run_experiment(cfg, out_dir=str(tmp_path))

    def test_gt_rejects_save_state(self, tmp_path):
        cfg = _k2_config(algorithm="gt", gt_step=0.1, output_save_state=str(tmp_path / "s.bin"))
        with pytest.raises(ConfigError, match="output.save_state"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert not (tmp_path / "s.bin").exists()

    def test_gt_rejects_theory_mode(self, tmp_path):
        cfg = _k2_config(algorithm="gt", gt_step=0.1, mode="theory")
        with pytest.raises(ConfigError, match="mode = theory"):
            run_experiment(cfg, out_dir=str(tmp_path))

    def test_gt_runs_logistic_loss_from_zeros(self, tmp_path):
        # Gradient tracking needs no smoothness constant, so the default
        # zero start works for a loss without an exact one.
        cfg = ExperimentConfig(
            seed=0, rounds=5, algorithm="gt", loss_kind="logistic",
            topology_kind="complete", topology_m=3,
            loss_samples_per_agent=10, loss_eval_samples=10,
            init_strategy="zeros", metrics_wall_time=False, output_label="gt",
        )
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.trace.rows[-1].round == 5
        selected = result.summary["gt_tuning"]["selected"]
        assert result.summary["theory"]["parameters"] == {"gt_step": selected}

    def test_gt_converges_with_tuned_step(self, tmp_path):
        cfg = _k2_config(algorithm="gt", rounds=300, caden_mu_z=None)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.summary["totals"]["final_rel_err"] <= 1e-6
        assert result.summary["gt_tuning"]["selected"] in (1e-1, 1e-2, 1e-3, 1e-4)

    def test_gt_step_refusal_writes_no_files(self, tmp_path):
        # Curvature up to 1e7 makes every candidate step diverge; the step is
        # resolved before the run's clock starts, like CADEN's parameters,
        # so the refusal leaves no CSV and no summary behind.
        cfg = ExperimentConfig(
            seed=0, rounds=50, algorithm="gt", topology_kind="ring", topology_m=4,
            loss_kind="quadratic", quadratic_style="random", quadratic_cond=1e7,
            loss_dimension=3, metrics_wall_time=False, output_label="gt",
        )
        with pytest.raises(ConfigError, match="every gt.step candidate diverged"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_gt_accounts_two_vectors_per_agent_round(self, tmp_path):
        cfg = _k2_config(algorithm="gt", rounds=25, gt_step=0.1)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.summary["totals"]["communications"] == 2 * 2 * 25

    def test_gt_rows_leave_dual_metrics_empty(self, tmp_path):
        cfg = _k2_config(algorithm="gt", rounds=5, gt_step=0.1)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        body = result.csv_path.read_text().splitlines()[1]
        cells = body.split(",")
        assert cells[CSV_COLUMNS.index("V_t")] == ""
        assert cells[CSV_COLUMNS.index("phi_drift")] == ""


class TestOneEvaluationPath:
    def test_no_one_row_loss_call_outside_the_stack(self, monkeypatch):
        # LossStack evaluates every built-in family through its kernels, so
        # the warm-start probe, the starting gradients, a round of each
        # solver and the test accuracy never call one agent's loss method.
        def refuse(self, *args):
            raise AssertionError(f"{type(self).__name__} was evaluated one row at a time")

        for cls in (LogisticLoss, MlpLoss):
            for name in ("value", "gradient", "predict"):
                monkeypatch.setattr(cls, name, refuse)
        monkeypatch.setattr(QuadraticLoss, "gradient", refuse)
        for kind in ("logistic", "mlp"):
            cfg = ExperimentConfig(
                seed=3, topology_kind="ring", topology_m=5, loss_kind=kind, loss_features=4,
                loss_hidden=6, loss_samples_per_agent=20, loss_eval_samples=30, loss_l2=1e-3,
                init_strategy="warmstart",
            )
            topology = build_topology(cfg)
            losses, eval_set = build_losses(cfg, topology)
            init = initialize(cfg, losses, topology)
            state = engine.init_states(losses, topology, init.x0)
            for solver in ("lbfgs", "gd"):
                config = engine.CadenConfig(
                    mu_z=2.0 * init.lipschitz + 1.0, mu_y=1.0, solver=solver,
                    lipschitz=init.lipschitz,
                )
                engine.run_round(state, losses, topology, config, 0)
            assert 0.0 <= metrics.test_accuracy(state.x, losses, *eval_set) <= 1.0
        cfg = ExperimentConfig(
            seed=3, topology_kind="complete", topology_m=4, loss_kind="quadratic",
            quadratic_style="random", loss_dimension=3,
        )
        topology = build_topology(cfg)
        losses, _ = build_losses(cfg, topology)
        x0 = initialize(cfg, losses, topology).x0
        state = engine.init_states(losses, topology, x0)
        for solver in ("lbfgs", "gd", "exact"):
            config = engine.CadenConfig(mu_z=3.0, mu_y=1.0, solver=solver)
            engine.run_round(state, losses, topology, config, 0)


class TestParticipationSweep:
    def test_ordering_and_alignment(self):
        result = sweep(_convex_benchmark(), "caden.participation", [0.3, 0.6, 1.0], n_seeds=3)
        assert result.final_v[0.3] >= result.final_v[0.6] >= result.final_v[1.0]
        lengths = {len(res.trace.rows) for res in result.runs.values()}
        assert len(lengths) == 1

    def test_identical_seed_identical_trace(self):
        cfg = _convex_benchmark(rounds=20)
        a = sweep(cfg, "caden.participation", [0.6], n_seeds=1)
        b = sweep(cfg, "caden.participation", [0.6], n_seeds=1)
        ta = a.runs[(0.6, 10)].trace
        tb = b.runs[(0.6, 10)].trace
        assert ta.to_csv() == tb.to_csv()


    def test_gradient_tracking_is_refused_before_any_run(self, monkeypatch):
        # gt logs no V and has no participation to vary.
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        with pytest.raises(ConfigError, match="caden.participation"):
            sweep(_k2_config(algorithm="gt"), "caden.participation", [0.5, 1.0], n_seeds=1)

    @pytest.mark.parametrize(
        "key, values, n_seeds, named",
        [
            ("caden.participation", [0.5, 0.0], 1, "caden.participation must be in"),
            ("caden.participation", [1.5], 1, "caden.participation must be in"),
            ("caden.participation", [0.5, float("nan")], 1, "caden.participation must be in"),
            ("caden.tau", [2, 0], 1, "caden.tau must be at least 1"),
            ("caden.tau", [2], 0, "caden.tau sweep needs n_seeds"),
            ("caden.mu_z", [1.0], 1, "cannot sweep 'caden.mu_z'"),
            ("caden.participation", [0.3, 0.3000001], 1,
             "caden.participation values .* share the output label 'p0.3'"),
            ("caden.tau", [5, 5], 1, "caden.tau values .* share the output label 'tau5'"),
        ],
        ids=["p-zero", "p-above-one", "p-nan", "tau-zero", "no-seeds", "unknown-key",
             "p-same-label", "tau-repeated"],
    )
    def test_bad_grid_is_refused_before_any_run(self, monkeypatch, key, values, n_seeds, named):
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        with pytest.raises(ConfigError, match=named):
            sweep(_k2_config(), key, values, n_seeds=n_seeds)

    def test_tau_sweep_reports_seed_mean_final_error(self):
        result = sweep(_k2_config(rounds=15), "caden.tau", [1, 3], n_seeds=2)
        assert result.key == "caden.tau" and result.seeds == [1, 2]
        for tau in (1, 3):
            errs = [result.runs[(tau, s)].summary["totals"]["final_rel_err"] for s in (1, 2)]
            assert result.final_rel_err[tau] == sum(errs) / 2
            assert result.runs[(tau, 2)].config.output_label == f"k2_tau{tau}_s2"


def _diverged_summary(cfg, out_dir) -> dict:
    """The summary of a theory run that stops at the growth bound.  The
    parameters theory mode prescribes make V_t grow by 1e10 or more within
    two rounds, on these small quadratics too (one reports c1 > 0 and no
    violation), yet the run writes its theory report first."""
    with pytest.raises(DivergenceError, match="exceeds"):
        run_experiment(cfg, out_dir=str(out_dir))
    return json.loads((out_dir / f"{cfg.output_label}_summary.json").read_text())


def _no_run(*args, **kwargs):
    raise AssertionError("no run may start")


def test_every_public_name_resolves():
    import caden

    assert all(hasattr(caden, name) for name in caden.__all__)
    assert "sweep" in caden.__all__


class TestTraceContainer:
    def test_rows_must_increase(self):
        trace = RunTrace()
        row = TraceRow(round=1, V_t=0.0, rel_err=0.0, rel_err_graph=0.0, acc=None,
                       comms=0, time_s=0.0, phi_drift=None, active=0)
        trace.append(row)
        with pytest.raises(ValueError, match="increasing"):
            trace.append(row)

    def test_cumulative_columns_nondecreasing(self, tmp_path):
        result = run_experiment(_k2_config(rounds=30), out_dir=str(tmp_path))
        comms = [row.comms for row in result.trace.rows]
        assert all(a <= b for a, b in zip(comms, comms[1:]))


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config(rounds=20)))
        code = cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "k2_metrics.csv").exists()
        assert "rel_err" in capsys.readouterr().out

    def test_run_seed_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_convex_benchmark(rounds=10)))
        cli.main(["run", "--config", str(cfg_path), "--seed", "99",
                  "--out-dir", str(tmp_path)])
        summary = json.loads((tmp_path / "convex_summary.json").read_text())
        assert summary["config"]["seed"] == "99"

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_convex_benchmark(rounds=15)))
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--participation", "0.5,1.0",
            "--seeds", "2", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "convex_sweep.json").read_text())
        assert set(report["participation"]) == {"0.5", "1.0"}

    def test_sweep_tau_grid(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config(rounds=15)))
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--tau", "1,5",
            "--seeds", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "k2_sweep.json").read_text())
        assert set(report["tau"]) == {"1", "5"}

    def test_sweep_tau_refuses_gradient_tracking(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config(algorithm="gt", gt_step=0.1)))
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        code = cli.main(["sweep", "--config", str(cfg_path), "--tau", "1,5",
                         "--seeds", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "a caden.tau sweep needs a CADEN algorithm" in capsys.readouterr().err
        assert not (tmp_path / "k2_sweep.json").exists()

    def test_sweep_checks_every_grid_before_running_any(self, tmp_path, monkeypatch, capsys):
        # The participation grid is valid and comes first; the tau grid
        # repeats a label.  Nothing runs and no file is written.
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config()))
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        code = cli.main(["sweep", "--config", str(cfg_path), "--participation", "0.5",
                         "--tau", "5,5", "--seeds", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "caden.tau values 5 and 5 share the output label 'tau5'" in err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "flags, named, message",
        [
            (["--tau", "2.5"], "--tau", "bad value for caden.tau: '2.5'"),
            (["--seeds", "0", "--tau", "2"], "--seeds", "expected an integer of at least 1"),
            (["--seeds", "0", "--participation", "0.5"], "--seeds",
             "expected an integer of at least 1"),
            (["--seed", "-1", "--tau", "2"], "--seed", "seed must be at least 0, got -1"),
        ],
        ids=["non-integer-tau", "zero-seeds-tau", "zero-seeds-participation", "negative-seed"],
    )
    def test_sweep_refuses_bad_counts_before_any_run(
        self, tmp_path, monkeypatch, capsys, flags, named, message
    ):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config()))
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--config", str(cfg_path), *flags, "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"argument {named}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "k2_sweep.json").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "caden.participation must be in (0, 1], got 0.0"),
            ("1.5", "caden.participation must be in (0, 1], got 1.5"),
            ("nan", "caden.participation must be in (0, 1], got nan"),
            ("half", "bad value for caden.participation: 'half'"),
            ("0.5,2", "caden.participation must be in (0, 1], got 2.0"),
        ],
        ids=["0", "1.5", "nan", "half", "0.5,2"],
    )
    def test_sweep_refuses_bad_participation_before_any_run(
        self, tmp_path, monkeypatch, capsys, value, message
    ):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config()))
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--config", str(cfg_path), "--participation", value,
                      "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --participation: {message}" in err
        assert not (tmp_path / "k2_sweep.json").exists()

    def test_sweep_both_grids(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config(rounds=10)))
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--participation", "0.5", "--tau", "2",
            "--seeds", "2", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        written = sorted(path.name for path in tmp_path.glob("k2_*_s*_*"))
        assert written == sorted(
            f"k2_{tag}_s{s}_{kind}"
            for tag in ("p0.5", "tau2") for s in (1, 2)
            for kind in ("metrics.csv", "summary.json")
        )
        report = json.loads((tmp_path / "k2_sweep.json").read_text())
        assert set(report) == {"participation", "seeds", "tau"}
        assert set(report["participation"]) == {"0.5"} and set(report["tau"]) == {"2"}
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("p=0.5: seed-averaged final V = ")
        assert out[1].startswith("tau=2: seed-averaged final rel_err = ")

    def test_sweep_without_grids_errors(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(_k2_config()))
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 2

    def test_unknown_suite_rejected(self):
        from caden.verify import run_suites

        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            run_suites(["nope"])

    def test_verify_refuses_a_bad_seed_before_any_suite(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suites", _no_run)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--seed", "-1", "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "argument --seed: seed must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("suite", ["sandwich", "equivalence", "constants"])
    def test_verify_subcommand(self, tmp_path, capsys, suite):
        code = cli.main(["verify", "--suite", suite, "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"[PASS] {suite}" in out
        payload = _strict_json_loads((tmp_path / "verify.json").read_text())
        assert payload[suite]["passed"] is True
