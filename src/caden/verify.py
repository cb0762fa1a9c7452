"""Built-in invariant suites behind the ``verify`` CLI subcommand.

Three suites: the spectral sandwich on the neighbor-mean disagreement
(``sandwich``), the edge-form/agent-form trajectory equivalence
(``equivalence``), and the analysis-constant hypotheses plus their
monotonicity in the local rate (``constants``).  Each returns a structured
result with a pass flag and the measured extremes, so the same functions back
both the CLI and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import edge_form, engine, graphs, theory
from .engine import CadenConfig
from .losses import LossStack, QuadraticLoss

SANDWICH_SLACK = -1e-9
EQUIVALENCE_TOL = 1e-10
ANTISYMMETRY_TOL = 1e-12
MONOTONE_RATES = (0.9, 0.5, 0.1)


@dataclass(frozen=True)
class VerifyResult:
    suite: str
    passed: bool
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.suite}: {self.details.get('headline', '')}"


def verify_sandwich(count: int = 100, seed: int = 0) -> VerifyResult:
    """Random (connected graph, models) instances must satisfy
    lower <= middle <= upper with slack no worse than -1e-9."""
    worst = 0.0
    for trial in range(count):
        rng = np.random.default_rng([11, seed, trial])
        m = int(rng.integers(3, 16))
        d = int(rng.integers(1, 9))
        topology = graphs.build_random_graph(m, 0.4, seed=seed * count + trial)
        x = rng.standard_normal((m, d))
        lower, middle, upper = graphs.neighbor_disagreement_bounds(topology, x)
        worst = min(worst, middle - lower, upper - middle)
    passed = worst >= SANDWICH_SLACK
    return VerifyResult(
        suite="sandwich",
        passed=passed,
        details={
            "instances": count,
            "worst_slack": worst,
            "headline": f"{count} instances, worst slack {worst:.3e}",
        },
    )


def _paired_quadratic_instance(seed: int, m: int = 5, d: int = 4):
    topology = graphs.build_random_graph(m, 0.5, seed=seed)
    rng = np.random.default_rng([12, seed])
    losses = []
    for _ in range(m):
        q = rng.uniform(0.5, 3.0, size=d)
        a = rng.standard_normal(d)
        losses.append(QuadraticLoss(q=q, a=a))
    x0 = rng.standard_normal((m, d))
    return topology, LossStack(losses), x0


def verify_equivalence(
    seed: int = 0,
    rounds: int = 50,
    tau: int = 5,
    mu_z: float = 3.0,
    mu_y: float = 2.0,
) -> VerifyResult:
    """Edge-form and agent-form trajectories and duals must coincide round for
    round, both driven by one full-participation config."""
    topology, losses, x0 = _paired_quadratic_instance(seed)
    config = CadenConfig(mu_z=mu_z, mu_y=mu_y, tau=tau, participation=1.0, seed=seed)
    x, phi, grad = engine.init_states(losses, topology, x0)
    edge_state = edge_form.init_edge_state(topology, x0)
    max_gap = 0.0
    max_antisym = edge_form.antisymmetry_gap(edge_state)
    max_phi_gap = 0.0
    for t in range(rounds):
        engine.run_round(x, phi, grad, losses, topology, config, t)
        edge_state = edge_form.run_edge_round(edge_state, losses, topology, config, t)
        max_gap = max(max_gap, float(np.abs(x - edge_state.x).max()))
        max_antisym = max(max_antisym, edge_form.antisymmetry_gap(edge_state))
        rebuilt_phi = edge_form.dual_aggregates(edge_state, topology)
        max_phi_gap = max(max_phi_gap, float(np.abs(phi - rebuilt_phi).max()))
    passed = (
        max_gap <= EQUIVALENCE_TOL
        and max_phi_gap <= EQUIVALENCE_TOL
        and max_antisym <= ANTISYMMETRY_TOL
    )
    return VerifyResult(
        suite="equivalence",
        passed=passed,
        details={
            "rounds": rounds,
            "max_trajectory_gap": max_gap,
            "max_antisymmetry": max_antisym,
            "max_dual_gap": max_phi_gap,
            "headline": (
                f"{rounds} rounds, trajectory gap {max_gap:.3e}, "
                f"dual gap {max_phi_gap:.3e}, antisymmetry {max_antisym:.3e}"
            ),
        },
    )


def constants_grid() -> list[tuple[graphs.SpectralSummary, float, float]]:
    """27 (graph, smoothness, participation-floor) points.

    Dense graphs only: the positivity margin of the constants shrinks with the
    spectral ratio lambda_max / lambda_min^2, and sparse or star-like graphs
    push c3 negative at the prescribed floor parameters, at full
    participation too (at rate 0.5, L = 1 and p = 1, c3 is about -101 on an
    8-agent ring and -1,300 on an 8-agent path).
    """
    topologies = [
        graphs.complete_graph(6),
        graphs.complete_graph(10),
        graphs.build_random_graph(12, 0.8, seed=7),
    ]
    spectra = [graphs.laplacian_spectrum(t) for t in topologies]
    lipschitz_values = [0.25, 0.5, 1.0]
    p_values = [0.5, 0.75, 1.0]
    return [(s, lip, p) for s in spectra for lip in lipschitz_values for p in p_values]


def verify_constants(rate: float = 0.5) -> VerifyResult:
    """Prescribed parameters must satisfy every hypothesis on the grid, and
    the bound constants must be monotone in the local rate at fixed
    parameters."""
    failures = []
    grid = constants_grid()
    for spectral, lip, p_min in grid:
        point = f"d_max={spectral.d_max} L={lip} p={p_min}"
        selected = theory.select_parameters(lip, spectral, p_min, rate)
        report = theory.compute_constants(lip, spectral, p_min, rate, selected)
        if not report.ok:
            failures.append(f"{point}: hypotheses violated {report.violations}")
            continue
        c = report.constants
        if not (0.0 < c.chat1 < 1.0 and c.chat4 * spectral.d_max**2 < 1.0):
            failures.append(f"{point}: hat-constant ranges broken")
        if not (c.c3 > 0.0 and c.c4 > 0.0 and c.c1 > 0.0 and c.c2 > 0.0):
            failures.append(f"{point}: nonpositive constants c3={c.c3:.3g} c4={c.c4:.3g}")
        # Rate sweep at fixed parameters: the budget is sized for the worst
        # rate so the power stays inside the bound across the whole sweep.
        tau_fixed = theory.select_parameters(lip, spectral, p_min, max(MONOTONE_RATES)).tau
        fixed = replace(selected, tau=tau_fixed)
        sweep = []
        for r in MONOTONE_RATES:
            rep = theory.compute_constants(lip, spectral, p_min, r, fixed)
            if rep.constants is None:
                failures.append(f"{point}: sweep rate {r} violates hypotheses")
                break
            sweep.append((rep.constants.c1, rep.constants.c2))
        for (c1_hi, c2_hi), (c1_lo, c2_lo) in zip(sweep, sweep[1:]):
            if c1_lo > c1_hi or c2_lo > c2_hi:
                failures.append(f"{point}: constants grew as the rate improved")
    return VerifyResult(
        suite="constants",
        passed=not failures,
        details={
            "grid_points": len(grid),
            "rate": rate,
            "failures": failures,
            "headline": f"{len(grid)} grid points, {len(failures)} failures",
        },
    )


SUITES = {
    "sandwich": lambda seed: verify_sandwich(seed=seed),
    "equivalence": lambda seed: verify_equivalence(seed=seed),
    "constants": lambda seed: verify_constants(),
}


def run_suites(names: list[str], seed: int = 0) -> list[VerifyResult]:
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}")
    return [SUITES[name](seed) for name in names]
