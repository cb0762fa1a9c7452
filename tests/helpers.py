"""Test oracles and file writers shared by the tests: finite differences,
dense constraint matrices, random curvature factories, the midpoint form of
the residual V, the edge-form augmented Lagrangian, the initial
augmented-gradient error, the gradient-tracking identity gap, the corollary
scaling sweep, and writers for the IDX and edge-list formats the package
reads."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import IO

import numpy as np

from caden import theory
from caden.baselines import GTState
from caden.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from caden.edge_form import EdgeState
from caden.engine import local_subproblem
from caden.errors import ParameterSelectionError
from caden.graphs import SpectralSummary, Topology, constraint_residual, edge_midpoints


def central_difference(fn, x: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference gradient oracle, h = 1e-6 (1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def random_psd(dim: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric PSD matrix with spectrum logspace(1, cond)."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = np.logspace(0.0, np.log10(cond), dim)
    return basis @ np.diag(evals) @ basis.T


def constraint_matrices(t: Topology) -> tuple[np.ndarray, np.ndarray]:
    """The n-by-m edge-endpoint selection matrices (a_src, a_dst): row k has a
    single 1 at the smaller (a_src) or larger (a_dst) endpoint of edge k."""
    a_src = np.zeros((t.n, t.m))
    a_dst = np.zeros((t.n, t.m))
    for k, (i, j) in enumerate(t.edges):
        a_src[k, i] = 1.0
        a_dst[k, j] = 1.0
    return a_src, a_dst


def dense_constraint_residual(t: Topology, x: np.ndarray, z: np.ndarray) -> float:
    """||Ax - Bz||^2 with the lifted matrices fully materialized (oracle)."""
    d = x.shape[1]
    a_src, a_dst = constraint_matrices(t)
    a = np.vstack([np.kron(a_src, np.eye(d)), np.kron(a_dst, np.eye(d))])
    b = np.vstack([np.eye(t.n * d), np.eye(t.n * d)])
    resid = a @ x.ravel() - b @ z.ravel()
    return float(resid @ resid)


def dense_augmented_lagrangian(
    t: Topology, x: np.ndarray, z: np.ndarray, y: np.ndarray, mu_z: float, loss_values: float
) -> float:
    """Augmented objective with materialized matrices; y is (n, 2, d) with the
    same stacking order as [src rows; dst rows]."""
    d = x.shape[1]
    a_src, a_dst = constraint_matrices(t)
    a = np.vstack([np.kron(a_src, np.eye(d)), np.kron(a_dst, np.eye(d))])
    b = np.vstack([np.eye(t.n * d), np.eye(t.n * d)])
    resid = a @ x.ravel() - b @ z.ravel()
    y_stacked = np.concatenate([y[:, 0].ravel(), y[:, 1].ravel()])
    return loss_values + float(y_stacked @ resid) + 0.5 * mu_z * float(resid @ resid)


def lyapunov_v_midpoint_form(x: np.ndarray, phi: np.ndarray, losses, topology: Topology) -> float:
    """The residual V through explicit per-edge midpoints (oracle for
    ``metrics.lyapunov_v``):
    sum_i ||grad f_i + phi_i||^2 + sum_i sum_{j in N_i} ||x_i - z_ij||^2."""
    total = 0.0
    for x_i, phi_i, loss in zip(x, phi, losses):
        g = loss.gradient(x_i) + phi_i
        total += float(g @ g)
    z = edge_midpoints(topology, x)
    for i in range(topology.m):
        for k, _, _ in topology.incident(i):
            diff = x[i] - z[k]
            total += float(diff @ diff)
    return total


def augmented_lagrangian_value(
    state: EdgeState, losses, topology: Topology, mu_z: float
) -> float:
    """F(x) + y . (Ax - Bz) + (mu_z / 2) ||Ax - Bz||^2, evaluated edge-wise."""
    total = sum(loss.value(x) for loss, x in zip(losses, state.x))
    src, dst = topology.edge_arrays()
    total += float((state.y[:, 0] * (state.x[src] - state.z)).sum())
    total += float((state.y[:, 1] * (state.x[dst] - state.z)).sum())
    total += 0.5 * mu_z * constraint_residual(topology, state.x, state.z)
    return total


def augmented_gradient_error(
    x: np.ndarray, phi: np.ndarray, losses, topology: Topology, mu_z: float
) -> float:
    """Squared norm of the stacked local augmented gradients.

    Each block is the gradient of the agent's subproblem, built from ``x`` and
    ``phi`` exactly as the engine builds it, at the agent's own model.  At the
    initial models with ``phi = 0`` this is the initial error e0 of the bound.
    """
    total = 0.0
    for i, loss in enumerate(losses):
        block = local_subproblem(i, x, phi, loss, topology, mu_z).gradient(x[i])
        total += float(block @ block)
    return total


def tracking_gap(state: GTState, losses) -> float:
    """Max-abs violation of the tracking identity sum g_i = sum grad f_i."""
    fresh = np.array([loss.gradient(state.x[i]) for i, loss in enumerate(losses)])
    return float(np.abs(state.g.sum(axis=0) - fresh.sum(axis=0)).max())


@dataclass(frozen=True)
class ScalingEntry:
    claimed: float
    ratio: float


@dataclass(frozen=True)
class ScalingReport:
    entries: tuple[ScalingEntry, ...]
    ratio_max: float
    spread: float


def corollary_scaling_check(
    points: list[tuple[SpectralSummary, float, float]], rate: float
) -> ScalingReport:
    """c1 against the claimed growth rate d_max^4 L lambda_max /
    (lambda_min^2 p_min) across a sweep of (spectrum, L, p_min) points.

    Each point gets the prescribed parameters for the given rate; the report
    carries the per-point ratio c1 / claimed and the ratio spread.
    """
    entries = []
    for spectral, lip, p_min in points:
        params = theory.select_parameters(lip, spectral, p_min, rate)
        report = theory.compute_constants(lip, spectral, p_min, rate, params)
        if report.constants is None:
            raise ParameterSelectionError(
                f"prescribed parameters violate hypotheses at {spectral}, L={lip}, p={p_min}"
            )
        claimed = (
            spectral.d_max**4 * lip * spectral.lambda_max / (spectral.lambda_min**2 * p_min)
        )
        entries.append(ScalingEntry(claimed=claimed, ratio=report.constants.c1 / claimed))
    ratios = [e.ratio for e in entries]
    return ScalingReport(
        entries=tuple(entries), ratio_max=max(ratios), spread=max(ratios) / min(ratios)
    )


def write_idx_images(path: str, images: np.ndarray, rows: int, cols: int) -> None:
    """Write float images in [0, 1] as an IDX u8 file."""
    count = images.shape[0]
    u8 = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fp:
        fp.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        fp.write(u8.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "wb") as fp:
        fp.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fp.write(labels.astype(np.uint8).tobytes())


def write_edge_list(t: Topology, fp: IO[str]) -> None:
    """Serialize as plain text: first line "m n", then 1-indexed "i j" lines."""
    fp.write(f"{t.m} {t.n}\n")
    for i, j in t.edges:
        fp.write(f"{i + 1} {j + 1}\n")
