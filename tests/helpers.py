"""Shared test oracles: finite differences, dense constraint matrices,
random curvature factories, the midpoint form of the residual V."""

from __future__ import annotations

import numpy as np

from caden.graphs import Topology, edge_midpoints


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
