"""Communication graph model: topology, constraint residual, Laplacian spectrum.

Agents are 0-indexed internally; the plain-text edge-list format is 1-indexed.
Edges are canonically ordered (i < j, lexicographic) so that every per-edge
vector built elsewhere has a deterministic layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, GraphSamplingError

# Stream tag for graph sampling; keeps the RNG draws here independent of every
# other seeded component.
_GRAPH_STREAM = 101

CONNECTIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Topology:
    """Undirected connected communication graph.

    Attributes:
        m: number of agents.
        edges: canonically ordered (i, j) pairs with i < j.
        neighbors: per-agent neighbor tuples, ascending.
        degrees: per-agent degree d_i = len(neighbors[i]).
        d_max: maximum degree.
        incident_edges: per-agent ids of the edges touching it, ascending
            (which is ascending neighbor order under the canonical ordering).
        src, dst: the smaller and larger endpoint of every edge, as index
            arrays for vectorized per-edge math.
        resamples: how many disconnected samples were rejected before this
            topology was produced (0 for deterministic constructions).
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    d_max: int
    incident_edges: tuple[np.ndarray, ...] = field(compare=False, repr=False)
    src: np.ndarray = field(compare=False, repr=False)
    dst: np.ndarray = field(compare=False, repr=False)
    resamples: int = 0

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def laplacian(self) -> np.ndarray:
        """Dense m-by-m graph Laplacian L = D - A."""
        lap = np.zeros((self.m, self.m))
        for i, j in self.edges:
            lap[i, j] -= 1.0
            lap[j, i] -= 1.0
            lap[i, i] += 1.0
            lap[j, j] += 1.0
        return lap

    def incident(self, i: int) -> list[tuple[int, int, int]]:
        """Edges touching agent i as (edge index, neighbor, endpoint side) in
        edge-index order; side 0 means i is the edge's smaller endpoint."""
        return [
            (int(k), j, int(i > j)) for k, j in zip(self.incident_edges[i], self.neighbors[i])
        ]


@dataclass(frozen=True)
class SpectralSummary:
    """Laplacian spectrum summary: largest and second-smallest eigenvalues."""

    lambda_max: float
    lambda_min: float
    d_max: int


def _canonical_edges(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in edges))


def _is_connected(m: int, neighbors: Sequence[Sequence[int]]) -> bool:
    if m == 0:
        return False
    seen = [False] * m
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == m


def from_edges(m: int, edges: Iterable[tuple[int, int]], resamples: int = 0) -> Topology:
    """Build a validated topology from an edge list.

    Raises:
        ValueError: on self-loops, duplicate edges, or out-of-range endpoints.
        DisconnectedGraphError: if the graph is not connected.
    """
    canon = _canonical_edges(edges)
    for i, j in canon:
        if i == j:
            raise ValueError(f"self-loop at agent {i}")
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"edge ({i},{j}) out of range for m={m}")
    if len(set(canon)) != len(canon):
        raise ValueError("duplicate edges")
    adj: list[list[int]] = [[] for _ in range(m)]
    for i, j in canon:
        adj[i].append(j)
        adj[j].append(i)
    if not _is_connected(m, adj):
        raise DisconnectedGraphError(f"graph on {m} agents with {len(canon)} edges is disconnected")
    neighbors = tuple(tuple(sorted(a)) for a in adj)
    degrees = tuple(len(a) for a in neighbors)
    incident: list[list[int]] = [[] for _ in range(m)]
    for k, (i, j) in enumerate(canon):
        incident[i].append(k)
        incident[j].append(k)
    src, dst = np.array(canon, dtype=np.intp).reshape(-1, 2).T
    return Topology(
        m=m,
        edges=canon,
        neighbors=neighbors,
        degrees=degrees,
        d_max=max(degrees),
        incident_edges=tuple(np.array(k, dtype=np.intp) for k in incident),
        src=src,
        dst=dst,
        resamples=resamples,
    )


def complete_graph(m: int) -> Topology:
    """K_m."""
    return from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def path_graph(m: int) -> Topology:
    """Path 0-1-...-(m-1)."""
    return from_edges(m, [(i, i + 1) for i in range(m - 1)])


def ring_graph(m: int) -> Topology:
    """Cycle on m agents; uniform degree 2 for m >= 3."""
    if m == 2:
        return complete_graph(2)
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def build_random_graph(
    m: int, edge_prob: float, seed: int, max_retries: int = 1000
) -> Topology:
    """Sample a connected Erdos-Renyi graph: each pair is an edge independently
    with probability ``edge_prob``.

    Disconnected samples are rejected and resampled with an incremented seed
    derivation, which keeps the distribution conditional-on-connected.  The
    number of rejected samples is recorded on the returned topology.

    Raises:
        GraphSamplingError: after ``max_retries`` disconnected samples, which
            signals that ``edge_prob`` is too small for ``m``.
    """
    if m < 2:
        raise ValueError("need at least 2 agents")
    if not (0.0 < edge_prob <= 1.0):
        raise ValueError("edge_prob must be in (0, 1]")
    n_pairs = m * (m - 1) // 2
    for attempt in range(max_retries + 1):
        rng = np.random.default_rng([_GRAPH_STREAM, seed, attempt])
        mask = rng.random(n_pairs) < edge_prob
        edges = []
        k = 0
        for i in range(m):
            for j in range(i + 1, m):
                if mask[k]:
                    edges.append((i, j))
                k += 1
        try:
            return from_edges(m, edges, resamples=attempt)
        except DisconnectedGraphError:
            continue
    raise GraphSamplingError(
        f"no connected sample in {max_retries} retries "
        f"(m={m}, edge_prob={edge_prob}): edge_prob too small"
    )


def laplacian_spectrum(t: Topology, tol: float = CONNECTIVITY_TOL) -> SpectralSummary:
    """Largest and second-smallest Laplacian eigenvalues via a symmetric solve.

    Raises:
        DisconnectedGraphError: if the second-smallest eigenvalue is <= tol.
    """
    evals = np.linalg.eigvalsh(t.laplacian())
    lam_min = float(evals[1])
    lam_max = float(evals[-1])
    if lam_min <= tol:
        raise DisconnectedGraphError(f"second-smallest Laplacian eigenvalue {lam_min} <= {tol}")
    return SpectralSummary(lambda_max=lam_max, lambda_min=lam_min, d_max=t.d_max)


def _as_matrix(vectors: Sequence[np.ndarray] | np.ndarray, rows: int, what: str) -> np.ndarray:
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != rows:
        raise ValueError(f"expected {rows} {what} vectors of equal dimension, got shape {mat.shape}")
    return mat

def constraint_residual(
    t: Topology,
    x: Sequence[np.ndarray] | np.ndarray,
    z: Sequence[np.ndarray] | np.ndarray,
) -> float:
    """Squared norm of the consensus constraint violation.

    Equals sum over edges k=(i,j) of ||x_i - z_k||^2 + ||x_j - z_k||^2, i.e.
    the squared residual of the stacked endpoint constraints, computed
    edge-wise without materializing the lifted matrices.
    """
    xm = _as_matrix(x, t.m, "agent")
    zm = _as_matrix(z, t.n, "edge")
    if xm.shape[1] != zm.shape[1]:
        raise ValueError(f"dimension mismatch: x has d={xm.shape[1]}, z has d={zm.shape[1]}")
    return float(((xm[t.src] - zm) ** 2).sum() + ((xm[t.dst] - zm) ** 2).sum())


def edge_midpoints(t: Topology, x: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Per-edge midpoints (x_i + x_j) / 2 as an (n, d) array."""
    xm = _as_matrix(x, t.m, "agent")
    return 0.5 * (xm[t.src] + xm[t.dst])


def neighbor_disagreement_bounds(
    t: Topology,
    x: Sequence[np.ndarray] | np.ndarray,
    spectral: SpectralSummary | None = None,
) -> tuple[float, float, float]:
    """Sandwich bounds on the aggregate neighbor-mean disagreement.

    With z fixed at the edge midpoints, returns the triple

        (lam * r,  sum_i ||sum_{j in N_i} (x_i - z_ij)||^2,  d_max * r)

    where r = ||Ax - Bz||^2 is the constraint residual and
    lam = lambda_min^2 / (2 lambda_max).  Callers assert lower <= mid <= upper.
    """
    if spectral is None:
        spectral = laplacian_spectrum(t)
    xm = _as_matrix(x, t.m, "agent")
    z = edge_midpoints(t, xm)
    resid = constraint_residual(t, xm, z)
    mid = 0.0
    for i in range(t.m):
        acc = np.zeros(xm.shape[1])
        for k in t.incident_edges[i]:
            acc += xm[i] - z[k]
        mid += float(acc @ acc)
    lam = spectral.lambda_min**2 / (2.0 * spectral.lambda_max)
    return lam * resid, mid, spectral.d_max * resid


def read_edge_list(fp: IO[str]) -> Topology:
    """Parse the plain-text edge-list format: first line "m n", then n
    1-indexed "i j" lines.

    Raises:
        ValueError: on a malformed header or line, a non-integer token, fewer
            than 2 agents, an edge count other than the header's, or an edge
            ``from_edges`` rejects.
        DisconnectedGraphError: if the graph is not connected.
    """
    header = fp.readline().split()
    if len(header) != 2:
        raise ValueError("edge-list header must be 'm n'")
    m, n = int(header[0]), int(header[1])
    if m < 2:
        raise ValueError(f"header declares {m} agents, at least 2 are needed")
    edges = []
    for line in fp:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if len(edges) != n:
        raise ValueError(f"header declares {n} edges, file has {len(edges)}")
    return from_edges(m, edges)


def load_edge_list(path: str) -> Topology:
    with open(path, "r", encoding="ascii") as fp:
        return read_edge_list(fp)
