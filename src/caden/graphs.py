"""Communication graph model: topology, constraint residual, Laplacian spectrum.

Agents are 0-indexed internally; the plain-text edge-list format is 1-indexed.
Edges are canonically ordered (i < j, lexicographic) so that every per-edge
vector built elsewhere has a deterministic layout.
``edge_ends`` is the one definition of each agent's incident-edge order
(ascending edge = neighbor order); ``incident_sums`` sums per-edge values in
it, and every per-agent sum over incident edges goes through the two.
``ordered_sums`` is the one grouped sum: each row adds its terms one at a
time in list order, as ``np.add.at`` would, with one vectorised add per
rank; ``incident_sums`` and the subproblems' anchor sums use it.  Which
term each rank adds to which row is resolved into a ``SumPlan``; a
topology resolves its incident-edge order and that order's plan once, on
first use (``Topology.incidence``), as read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from .config import check_value
from .errors import DisconnectedGraphError, GraphSamplingError
from .losses import rowdot

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
        degrees: per-agent degree d_i, the number of edges at agent i.
        d_max: maximum degree.
        src, dst: the smaller and larger endpoint of every edge, as index
            arrays for vectorized per-edge math.
        resamples: how many disconnected samples were rejected before this
            topology was produced (0 for deterministic constructions).
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    d_max: int
    src: np.ndarray = field(compare=False, repr=False)
    dst: np.ndarray = field(compare=False, repr=False)
    resamples: int = 0

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def laplacian(self) -> np.ndarray:
        """Dense m-by-m graph Laplacian L = D - A."""
        lap = np.diag(np.array(self.degrees, dtype=float))
        lap[self.src, self.dst] = lap[self.dst, self.src] = -1.0
        return lap

    @cached_property
    def incidence(self) -> Incidence:
        """The ``edge_ends`` order and its ``SumPlan``, resolved on first use
        and kept, every array read-only."""
        edge = np.arange(self.n)
        agent, edge = np.concatenate([self.dst, self.src]), np.concatenate([edge, edge])
        plan = sum_plan(agent, self.m)
        for a in (agent, edge, plan.counts, *(a for rank in plan.ranks for a in rank)):
            a.setflags(write=False)
        return Incidence(agent, edge, plan)


@dataclass(frozen=True)
class SpectralSummary:
    """Laplacian spectrum summary: largest and second-smallest eigenvalues."""

    lambda_max: float
    lambda_min: float
    d_max: int


def _canonical_edges(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in edges))


def _is_connected(m: int, edges: Sequence[tuple[int, int]]) -> bool:
    neighbors: list[list[int]] = [[] for _ in range(m)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
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
        ConfigError: naming ``topology.m`` for fewer than 2 agents.
        ValueError: on self-loops, duplicate edges, or out-of-range endpoints.
        DisconnectedGraphError: if the graph is not connected; with fewer
            than m - 1 edges, before any per-agent list is built.
    """
    check_value("topology.m", m)
    canon = _canonical_edges(edges)
    for i, j in canon:
        if i == j:
            raise ValueError(f"self-loop at agent {i}")
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"edge ({i},{j}) out of range for m={m}")
    if len(set(canon)) != len(canon):
        raise ValueError("duplicate edges")
    if len(canon) < m - 1 or not _is_connected(m, canon):
        raise DisconnectedGraphError(f"graph on {m} agents with {len(canon)} edges is disconnected")
    src, dst = np.array(canon, dtype=np.intp).reshape(-1, 2).T
    degrees = tuple(np.bincount(np.concatenate([src, dst]), minlength=m).tolist())
    return Topology(
        m=m,
        edges=canon,
        degrees=degrees,
        d_max=max(degrees),
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
        ConfigError: naming ``topology.edge_prob`` or ``topology.m``.
        GraphSamplingError: after ``max_retries`` disconnected samples, which
            signals that ``edge_prob`` is too small for ``m``.
    """
    check_value("topology.edge_prob", edge_prob)
    # Every pair i < j, ordered by i then j.
    first, second = np.triu_indices(m, 1)
    for attempt in range(max_retries + 1):
        rng = np.random.default_rng([_GRAPH_STREAM, seed, attempt])
        mask = rng.random(len(first)) < edge_prob
        edges = list(zip(first[mask].tolist(), second[mask].tolist()))
        try:
            return from_edges(m, edges, resamples=attempt)
        except DisconnectedGraphError:
            continue
    raise GraphSamplingError(
        f"no connected sample in {max_retries} retries "
        f"(m={m}, edge_prob={edge_prob}): edge_prob too small"
    )


def laplacian_spectrum(t: Topology) -> SpectralSummary:
    """Largest and second-smallest Laplacian eigenvalues via a symmetric solve.

    Raises:
        DisconnectedGraphError: if the second-smallest eigenvalue is
            <= CONNECTIVITY_TOL.
    """
    evals = np.linalg.eigvalsh(t.laplacian())
    lam_min = float(evals[1])
    lam_max = float(evals[-1])
    if lam_min <= CONNECTIVITY_TOL:
        raise DisconnectedGraphError(
            f"second-smallest Laplacian eigenvalue {lam_min} <= {CONNECTIVITY_TOL}"
        )
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


class SumPlan(NamedTuple):
    """How ``ordered_sums`` adds (N, ...) terms into rows: each term's
    ``owner`` row, the (rows,) ``counts`` of terms per row, and per rank r
    the rows that hold an r-th term with that term's index."""

    owner: np.ndarray
    counts: np.ndarray
    ranks: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Incidence:
    """A topology's incident-edge order: ``agent[q]`` and ``edge[q]`` are
    the agent and edge of end q (``edge_ends``), and ``sums`` is the
    ``SumPlan`` over ``agent``, the plan of every per-agent incident sum."""

    agent: np.ndarray
    edge: np.ndarray
    sums: SumPlan


def edge_ends(t: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every edge as (agent, edge id) index arrays, each agent's
    in ascending edge order: larger ends first, since an agent's edges to
    smaller neighbors precede its edges to larger ones.  Resolved once per
    topology; the arrays are read-only."""
    return t.incidence.agent, t.incidence.edge


def sum_plan(owner, rows: int) -> SumPlan:
    """The ``SumPlan`` of the (N,) ``owner`` rows, out of ``rows``; a plan is
    returned as is."""
    if isinstance(owner, SumPlan):
        return owner
    owner = np.asarray(owner, dtype=np.intp)
    counts = np.bincount(owner, minlength=rows)
    # Row i's terms, in list order, are by_owner[start[i]:start[i] + counts[i]].
    by_owner = np.argsort(owner, kind="stable")
    start = np.cumsum(counts) - counts
    ranks = []
    for r in range(counts.max(initial=0)):
        at = np.flatnonzero(counts > r)
        ranks.append((at, by_owner[start[at] + r]))
    return SumPlan(owner, counts, tuple(ranks))


def ordered_sums(owner, terms: np.ndarray, rows: int) -> np.ndarray:
    """(rows, ...) sums of the (N, ...) ``terms`` by their (N,) ``owner``
    rows, or by a ``SumPlan`` of them.  Each sum starts at 0 and adds its
    row's terms one at a time in list order, the bits ``np.add.at`` gives.
    Step r adds every row's r-th term at once, so a sum costs one vectorised
    add per rank, not one per term."""
    plan = sum_plan(owner, rows)
    out = np.zeros((len(plan.counts), *terms.shape[1:]))
    for at, term in plan.ranks:
        out[at] += terms[term]
    return out


def incident_sums(t: Topology, at_src: np.ndarray, at_dst: np.ndarray) -> np.ndarray:
    """(m, ...) per-agent sums of the incident edges' values: ``at_src[k]``
    at edge k's smaller end, ``at_dst[k]`` at its larger one.  Each sum
    starts at 0 and adds one term at a time in ``edge_ends`` order, through
    the topology's own ``SumPlan``."""
    return ordered_sums(t.incidence.sums, np.concatenate([at_dst, at_src]), t.m)


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
    acc = incident_sums(t, xm[t.src] - z, xm[t.dst] - z)
    # A running total in agent order.
    mid = float(np.cumsum(rowdot(acc, acc))[-1])
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
