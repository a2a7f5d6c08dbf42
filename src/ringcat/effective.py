"""Two-level reduction of the flow-state anti-crossing.

Near phase twist phi = pi the zero-flow state |N,0,0> and the single
clockwise-flow state |0,N,0> are quasi-degenerate.  Eliminating every other
flow state yields an effective 2x2 model

    [[E0 + eps, v01], [conj(v01), E0 - eps]]

with detuning eps(phi) = J N - 2 J N cos(phi/3) and an effective coupling
v01 obtained either by exact elimination (resolvent / partitioning) or by a
perturbative sum over coupling paths through intermediate states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .basis import FockBasis
from .errors import (
    NearResonantIntermediateError,
    UnsupportedConfigurationError,
)
from .hamiltonians import HermitianOperator, ModelParams, _flow_interaction_coefficients, _hermitian, _levels_above, flow_sweep
from .util import write_csv

#: An eliminated state closer to the working energy than this (relative to the
#: operator scale) makes the resolvent ill-conditioned.
RESONANCE_RTOL = 1e-10


def _check_resonance(gaps: np.ndarray, lam: float, scale: float, state_of) -> None:
    """Raise on the eliminated level nearest to lam if its gap ``gaps[i]`` = lam - e_i
    is below RESONANCE_RTOL * scale; ``state_of(i)`` names level i."""
    if gaps.size == 0:
        return
    nearest = int(np.argmin(np.abs(gaps)))
    if abs(gaps[nearest]) >= RESONANCE_RTOL * scale:
        return
    occ = state_of(nearest)
    raise NearResonantIntermediateError(
        f"eliminated state {occ} lies within {abs(gaps[nearest]):.3e} of the working energy {lam:.12g}",
        occupation=occ if isinstance(occ, tuple) else None,
    )


def epsilon_of_phi(params: ModelParams, phi: float) -> float:
    """Detuning of the zero-flow level from its crossing-point energy.

    eps(phi) = J N - 2 J N cos(phi/3); zero at phi = pi, negative at phi = 0,
    slope J N / sqrt(3) at the crossing.  Requires equal tunnelling.
    """
    if not params.equal_j:
        raise UnsupportedConfigurationError("the two-level detuning eps(phi) requires equal tunnelling")
    jn = params.j1 * params.n
    return jn - 2.0 * jn * math.cos(phi / 3.0)


@dataclass
class TwoLevelModel:
    """Prediction of the effective 2x2 anti-crossing model.

    ``predicted_energies`` is (E0 - r, E0 + r) with r = sqrt(eps^2 + |v01|^2);
    ``predicted_ratio`` is the signed ground-state amplitude ratio a0/a1 of
    the zero-flow and clockwise-flow components, -v01 / (eps + r); the
    excited branch uses the opposite sign of r.
    """

    e0: float
    eps: float
    v01: complex
    lam: float | None = None
    degenerate: bool = field(init=False, default=False)
    predicted_energies: tuple[float, float] = field(init=False, default=(0.0, 0.0))
    predicted_ratio: complex = field(init=False, default=0j)
    predicted_ratio_excited: complex = field(init=False, default=0j)

    def __post_init__(self):
        r = math.hypot(self.eps, abs(self.v01))
        self.predicted_energies = (self.e0 - r, self.e0 + r)
        self.degenerate = r == 0.0
        self.predicted_ratio = self._branch_ratio(+r)
        self.predicted_ratio_excited = self._branch_ratio(-r)

    def _branch_ratio(self, signed_r: float) -> complex:
        if self.degenerate:
            return complex(float("nan"), float("nan"))
        if self.eps * signed_r < 0.0 and self.v01 != 0:
            # eps + signed_r cancels (to exactly 0 when |v01| << |eps|); use
            # (eps + r)(eps - r) = -|v01|^2 instead.
            return self.v01 * (self.eps - signed_r) / abs(self.v01) ** 2
        den = self.eps + signed_r
        if den == 0.0:
            return complex(float("inf"))
        return -self.v01 / den


def two_level_predict(e0: float, eps: float, v01: complex, lam: float | None = None) -> TwoLevelModel:
    """Evaluate the 2x2 model for a given detuning and coupling."""
    return TwoLevelModel(e0=float(e0), eps=float(eps), v01=complex(v01), lam=lam)


# ---------------------------------------------------------------------------
# Exact elimination (partitioning at the ground level of the target block)
# ---------------------------------------------------------------------------


@dataclass
class LowdinResult:
    """Effective coupling from exact elimination of the intermediate space."""

    v01: complex
    lam: float
    heff: np.ndarray  # the 2x2 effective matrix at lam
    indices: np.ndarray  # the targets P, then the eliminated states Q
    x: np.ndarray  # (H_QQ - lam)^{-1} H_QP: an eigenvector at lam has c_Q = -x c_P


def default_flow_targets(basis: FockBasis) -> tuple[int, int]:
    """Indices of |N,0,0> and |0,N,0> in a flow basis."""
    n = basis.n
    return basis.index((n, 0, 0)), basis.index((0, n, 0))


def _elimination_space(operator: HermitianOperator, targets: tuple[int, int]) -> np.ndarray:
    """Indices eliminated by the reduction: the rest of the block of
    ``operator.sectors`` that holds both targets, or of the whole basis when
    no block does."""
    t0, t1 = targets
    shared = [s for s in operator.sectors if t0 in s and t1 in s]
    block = shared[0] if shared else np.arange(operator.dimension)
    return block[(block != t0) & (block != t1)]


def lowdin_coupling(operator: HermitianOperator, targets: tuple[int, int] | None = None) -> LowdinResult:
    """Exact effective coupling between two flow states.

    The working energy lam is the lowest level of the block made of the target
    pair P and the eliminated states Q, and

        H_eff = H_PP - H_PQ (H_QQ - lam)^{-1} H_QP

    has lam as its lowest eigenvalue (Loewdin partitioning).  By Cauchy
    interlacing every level of H_QQ lies at or above lam; unless
    ``_levels_above`` proves them above lam + RESONANCE_RTOL * scale, a
    near-resonant-intermediate error is raised.  The result keeps the solve
    x = (H_QQ - lam)^{-1} H_QP, which gives the eigenvector at lam.
    """
    basis = operator.basis
    if basis.interpretation != "flow":
        raise UnsupportedConfigurationError("elimination expects a flow-basis operator")
    if targets is None:
        targets = default_flow_targets(basis)
    h = operator.matrix
    margin = RESONANCE_RTOL * max(1.0, float(np.max(np.abs(h))))
    block = np.concatenate([targets, _elimination_space(operator, targets)])
    h_block = h[np.ix_(block, block)]
    lam = float(np.linalg.eigvalsh(h_block)[0])
    h_pp, h_qq, h_qp = h_block[:2, :2], h_block[2:, 2:], h_block[2:, :2]
    if not _levels_above(h_qq, lam + margin):
        raise NearResonantIntermediateError(
            f"an eliminated level lies within {margin:.3e} of the working energy {lam:.12g}"
        )
    np.fill_diagonal(h_qq, np.diagonal(h_qq) - (lam + margin) + margin)
    x = np.linalg.solve(h_qq, h_qp)
    heff = h_pp - h_qp.conj().T @ x
    return LowdinResult(v01=complex(heff[0, 1]), lam=lam, heff=heff, indices=block, x=x)


# ---------------------------------------------------------------------------
# Coupling graph and perturbative path sum
# ---------------------------------------------------------------------------

#: Paths are weighed, and path prefixes extended, in blocks of at most this many.
_BLOCK = 256
#: Entries of the loop matrices stacked into one batched determinant.
_BLOCK_ENTRIES = 1 << 17
#: ``simple_paths`` extends at most this many path prefixes before it gives up;
#: ``paths --n 12 --max-order 11`` extends about 2.2e4.
_MAX_PREFIXES = 5_000_000


def _entries(matrix: np.ndarray) -> dict[tuple[int, int], complex]:
    """The nonzero entries of ``matrix`` as Python numbers keyed (row, column)."""
    rows, cols = np.nonzero(matrix)
    return dict(zip(zip(rows.tolist(), cols.tolist()), matrix[rows, cols].tolist()))


@dataclass(eq=False)
class CouplingGraph:
    """States, diagonal energies and off-diagonal couplings of a flow operator.

    ``coupling`` is the only store of the edges: the matrix element at [i, j]
    on each edge, with the conjugate of the upper triangle below it, and zero
    elsewhere.  The neighbour lists are CSR arrays derived from it, which the
    block enumeration of paths indexes into; ``edges``, ``edge_value``,
    ``neighbors`` and ``connected_component`` are views.
    """

    basis: FockBasis | None
    diagonal: np.ndarray
    coupling: np.ndarray
    _indptr: np.ndarray = field(init=False, repr=False)
    _indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows, self._indices = np.nonzero(self.coupling)
        self._indptr = np.searchsorted(rows, np.arange(len(self.diagonal) + 1))

    @property
    def edges(self) -> dict[tuple[int, int], complex]:
        """The couplings keyed (i, j) with i < j."""
        return _entries(np.triu(self.coupling, k=1))

    def describe_state(self, i: int):
        return self.basis.states[i] if self.basis is not None else i

    def edge_value(self, i: int, j: int) -> complex:
        return self.coupling[i, j].item()

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(self._indices[self._indptr[i] : self._indptr[i + 1]].tolist())

    def connected_component(self, start: int) -> set[int]:
        return set(np.flatnonzero(np.isfinite(self._hops_to(start))).tolist())

    def _steps(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owner, neighbour) pairs of every neighbour of each ``nodes[owner]``,
        in order of ``nodes`` and then ascending."""
        first = self._indptr[nodes]
        degree = self._indptr[nodes + 1] - first
        owner = np.repeat(np.arange(len(nodes)), degree)
        within = np.arange(len(owner)) - np.repeat(np.cumsum(degree) - degree, degree)
        return owner, self._indices[first[owner] + within]

    def _hops_to(self, goal: int) -> np.ndarray:
        """Fewest edges from each state to ``goal`` (inf where it cannot reach it)."""
        hops = np.full(len(self.diagonal), np.inf)
        hops[goal] = 0
        frontier = np.array([goal], dtype=np.intp)
        while frontier.size:
            _, reached = self._steps(frontier)
            level = hops[frontier[0]] + 1
            frontier = np.unique(reached[np.isinf(hops[reached])])
            hops[frontier] = level
        return hops

    def simple_paths(self, start: int, goal: int, max_intermediates: int) -> Iterator[tuple[int, ...]]:
        """Yield simple paths start -> goal with at most ``max_intermediates``
        states strictly between the endpoints, in lexicographic order (the
        depth-first order over ascending neighbours).

        Prefixes are extended one step at a time, in blocks of at most
        ``_BLOCK`` held on a stack, so memory stays bounded by depth times
        block size.  A step is taken only if the goal stays within reach,
        counted in hops, of the intermediates left.  Extending more than
        ``_MAX_PREFIXES`` prefixes raises an unsupported-configuration error.
        """
        if start == goal:
            return
        hops = self._hops_to(goal)
        found: list[tuple[int, ...]] = []
        stack = [np.array([[start]], dtype=np.intp)]
        extended = 0
        while stack:
            prefixes = stack.pop()
            extended += len(prefixes)
            if extended > _MAX_PREFIXES:
                raise UnsupportedConfigurationError(
                    f"path enumeration exceeds {_MAX_PREFIXES} path prefixes; use a lower --max-order"
                )
            owner, step = self._steps(prefixes[:, -1])
            at_goal = step == goal
            if at_goal.any():
                done = np.column_stack([prefixes[owner[at_goal]], step[at_goal]])
                found += map(tuple, done.tolist())
            # The new prefix holds len(prefix) intermediates, and the goal
            # needs at least hops - 1 more.
            keep = np.flatnonzero(~at_goal & (hops[step] <= max_intermediates - prefixes.shape[1] + 1))
            keep = keep[(prefixes[owner[keep]] != step[keep, None]).all(axis=1)]
            longer = np.column_stack([prefixes[owner[keep]], step[keep]])
            stack += (longer[i : i + _BLOCK] for i in range(0, len(longer), _BLOCK))
        found.sort()
        yield from found


def build_coupling_graph(operator: HermitianOperator | np.ndarray, tol: float = 1e-14) -> CouplingGraph:
    """Graph of states joined by matrix elements larger than ``tol``.

    Accepts a flow-basis operator or any dense Hermitian matrix (useful for
    explicit few-state models).
    """
    if isinstance(operator, HermitianOperator):
        h, basis = operator.matrix, operator.basis
    else:
        h, basis = _hermitian(operator), None
    rows, cols = np.nonzero(np.triu(np.abs(h) > tol, k=1))
    values = h[rows, cols].astype(complex)
    coupling = np.zeros(h.shape, dtype=complex)
    coupling[rows, cols] = values
    coupling[cols, rows] = values.conj()
    return CouplingGraph(basis=basis, diagonal=np.real(np.diag(h)).copy(), coupling=coupling)


def _loop_matrix(graph: CouplingGraph, gaps: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(lam - H) / (lam - e_col) over ``nodes``: 1 on the diagonal,
    -V_ij / (lam - e_j) on each edge, 0 elsewhere.  The loop matrix of a
    subset of ``nodes`` is the submatrix on that subset."""
    v = graph.coupling[np.ix_(nodes, nodes)]
    m = np.eye(len(nodes), dtype=complex)
    row, col = np.nonzero(v)
    m[row, col] = [-edge / gap for edge, gap in zip(v[row, col].tolist(), gaps[nodes[col]].tolist())]
    return m


def _loop_factors(loop: np.ndarray, eliminated: np.ndarray, intermediates: np.ndarray) -> np.ndarray:
    """Loop determinants of the eliminated states off each path, for paths
    with ``intermediates`` rows of equal length, where ``loop`` is the loop
    matrix of all of ``eliminated``: one batched determinant per block of its
    submatrices."""
    off_path = (eliminated[None, :, None] != intermediates[:, None, :]).all(axis=2)
    size = len(eliminated) - intermediates.shape[1]
    factors = np.ones(len(intermediates), dtype=complex)
    if size == 0:
        return factors
    kept = np.broadcast_to(np.arange(len(eliminated)), off_path.shape)[off_path].reshape(-1, size)
    block = max(1, _BLOCK_ENTRIES // size**2)
    for lo in range(0, len(kept), block):
        rows = kept[lo : lo + block]
        factors[lo : lo + block] = np.linalg.det(loop[rows[:, :, None], rows[:, None, :]])
    return factors


def _check_levels(graph: CouplingGraph, nodes: np.ndarray, gaps: np.ndarray, lam: float) -> None:
    """Raise on the state of ``nodes`` whose level is nearest to, and
    near-resonant with, lam; ``gaps`` holds lam - e for every state."""
    scale = max(1.0, float(np.max(np.abs(graph.diagonal))))
    _check_resonance(gaps[nodes], lam, scale, lambda i: graph.describe_state(int(nodes[i])))


def _eliminated(graph: CouplingGraph, targets: tuple[int, int]) -> np.ndarray | None:
    """The states connected to the targets, without the targets, ascending;
    None when no path joins the targets."""
    t0, t1 = targets
    hops = graph._hops_to(t0)
    if np.isinf(hops[t1]):
        return None
    hops[[t0, t1]] = np.inf
    return np.flatnonzero(np.isfinite(hops))


def weighted_paths(
    graph: CouplingGraph, targets: tuple[int, int], lam: float, max_order: int
) -> Iterator[tuple[tuple[int, ...], complex, complex]]:
    """Yield (path, bare weight, loop factor) for each term of ``path_coupling``,
    in the order of ``CouplingGraph.simple_paths``.

    The bare weight is the path's contribution without the loop factor: its
    edges multiplied in path order, then the gap of each intermediate divided
    out in path order, in Python complex arithmetic.  Each path's
    intermediates and the eliminated states off it together make up the whole
    eliminated component, so when a path exists that component is checked for
    near-resonant levels once.  The loop factors are weighed in blocks, those
    of each order together.
    """
    t0, t1 = targets
    if t0 == t1:
        raise UnsupportedConfigurationError("path coupling needs two distinct targets")
    eliminated = _eliminated(graph, targets)
    if eliminated is None:
        return
    gaps = lam - graph.diagonal
    paths = graph.simple_paths(t0, t1, max_intermediates=max_order)
    block = list(itertools.islice(paths, _BLOCK))
    if block:
        _check_levels(graph, eliminated, gaps, lam)
        loop = _loop_matrix(graph, gaps, eliminated)
        edge, gap = _entries(graph.coupling), gaps.tolist()
    while block:
        weights = []
        for path in block:
            weight = 1.0 + 0j
            for a, b in zip(path, path[1:]):
                weight *= edge[a, b]
            for node in path[1:-1]:
                weight /= gap[node]
            weights.append(weight)
        lengths = np.array([len(path) for path in block])
        factors = np.empty(len(block), dtype=complex)
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            nodes = np.array([block[i] for i in rows], dtype=np.intp)
            factors[rows] = _loop_factors(loop, eliminated, nodes[:, 1:-1])
        yield from zip(block, weights, factors.tolist())
        block = list(itertools.islice(paths, _BLOCK))


def path_coupling(graph: CouplingGraph, targets: tuple[int, int], lam: float, max_order: int) -> complex:
    """Perturbative coupling as a sum over simple paths between the targets.

    Each path with intermediates (i, ..., p) contributes

        V_{0i} V_{i.} ... V_{p1} / [(lam - e_i) ... (lam - e_p)]

    multiplied by the loop-correction factor of the eliminated states off the
    path (so a direct edge also picks up terms like
    -V_{01} V_{23} V_{32} / ((lam - e_2)(lam - e_3))).  ``max_order`` caps the
    number of intermediate states per path; the direct edge is order zero.
    Summed to all orders this reproduces the exact elimination coupling up to
    overall resolvent normalisation.
    """
    return sum((weight * factor for _, weight, factor in weighted_paths(graph, targets, lam, max_order)), 0j)


def path_normalisation(graph: CouplingGraph, targets: tuple[int, int], lam: float) -> complex:
    """Loop determinant of the eliminated states connected to the targets:
    det(lam - H) over them, normalised by prod(lam - diagonal).

    Summed to all orders, ``path_coupling`` equals the elimination coupling
    times this factor (Loewdin partitioning written out path by path), so
    dividing by it normalises the path sum.
    """
    eliminated = _eliminated(graph, targets)
    if eliminated is None or len(eliminated) == 0:
        return 1.0 + 0j
    gaps = lam - graph.diagonal
    _check_levels(graph, eliminated, gaps, lam)
    return complex(np.linalg.det(_loop_matrix(graph, gaps, eliminated)))


# ---------------------------------------------------------------------------
# Report over a grid of phase offsets
# ---------------------------------------------------------------------------


@dataclass
class EffectiveTable:
    """Two-level machinery evaluated on a grid of offsets dphi from pi."""

    dphis: np.ndarray
    eps: np.ndarray
    v01_abs: np.ndarray
    ratio_analytic: np.ndarray
    e_minus: np.ndarray
    e_plus: np.ndarray

    def rows(self):
        columns = (self.dphis, self.eps, self.v01_abs, self.ratio_analytic, self.e_minus, self.e_plus)
        return zip(*(column.tolist() for column in columns))

    def to_csv(self, path, comment: str | None = None) -> None:
        header = ("dphi", "eps", "v01_abs", "ratio_analytic", "E_minus", "E_plus")
        write_csv(path, header, self.rows(), comment=comment)


def effective_point(
    params: ModelParams, dphi: float, operator: HermitianOperator | None = None, elimination: LowdinResult | None = None
) -> TwoLevelModel:
    """Two-level prediction at phase twist pi + dphi.

    The coupling and the centre energy E0 come from ``elimination`` when it is
    given, and otherwise from exact elimination at the working phase, in
    ``operator`` (the flow Hamiltonian at pi + dphi) when it is given and in a
    newly built one otherwise.  The detuning is eps(phi),
    which needs equal tunnelling, plus half the self-energy gap of the
    targets, (c_0 - c_1) N (N - 1), which is zero for the contact interaction.
    """
    phi = math.pi + dphi
    c_self = _flow_interaction_coefficients(params)[0]
    eps = epsilon_of_phi(params, phi) + (c_self[0] - c_self[1]) * params.n * (params.n - 1) / 2.0
    if elimination is None:
        elimination = lowdin_coupling(flow_sweep(params).at(phi) if operator is None else operator)
    e0 = 0.5 * float(np.real(elimination.heff[0, 0] + elimination.heff[1, 1]))
    return two_level_predict(e0, eps, elimination.v01, lam=elimination.lam)


def effective_report(params: ModelParams, dphi_grid: Sequence[float]) -> EffectiveTable:
    """Tabulate the two-level machinery over a grid of offsets from pi.

    The flow Hamiltonian is built once for the report.  Like
    ``effective_point``, it requires equal tunnelling.
    """
    dphis = np.asarray(list(dphi_grid), dtype=float)
    sweep = flow_sweep(params)
    models = [effective_point(params, d, operator=sweep.at(math.pi + d)) for d in dphis]
    return EffectiveTable(
        dphis=dphis,
        eps=np.array([m.eps for m in models]),
        v01_abs=np.array([abs(m.v01) for m in models]),
        ratio_analytic=np.array([abs(m.predicted_ratio) for m in models]),
        e_minus=np.array([m.predicted_energies[0] for m in models]),
        e_plus=np.array([m.predicted_energies[1] for m in models]),
    )
