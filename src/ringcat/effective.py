"""Two-level reduction of the flow-state anti-crossing.

Near phase twist phi = pi the zero-flow state |N,0,0> and the single
clockwise-flow state |0,N,0> are quasi-degenerate.  Eliminating every other
flow state yields an effective 2x2 model

    [[E0 + eps, v01], [conj(v01), E0 - eps]]

with detuning eps(phi) = J N - 2 J N cos(phi/3) and an effective coupling
v01 obtained either by exact elimination (resolvent / partitioning) or by a
perturbative sum over coupling paths through intermediate states.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .basis import FockBasis
from .errors import NearResonantIntermediateError, NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import (
    HermitianOperator, ModelParams, _dense_zeros, _flow_interaction_coefficients, _levels_above, flow_sweep
)
from .util import write_csv

#: An eliminated state within this many times the operator's scale (its largest entry,
#: or its largest diagonal entry in the path sum) of the working energy makes the
#: resolvent ill-conditioned.  The margin scales with H, as every result does.
RESONANCE_RTOL = 1e-10


def epsilon_of_phi(params: ModelParams, phi: float) -> float:
    """Detuning of the zero-flow level from its crossing-point energy.

    eps(phi) = J N - 2 J N cos(phi/3); zero at phi = pi, negative at phi = 0,
    slope J N / sqrt(3) at the crossing.  Requires equal tunnelling.
    """
    if not params.equal_j:
        raise UnsupportedConfigurationError("the two-level detuning eps(phi) requires equal tunnelling")
    jn = params.j1 * params.n
    return jn - 2.0 * jn * math.cos(phi / 3.0)


def branch_vector(eps: float, v01, signed_r: float) -> np.ndarray:
    """Unnormalised eigenvector (c0, c1), in the dtype of ``v01``, of
    [[eps, v01], [conj(v01), -eps]] at -signed_r: (eps - signed_r, conj(v01))
    where exactly one of eps and signed_r is negative, so that eps + signed_r
    may cancel, else (-v01, eps + signed_r).  Neither form squares |v01|."""
    cancels = (eps < 0.0) != (signed_r < 0.0)
    pair = (eps - signed_r, np.conj(v01)) if cancels else (-v01, eps + signed_r)
    return np.array(pair, dtype=np.result_type(v01))


@dataclass
class TwoLevelModel:
    """Prediction of the effective 2x2 anti-crossing model.

    ``predicted_energies`` is (E0 - r, E0 + r) with r = sqrt(eps^2 + |v01|^2);
    ``predicted_ratio`` is the signed ground-state amplitude ratio a0/a1 of
    the zero-flow and clockwise-flow components, c0 / c1 of
    ``branch_vector(eps, v01, r)`` (inf where c1 = 0, nan where r = 0); the
    excited branch uses -r.
    """

    e0: float
    eps: float
    v01: complex
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
        c0, c1 = branch_vector(self.eps, self.v01, signed_r).tolist()
        return c0 / c1 if c1 else complex(math.inf if c0 else math.nan)


def two_level_predict(e0: float, eps: float, v01: complex) -> TwoLevelModel:
    """Evaluate the 2x2 model for a given detuning and coupling."""
    return TwoLevelModel(e0=float(e0), eps=float(eps), v01=complex(v01))


# ---------------------------------------------------------------------------
# Exact elimination (partitioning at the ground level of the target blocks)
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


def _pair_blocks(operator: HermitianOperator) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """(members, block, held) for each block of ``operator``, held when it holds a
    ``default_flow_targets`` state: the blocks that the pair reduction reads.  Every block
    of an operator without a basis is held."""
    pair = default_flow_targets(operator.basis) if operator.basis is not None else ()
    return [(m, h, not pair or any(t in m for t in pair)) for m, h in zip(operator.sectors, operator.blocks)]


def lowdin_coupling(operator: HermitianOperator) -> LowdinResult:
    """Exact effective coupling between two flow states.

    The working energy lam is the lowest level of the blocks of the operator
    that hold a target: the target pair P and the eliminated states Q, the
    rest of those blocks, block by block.  The matrix on P and Q is built from
    those blocks alone, and

        H_eff = H_PP - H_PQ (H_QQ - lam)^{-1} H_QP

    has lam as its lowest eigenvalue (Loewdin partitioning).  By Cauchy
    interlacing every level of H_QQ lies at or above lam; unless
    ``_levels_above`` proves them above lam + RESONANCE_RTOL * ``scale`` (a zero
    operator never passes), a near-resonant-intermediate error is raised.  The
    result keeps the solve x = (H_QQ - lam)^{-1} H_QP, the eigenvector at lam.
    """
    if operator.basis.interpretation != "flow":
        raise UnsupportedConfigurationError("elimination expects a flow-basis operator")
    t0, t1 = targets = default_flow_targets(operator.basis)
    margin = RESONANCE_RTOL * operator.scale
    held = [(members, h) for members, h, held in _pair_blocks(operator) if held]
    space = np.concatenate([members for members, _ in held])
    block = np.concatenate([targets, space[(space != t0) & (space != t1)]])
    where = np.empty(operator.dimension, np.intp)
    where[block] = np.arange(len(block))
    h_block = _dense_zeros(len(block), np.result_type(*operator.blocks))
    for members, h in held:
        h_block[np.ix_(where[members], where[members])] = h
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

#: Paths are weighed in blocks whose loop matrices, stacked for one batched
#: determinant per path length, hold at most this many entries (and at least one path).
_BLOCK_ENTRIES = 1 << 17
#: ``simple_paths`` extends at most this many path prefixes before it gives up;
#: ``paths --n 12 --max-order 11`` extends about 2.2e4.
_MAX_PREFIXES = 5_000_000
#: Matrix elements no larger than this in magnitude join no states of the graph.
EDGE_ATOL = 1e-14


@dataclass(eq=False)
class CouplingGraph:
    """States, diagonal energies and off-diagonal couplings of a flow operator.

    ``edges`` is the only store of the edges: ``edges[i]`` maps each state j
    joined to i, inserted in ascending j, to the matrix element at [i, j];
    below the diagonal it holds the conjugate of the entry above.  The path
    walks follow its keys.
    """

    basis: FockBasis | None
    diagonal: np.ndarray
    edges: list[dict[int, complex]]

    def describe_state(self, i: int):
        return self.basis.states[i] if self.basis is not None else i

    def _hops_to(self, goal: int) -> list[float]:
        """Fewest edges from each state to ``goal`` (inf where it cannot reach it)."""
        hops = [math.inf] * len(self.edges)
        hops[goal] = 0
        reached = [goal]
        for i in reached:  # reached grows behind the loop: a breadth-first walk
            for j in self.edges[i]:
                if hops[j] == math.inf:
                    hops[j] = hops[i] + 1
                    reached.append(j)
        return hops

    def simple_paths(self, start: int, goal: int, max_intermediates: int) -> Iterator[tuple[int, ...]]:
        """Yield simple paths start -> goal with at most ``max_intermediates``
        states strictly between the endpoints, in lexicographic order (the
        depth-first order over ascending neighbours).

        The walk keeps its own stack of one neighbour iterator per state on
        the path, not the call stack, and yields each path as it reaches the
        goal.  A step is taken only if the goal stays within reach, counted in
        hops, of the intermediates left.  Extending more than
        ``_MAX_PREFIXES`` path prefixes raises an unsupported-configuration error.
        """
        if start == goal:
            return
        hops = self._hops_to(goal)
        path, walks, extended = [start], [iter(self.edges[start])], 1
        while walks:
            for step in walks[-1]:
                if step == goal:
                    yield (*path, goal)
                # The longer prefix holds len(path) intermediates, and the
                # goal needs at least hops - 1 more.
                elif hops[step] <= max_intermediates - len(path) + 1 and step not in path:
                    extended += 1
                    if extended > _MAX_PREFIXES:
                        raise UnsupportedConfigurationError(
                            f"path enumeration exceeds {_MAX_PREFIXES} path prefixes; use a lower --max-order"
                        )
                    path.append(step)
                    walks.append(iter(self.edges[step]))
                    break
            else:
                walks.pop()
                path.pop()


def build_coupling_graph(operator: HermitianOperator | np.ndarray) -> CouplingGraph:
    """Graph of states joined by matrix elements larger than ``EDGE_ATOL``, read block
    by block from an operator or a dense matrix, made a one-block ``HermitianOperator``.
    ``diagonal`` comes from every block, the edges only from the blocks that hold a
    ``default_flow_targets`` state (those ``lowdin_coupling`` eliminates on, which hold
    every path between the targets); a matrix or a one-block operator is read whole."""
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    diagonal = np.empty(operator.dimension)
    edges = [{} for _ in range(operator.dimension)]
    for members, h, held in _pair_blocks(operator):
        diagonal[members] = np.real(np.diagonal(h))
        if not held:
            continue
        joined = np.triu(np.abs(h) > EDGE_ATOL, k=1)
        rows, cols = np.nonzero(joined | joined.T)  # row by row, each row's columns ascending
        upper = h[np.minimum(rows, cols), np.maximum(rows, cols)].astype(complex)
        values = np.where(rows < cols, upper, upper.conj())
        for i, j, value in zip(members[rows].tolist(), members[cols].tolist(), values.tolist()):
            edges[i][j] = value
    return CouplingGraph(basis=operator.basis, diagonal=diagonal, edges=edges)


def _loop_matrix(graph: CouplingGraph, gaps: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(lam - H) / (lam - e_col) over ``nodes``: 1 on the diagonal,
    -V_ij / (lam - e_j) on each edge, 0 elsewhere.  The loop matrix of a
    subset of ``nodes`` is the submatrix on that subset."""
    position, gap = {node: k for k, node in enumerate(nodes.tolist())}, gaps.tolist()
    m = np.eye(len(nodes), dtype=complex)
    for row, node in enumerate(nodes.tolist()):
        for j, edge in graph.edges[node].items():
            if j in position:
                m[row, position[j]] = -edge / gap[j]
    return m


def _loop_factors(loop: np.ndarray, eliminated: np.ndarray, intermediates: np.ndarray) -> np.ndarray:
    """Loop determinants of the eliminated states off each path, for paths
    with ``intermediates`` rows of equal length, where ``loop`` is the loop
    matrix of all of ``eliminated``: one batched determinant of its
    submatrices, each of which is 1 when no state is off the path."""
    off_path = (eliminated[None, :, None] != intermediates[:, None, :]).all(axis=2)
    size = len(eliminated) - intermediates.shape[1]
    kept = np.broadcast_to(np.arange(len(eliminated)), off_path.shape)[off_path].reshape(len(intermediates), size)
    return np.linalg.det(loop[kept[:, :, None], kept[:, None, :]])


def _check_levels(graph: CouplingGraph, nodes: np.ndarray, gaps: np.ndarray, lam: float) -> None:
    """Raise on the state of ``nodes`` whose level is nearest to lam if its gap
    is at most RESONANCE_RTOL * max |diagonal|, so that a zero operator raises;
    ``gaps`` holds lam - e for every state."""
    gap, nearest = min(zip(np.abs(gaps[nodes]).tolist(), nodes.tolist()), default=(math.inf, None))
    if gap > RESONANCE_RTOL * float(np.max(np.abs(graph.diagonal))):
        return
    occ = graph.describe_state(nearest)
    raise NearResonantIntermediateError(
        f"eliminated state {occ} lies within {gap:.3e} of the working energy {lam:.12g}",
        occupation=occ if isinstance(occ, tuple) else None,
    )


def _eliminated(graph: CouplingGraph, targets: tuple[int, int]) -> np.ndarray | None:
    """The states connected to the targets, without the targets, ascending;
    None when no path joins the targets."""
    t0, t1 = targets
    hops = graph._hops_to(t0)
    if hops[t1] == math.inf:
        return None
    hops[t0] = hops[t1] = math.inf
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
    near-resonant levels once.  The loop factors are weighed in blocks of
    paths, one batched determinant for those of each order, with at most
    ``_BLOCK_ENTRIES`` entries in each.
    """
    t0, t1 = targets
    if t0 == t1:
        raise UnsupportedConfigurationError("path coupling needs two distinct targets")
    eliminated = _eliminated(graph, targets)
    if eliminated is None:
        return
    gaps = lam - graph.diagonal
    paths = graph.simple_paths(t0, t1, max_intermediates=max_order)
    per_block = max(1, _BLOCK_ENTRIES // max(1, len(eliminated)) ** 2)
    block = list(itertools.islice(paths, per_block))
    if block:
        _check_levels(graph, eliminated, gaps, lam)
        loop = _loop_matrix(graph, gaps, eliminated)
        edges, gap = graph.edges, gaps.tolist()
    while block:
        weights = []
        for path in block:
            weight = 1.0 + 0j
            for a, b in zip(path, path[1:]):
                weight *= edges[a][b]
            for node in path[1:-1]:
                weight /= gap[node]
            if not cmath.isfinite(weight):
                raise NumericalContractError(f"the weight of path {tuple(map(graph.describe_state, path))} overflows")
            weights.append(weight)
        lengths = np.array([len(path) for path in block])
        factors = np.empty(len(block), dtype=complex)
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            nodes = np.array([block[i] for i in rows], dtype=np.intp)
            factors[rows] = _loop_factors(loop, eliminated, nodes[:, 1:-1])
        yield from zip(block, weights, factors.tolist())
        block = list(itertools.islice(paths, per_block))


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


def effective_point(params: ModelParams, dphi: float, elimination: LowdinResult | None = None) -> TwoLevelModel:
    """Two-level prediction at phase twist pi + dphi.

    The coupling and the centre energy E0 come from ``elimination`` when it is
    given, and otherwise from exact elimination in a newly built flow
    Hamiltonian at pi + dphi.  The detuning is eps(phi),
    which needs equal tunnelling, plus half the self-energy gap of the
    targets, (c_0 - c_1) N (N - 1), which is zero for the contact interaction.
    """
    phi = math.pi + dphi
    c_self = _flow_interaction_coefficients(params)[0]
    eps = epsilon_of_phi(params, phi) + (c_self[0] - c_self[1]) * params.n * (params.n - 1) / 2.0
    if elimination is None:
        elimination = lowdin_coupling(flow_sweep(params).at(phi))
    e0 = 0.5 * float(np.real(elimination.heff[0, 0] + elimination.heff[1, 1]))
    return two_level_predict(e0, eps, elimination.v01)


def effective_report(params: ModelParams, dphi_grid: Sequence[float]) -> EffectiveTable:
    """Tabulate the two-level machinery over a grid of offsets from pi.

    The flow Hamiltonian is built once for the report.  Like
    ``effective_point``, it requires equal tunnelling.
    """
    dphis = np.asarray(list(dphi_grid), dtype=float)
    sweep = flow_sweep(params)
    models = [effective_point(params, d, lowdin_coupling(sweep.at(math.pi + d))) for d in dphis]
    return EffectiveTable(
        dphis=dphis,
        eps=np.array([m.eps for m in models]),
        v01_abs=np.array([abs(m.v01) for m in models]),
        ratio_analytic=np.array([abs(m.predicted_ratio) for m in models]),
        e_minus=np.array([m.predicted_energies[0] for m in models]),
        e_plus=np.array([m.predicted_energies[1] for m in models]),
    )
