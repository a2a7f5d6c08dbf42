"""Dense exact diagonalization and phase sweeps."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis
from .errors import NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import HermitianOperator, ModelParams, flow_sweep
from .util import Table, level_rows

#: Relative tolerances on the eigensolver's own output, checked on every call.
RESIDUAL_RTOL = 1e-9
ORTHONORMALITY_ATOL = 1e-9
#: ``_Layered.solve`` eliminates its batch in chunks of rows whose factors hold at most this many entries.
_BATCH_ENTRIES = 1 << 20


@dataclass
class EigenResult:
    """Eigenvalues (ascending) and matching eigenvectors (columns)."""

    energies: np.ndarray
    vectors: np.ndarray
    basis: FockBasis | None = None
    params: ModelParams | None = None


def eigensolve(operator: HermitianOperator | np.ndarray, n_levels: int | None = None, *,
               _values_only: bool = False, _groups: Sequence | None = None) -> EigenResult:
    """Dense Hermitian diagonalization, truncated to the lowest ``n_levels`` (all by default).

    An operator is solved one of its ``blocks`` at a time (a bare matrix is made a one-block ``HermitianOperator``,
    which rejects non-Hermitian input); the levels are merged in the order (energy, block, index) and embedded in
    the full basis.  Blocks are visited from the smallest diagonal entry up; once ``n_levels`` levels are held, a
    block is skipped when ``_levels_above`` proves it free of levels up to that level plus ``RESIDUAL_RTOL`` times
    the ``frobenius`` norm.  The returned pairs pass the residual and orthonormality checks; real input gives real
    vectors.  A caller that reads only the energies passes ``_values_only`` to solve each block by ``_checked_levels``,
    and one that has laid the blocks out passes the ``_groups`` of each (see ``_Layered``).
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    blocks, sectors, dim = operator.blocks, operator.sectors, operator.dimension
    n_levels = dim if n_levels is None else n_levels
    if not 1 <= n_levels <= dim:
        raise UnsupportedConfigurationError(f"n_levels must be in [1, {dim}], got {n_levels}")
    lowest = [np.min(np.diagonal(block).real, initial=np.inf) for block in blocks]
    solved, levels, groups = {}, [], _groups or [None] * len(blocks)
    for b in sorted(range(len(blocks)), key=lowest.__getitem__):
        if len(levels) == n_levels and _levels_above(blocks[b], levels[-1][0] + RESIDUAL_RTOL * operator.frobenius,
                                                     groups[b]):
            continue
        solved[b] = _checked_levels(blocks[b], n_levels, groups[b]) if _values_only else _checked_eigh(blocks[b], n_levels)
        levels = sorted(levels + [(float(e), b, i) for i, e in enumerate(solved[b][0])])[:n_levels]
    vectors = np.zeros((dim, n_levels), dtype=np.result_type(*blocks))
    for column, (_, b, i) in enumerate(levels):
        vectors[sectors[b], column] = solved[b][1][:, i]
    energies = np.array([e for e, _, _ in levels])
    return EigenResult(energies=energies, vectors=vectors, basis=operator.basis, params=operator.params)


def _checked_eigh(matrix: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of an exactly Hermitian matrix, truncated to at most the lowest ``n_levels`` pairs;
    every level is checked by ``_sum_rule_scale``, the returned pairs by ``_checked_pairs``."""
    energies, vectors = np.linalg.eigh(matrix)
    return _checked_pairs(matrix, energies[:n_levels], vectors[:, :n_levels], _sum_rule_scale(matrix, energies))


def _checked_levels(matrix: np.ndarray, n_levels: int, groups: list | None) -> tuple[np.ndarray, np.ndarray]:
    """``_checked_eigh`` for a caller that reads only the energies.  Where 32 ``n_levels`` states
    fit in the matrix (below that ``eigh`` is as fast), the levels come from ``eigvalsh`` and pass
    the same sum rules; each returned level e is paired with one step of ``_inverse_iteration`` at
    e - 1e-3 RESIDUAL_RTOL max |e| (on ``groups``, or the matrix's own layers where None), so that an exact
    level of a diagonal block is no singular pivot, and the pairs pass ``_checked_pairs``.  A singular pivot, a non-finite value or a failed pair
    check solves the matrix by ``_checked_eigh`` instead."""
    if 32 * n_levels > len(matrix):
        return _checked_eigh(matrix, n_levels)
    energies = np.linalg.eigvalsh(matrix)
    scale, energies = _sum_rule_scale(matrix, energies), energies[:n_levels]
    try:
        with np.errstate(all="ignore"):
            vectors = _inverse_iteration(matrix, energies - 1e-3 * RESIDUAL_RTOL * scale, groups)
            return _checked_pairs(matrix, energies, vectors, scale)
    except (np.linalg.LinAlgError, NumericalContractError):
        return _checked_eigh(matrix, n_levels)


def _sum_rule_scale(matrix: np.ndarray, energies: np.ndarray) -> float:
    """max |e| over all ``energies`` of ``matrix``, once they pass the sum rules sum e = tr H and
    sum e^2 = |H|_F^2 in units of max |H|; a nan defect fails."""
    unit = float(np.max(np.abs(matrix))) or 1.0
    scaled, reduced = energies / unit, matrix / unit
    frobenius = np.vdot(reduced, reduced).real
    trace_defect = abs(np.sum(scaled) - np.trace(reduced).real) / max(np.sum(np.abs(scaled)), 1e-300)
    square_defect = abs(np.sum(scaled**2) - frobenius) / max(frobenius, 1e-300)
    if not (trace_defect <= RESIDUAL_RTOL and square_defect <= RESIDUAL_RTOL):
        raise NumericalContractError(f"eigenvalue sum rules broken: defects {trace_defect:.3e}, {square_defect:.3e}")
    return max(float(np.max(np.abs(energies))), 1e-300)


def _checked_pairs(matrix: np.ndarray, energies: np.ndarray, vectors: np.ndarray, scale: float) -> tuple:
    """The pairs, once their residual is within RESIDUAL_RTOL ``scale`` and the vectors orthonormal."""
    residual = np.max(np.abs(matrix @ vectors - vectors * energies))
    if not residual <= RESIDUAL_RTOL * scale:
        raise NumericalContractError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_RTOL} * |H|")
    ortho = np.max(np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1])))
    if not ortho <= ORTHONORMALITY_ATOL:
        raise NumericalContractError(f"eigenvector orthonormality defect {ortho:.3e}")
    return energies, vectors


def _layers(matrix: np.ndarray, parts: np.ndarray = ()) -> list[np.ndarray]:
    """States in groups on which ``matrix`` and ``parts`` are block tridiagonal: the states joined to no other,
    one layer each, then the breadth-first layers of the joint nonzero pattern, each connected component
    walked from its first state; consecutive layers are merged up to ceil(sqrt(n)) states."""
    joined, width = sum((part != 0 for part in parts), matrix != 0), int(np.ceil(len(matrix) ** 0.5))
    np.fill_diagonal(joined, False)
    seen = ~joined.any(axis=0)
    layers, groups = list(np.flatnonzero(seen)[:, None]), []
    while not seen.all():
        front = np.arange(len(matrix)) == np.argmin(seen)
        while front.any():
            seen |= front
            layers.append(np.flatnonzero(front))
            front = joined[front].any(axis=0) & ~seen
    for layer in layers:
        if groups and len(groups[-1]) + len(layer) <= width:
            groups[-1] = np.concatenate([groups[-1], layer])
        else:
            groups.append(layer)
    return groups


def _passes_cholesky(pivots: np.ndarray) -> np.ndarray:
    """For each matrix of the stack ``pivots``, whether Cholesky succeeds with a finite factor (nan, without an
    error, where the matrix holds a nan); each L_ij enters L_ii, so a factor is finite where its trace is."""
    try:
        factors = np.linalg.cholesky(pivots)
    except np.linalg.LinAlgError:
        return np.array([len(pivots) > 1 and _passes_cholesky(p[None])[0] for p in pivots], bool)
    return np.isfinite(np.einsum("bii->b", factors))


def _mixed(base: np.ndarray, parts: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """base + sum_k weights[..., k] parts[k], one per row of ``weights``; ``base`` itself without parts."""
    return base + np.tensordot(weights, parts, 1) if len(parts) else base


class _Layered:
    """A Hermitian matrix and ``parts`` on the ``_layers`` of their joint pattern, or on given ``groups``, the
    ``_layers`` of a pattern that holds theirs: per layer its states, the matrix's blocks on them and to the layers
    before and after, and the parts' stacks of those blocks.  No diagonal is read."""

    def __init__(self, matrix: np.ndarray, parts: np.ndarray = (), groups: list | None = None):
        groups, none = _layers(matrix, parts) if groups is None else groups, np.zeros(0, np.intp)
        self.dtype, self.layers = np.result_type(matrix, *parts), []
        for before, rows, after in zip([none] + groups, groups, groups[1:] + [none]):
            blocks = [[m[np.ix_(rows, cols)] for m in (matrix, *parts)] for cols in (rows, before, after)]
            self.layers.append((rows, *(b[0] for b in blocks), [np.array(b[1:]) for b in blocks] if len(parts) else []))

    def solve(self, diagonals: np.ndarray, rhs: np.ndarray, prove: bool = False,
              weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(y, proven): y[b] solves A_b y = ``rhs`` (or ``rhs[b]``), A_b the matrix plus ``weights[b]`` times
        the parts (if any), with the diagonal ``diagonals[b]``, by block LDL^T elimination without
        pivoting, batched over b: with D_i, L_i, U_i the blocks of layer i, the pivot is S_i = D_i - L_i G_{i-1},
        S_i [G_i | g_i] = [U_i | b_i - L_i g_{i-1}] and y_i = g_i - G_i y_{i+1}.  With ``prove``, proven[b]
        says whether every S_i passed Cholesky, which proves A_b positive definite (Sylvester's law of inertia)
        up to rounding of order n eps |A|; a failed S_i becomes the identity, and y[b] is meaningless.  No row
        depends on another: the batch is weighed and eliminated in chunks of at most ``_BATCH_ENTRIES``."""
        rhs, proven = np.broadcast_to(rhs, (len(diagonals), *rhs.shape[-2:])), np.ones(len(diagonals), bool)
        size = max(1, _BATCH_ENTRIES // (sum(u.size + len(rows) * rhs.shape[2] for rows, _, _, u, _ in self.layers) or 1))
        y = np.empty(rhs.shape, np.result_type(self.dtype, diagonals, rhs))
        for chunk in (slice(start, start + size) for start in range(0, len(diagonals), size)):
            d, b, ok, eliminated = diagonals[chunk], rhs[chunk], proven[chunk], []  # ok is a view: &= marks proven
            for rows, block, lower, upper, parts in self.layers:
                width = len(rows)
                if parts:
                    block, lower, upper = (_mixed(m, p, weights[chunk]) for m, p in zip((block, lower, upper), parts))
                pivot = np.empty((len(d), width, width), np.result_type(block, d))
                pivot[:] = block
                pivot[:, range(width), range(width)] = d[:, rows]
                known = b[:, rows]
                if eliminated:
                    coupled = lower @ eliminated[-1]
                    pivot, known = pivot - coupled[:, :, :width], known - coupled[:, :, width:]
                if prove:
                    pivot[~ok] = np.eye(width)
                    ok &= _passes_cholesky(pivot)
                    pivot[~ok] = np.eye(width)
                known = np.concatenate([np.broadcast_to(upper, (len(d), *upper.shape[-2:])), known], axis=2)
                eliminated.append(np.linalg.solve(pivot, known))
            step = np.zeros((len(d), 0, rhs.shape[2]))
            for (rows, *_), solved in zip(self.layers[::-1], eliminated[::-1]):
                step = solved[:, :, step.shape[1]:] - solved[:, :, : step.shape[1]] @ step
                y[chunk, rows] = step
        return y, proven


def _levels_above(matrix: np.ndarray, cut: float, groups: list | None = None) -> bool:
    """Whether the Hermitian ``matrix`` provably has no level at or below ``cut``:
    ``_Layered.solve`` (on ``groups``, see ``_Layered``) proves matrix - cut positive definite."""
    layered = _Layered(matrix, groups=groups)
    return bool(layered.solve(np.diagonal(matrix).real[None] - cut, np.zeros((len(matrix), 0)), True)[1][0])


def _inverse_iteration(matrix: np.ndarray, shifts: np.ndarray, groups: list | None) -> np.ndarray:
    """One step of inverse iteration at each of ``shifts`` from fixed start vectors, solved by
    ``_Layered.solve`` (on ``groups``, see ``_Layered``) batched over the shifts, and orthonormalised by one QR."""
    starts = np.cos(np.outer(np.arange(1.0, len(matrix) + 1), np.sqrt(np.arange(2.0, len(shifts) + 2))))
    layered = _Layered(matrix, groups=groups)
    vectors = layered.solve(np.diagonal(matrix) - shifts[:, None], starts.T[:, :, None])[0][:, :, 0].T
    return np.linalg.qr(vectors / np.max(np.abs(vectors), axis=0))[0]


def spectrum_sweep(params: ModelParams, phi_grid: Sequence[float], n_levels: int) -> Table:
    """Lowest levels of the ring Hamiltonian at each phase of ``phi_grid``.

    The flow Hamiltonian is built, checked and laid out once for the sweep (each block on the layers of its pattern
    at any phase: H_0's and the off-diagonal hopping's), and assembled at each phase into one set of blocks.  With
    equal tunnelling it is solved one quasi-momentum block at a time; unequal bonds couple the blocks, so it is
    diagonalized whole.  Only energies are asked for.
    """
    phis = np.asarray(list(phi_grid), dtype=float)
    sweep = flow_sweep(params)
    dim = sweep.basis.dimension
    if not 1 <= n_levels <= dim:
        raise UnsupportedConfigurationError(f"n_levels must be in [1, {dim}] for n={params.n}, got {n_levels}")
    patterns, off = [h0 != 0 for h0 in sweep.base], sweep.rows != sweep.cols  # off-diagonal hopping: one sector
    patterns[0][sweep.rows[off], sweep.cols[off]] = patterns[0][sweep.cols[off], sweep.rows[off]] = True
    groups = [_layers(pattern) for pattern in patterns]
    energies = np.array([eigensolve(operator, n_levels, _values_only=True, _groups=groups).energies
                         for operator in sweep.over(phis)])
    rows = level_rows(phis, energies)
    return Table(("phi", "level", "energy"), rows, phis=phis, n_levels=n_levels, energies=energies)
