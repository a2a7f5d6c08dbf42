"""Dense exact diagonalization and phase sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis
from .errors import NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import HermitianOperator, ModelParams, _levels_above, flow_sweep
from .util import write_csv

#: Relative tolerances on the eigensolver's own output, checked on every call.
RESIDUAL_RTOL = 1e-9
ORTHONORMALITY_ATOL = 1e-9


@dataclass
class EigenResult:
    """Eigenvalues (ascending) and matching eigenvectors (columns)."""

    energies: np.ndarray
    vectors: np.ndarray
    basis: FockBasis | None = None
    params: ModelParams | None = None


def eigensolve(operator: HermitianOperator | np.ndarray, n_levels: int | None = None) -> EigenResult:
    """Dense Hermitian diagonalization, truncated to the lowest ``n_levels`` (all by default).

    An operator is solved one of its ``blocks`` at a time; a bare matrix is
    made a one-block ``HermitianOperator`` first, which rejects non-Hermitian
    input with a numerical-contract error.  The levels are merged in the
    order (energy, block, index within the block) and embedded in the full
    basis.  Blocks are visited from the smallest diagonal entry up; once
    ``n_levels`` levels are held, a block is skipped when ``_levels_above``
    proves it free of levels up to the cut, that level plus ``RESIDUAL_RTOL``
    times the operator's ``frobenius`` norm.  The residual and orthonormality
    guarantees are verified on the returned pairs.  Real symmetric input is
    solved in real arithmetic and gives real vectors.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    blocks, sectors, dim = operator.blocks, operator.sectors, operator.dimension
    n_levels = dim if n_levels is None else n_levels
    if not 1 <= n_levels <= dim:
        raise UnsupportedConfigurationError(f"n_levels must be in [1, {dim}], got {n_levels}")
    lowest = [np.min(np.diagonal(block).real, initial=np.inf) for block in blocks]
    solved, levels = {}, []
    for b in sorted(range(len(blocks)), key=lowest.__getitem__):
        if len(levels) == n_levels and _levels_above(blocks[b], levels[-1][0] + RESIDUAL_RTOL * operator.frobenius):
            continue
        solved[b] = _checked_eigh(blocks[b], n_levels)
        levels = sorted(levels + [(float(e), b, i) for i, e in enumerate(solved[b][0])])[:n_levels]
    vectors = np.zeros((dim, n_levels), dtype=np.result_type(*blocks))
    for column, (_, b, i) in enumerate(levels):
        vectors[sectors[b], column] = solved[b][1][:, i]
    energies = np.array([e for e, _, _ in levels])
    return EigenResult(energies=energies, vectors=vectors, basis=operator.basis, params=operator.params)


def _checked_eigh(matrix: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of an exactly Hermitian matrix, truncated to at most the lowest ``n_levels``
    pairs.  Residual and orthonormality are checked on the returned pairs, every level by the
    sum rules sum e = tr H and sum e^2 = |H|_F^2 in units of max |H|; a nan defect fails."""
    energies, vectors = np.linalg.eigh(matrix)
    scale = max(float(np.max(np.abs(energies))), 1e-300)
    unit = float(np.max(np.abs(matrix))) or 1.0
    scaled, reduced = energies / unit, matrix / unit
    frobenius = np.vdot(reduced, reduced).real
    trace_defect = abs(np.sum(scaled) - np.trace(reduced).real) / max(np.sum(np.abs(scaled)), 1e-300)
    square_defect = abs(np.sum(scaled**2) - frobenius) / max(frobenius, 1e-300)
    if not (trace_defect <= RESIDUAL_RTOL and square_defect <= RESIDUAL_RTOL):
        raise NumericalContractError(f"eigenvalue sum rules broken: defects {trace_defect:.3e}, {square_defect:.3e}")
    energies, vectors = energies[:n_levels], vectors[:, :n_levels]
    residual = np.max(np.abs(matrix @ vectors - vectors * energies))
    if not residual <= RESIDUAL_RTOL * scale:
        raise NumericalContractError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_RTOL} * |H|")
    gram = vectors.conj().T @ vectors
    ortho = np.max(np.abs(gram - np.eye(gram.shape[0])))
    if not ortho <= ORTHONORMALITY_ATOL:
        raise NumericalContractError(f"eigenvector orthonormality defect {ortho:.3e}")
    return energies, vectors


@dataclass
class SpectrumTable:
    """Lowest levels of the ring Hamiltonian on a grid of phase twists."""

    phis: np.ndarray
    n_levels: int
    energies: np.ndarray  # shape (len(phis), n_levels)

    def rows(self):
        for phi, energies in zip(self.phis.tolist(), self.energies.tolist()):
            yield from ((phi, level, energy) for level, energy in enumerate(energies))

    def to_csv(self, path, comment: str | None = None) -> None:
        write_csv(path, ("phi", "level", "energy"), self.rows(), comment=comment)


def spectrum_sweep(
    params: ModelParams,
    phi_grid: Sequence[float],
    n_levels: int,
) -> SpectrumTable:
    """Lowest levels of the ring Hamiltonian at each phase of ``phi_grid``.

    The flow Hamiltonian is built once for the sweep.  With equal tunnelling
    it is solved one quasi-momentum block at a time; unequal bonds couple the
    blocks, so it is diagonalized whole.
    """
    phis = np.asarray(list(phi_grid), dtype=float)
    sweep = flow_sweep(params)
    dim = sweep.basis.dimension
    if not 1 <= n_levels <= dim:
        raise UnsupportedConfigurationError(f"n_levels must be in [1, {dim}] for n={params.n}, got {n_levels}")
    levels = [eigensolve(sweep.at(phi), n_levels).energies for phi in phis]
    return SpectrumTable(phis=phis, n_levels=n_levels, energies=np.array(levels))
