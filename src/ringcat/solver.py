"""Dense exact diagonalization and phase sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis, quasimomentum_labels
from .errors import NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import HermitianOperator, ModelParams, _hermitian, flow_sweep
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

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def ground_vector(self) -> np.ndarray:
        return self.vectors[:, 0]


def eigensolve(operator: HermitianOperator | np.ndarray, n_levels: int | None = None) -> EigenResult:
    """Full dense Hermitian diagonalization, optionally truncated to ``n_levels``.

    Raises a numerical-contract error for non-Hermitian input, and verifies
    the residual and orthonormality guarantees on the returned pairs.  Real
    symmetric input is solved in real arithmetic and gives real vectors.
    """
    if isinstance(operator, HermitianOperator):
        matrix, basis, params = operator.matrix, operator.basis, operator.params
    else:
        matrix, basis, params = _hermitian(operator), None, None
    energies, vectors = _checked_eigh(matrix, n_levels)
    return EigenResult(energies=energies, vectors=vectors, basis=basis, params=params)


def _checked_eigh(matrix: np.ndarray, n_levels: int | None) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of an exactly Hermitian matrix, truncated to the lowest ``n_levels``
    pairs.  Residual and orthonormality are checked on the returned pairs; the sum
    rules sum e = tr H and sum e^2 = |H|_F^2 check every level, discarded ones too."""
    energies, vectors = np.linalg.eigh(matrix)
    scale = max(float(np.max(np.abs(energies))), 1e-300)
    frobenius = np.vdot(matrix, matrix).real
    trace_defect = abs(np.sum(energies) - np.trace(matrix).real) / max(np.sum(np.abs(energies)), 1e-300)
    square_defect = abs(np.sum(energies**2) - frobenius) / max(frobenius, 1e-300)
    if max(trace_defect, square_defect) > RESIDUAL_RTOL:
        raise NumericalContractError(f"eigenvalue sum rules broken: defects {trace_defect:.3e}, {square_defect:.3e}")
    if n_levels is not None:
        n_levels = min(int(n_levels), len(energies))
        energies = energies[:n_levels]
        vectors = vectors[:, :n_levels]
    residual = np.max(np.abs(matrix @ vectors - vectors * energies))
    if residual > RESIDUAL_RTOL * scale:
        raise NumericalContractError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_RTOL} * |H|")
    gram = vectors.conj().T @ vectors
    ortho = np.max(np.abs(gram - np.eye(gram.shape[0])))
    if ortho > ORTHONORMALITY_ATOL:
        raise NumericalContractError(f"eigenvector orthonormality defect {ortho:.3e}")
    return energies, vectors


def sector_eigensolve(operator: HermitianOperator, n_levels: int) -> EigenResult:
    """Lowest ``n_levels`` of a flow-basis operator that conserves quasi-momentum.

    With equal tunnelling the flow Hamiltonian is block-diagonal in the label
    k = (n_beta + 2 n_gamma) mod 3.  Each block gets the residual and
    orthonormality checks of ``eigensolve``; the lowest levels over the
    blocks are merged in the order (energy, k, index within the block) and
    embedded in the full flow basis.  Raises a numerical-contract error if
    the operator couples blocks.
    """
    basis = operator.basis
    if basis.interpretation != "flow":
        raise UnsupportedConfigurationError("the sector solve expects a flow-basis operator")
    h = operator.matrix
    labels = quasimomentum_labels(basis)
    leak = np.max(np.abs(h[labels[:, None] != labels[None, :]]), initial=0.0)
    if leak > operator.hermitian_atol:
        raise NumericalContractError(f"operator couples quasi-momentum sectors: max |H_kk'| = {leak:.3e}")

    n_levels = max(1, min(int(n_levels), basis.dimension))
    blocks = {}
    candidates = []
    for k in range(3):
        members = np.flatnonzero(labels == k)
        if members.size == 0:
            continue
        energies, vectors = _checked_eigh(h[np.ix_(members, members)], n_levels)
        blocks[k] = (members, vectors)
        candidates += [(float(e), k, i) for i, e in enumerate(energies)]
    chosen = sorted(candidates)[:n_levels]

    vectors = np.zeros((basis.dimension, n_levels), dtype=h.dtype)
    for column, (_, k, i) in enumerate(chosen):
        members, block_vectors = blocks[k]
        vectors[members, column] = block_vectors[:, i]
    energies = np.array([e for e, _, _ in chosen])
    return EigenResult(energies=energies, vectors=vectors, basis=basis, params=operator.params)


def _lowest(operator: HermitianOperator, n_levels: int) -> EigenResult:
    """Lowest levels: by quasi-momentum block for a flow operator with equal
    tunnelling, by one dense solve otherwise."""
    params = operator.params
    if operator.basis.interpretation == "flow" and params is not None and params.equal_j:
        return sector_eigensolve(operator, n_levels)
    return eigensolve(operator, n_levels=n_levels)


@dataclass
class SpectrumTable:
    """Lowest levels of the ring Hamiltonian on a grid of phase twists."""

    phis: np.ndarray
    n_levels: int
    energies: np.ndarray  # shape (len(phis), n_levels)
    params: ModelParams

    def rows(self):
        for i, phi in enumerate(self.phis):
            for level in range(self.n_levels):
                yield (float(phi), level, float(self.energies[i, level]))

    def to_csv(self, path, comment: str | None = None) -> None:
        write_csv(path, ("phi", "level", "energy"), self.rows(), comment=comment)


def spectrum_sweep(
    params: ModelParams,
    phi_grid: Sequence[float],
    n_levels: int = 6,
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
    levels = [_lowest(sweep.at(phi), n_levels).energies for phi in phis]
    return SpectrumTable(
        phis=phis, n_levels=n_levels, energies=np.array(levels), params=params
    )
