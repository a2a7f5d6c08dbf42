"""Dense exact diagonalization and phase sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis, quasimomentum_labels
from .errors import NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import HermitianOperator, ModelParams, flow_sweep, site_sweep
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
    basis = params = None
    if isinstance(operator, HermitianOperator):
        matrix = operator.matrix
        basis, params = operator.basis, operator.params
    else:
        matrix = np.asarray(operator)
        matrix = matrix.astype(complex if np.iscomplexobj(matrix) else float, copy=False)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise NumericalContractError(f"expected a square matrix, got shape {matrix.shape}")
        deviation = np.max(np.abs(matrix - matrix.conj().T)) if matrix.size else 0.0
        if deviation > 1e-12:
            raise NumericalContractError(
                f"eigensolve requires a hermitian matrix: max |H - H^dagger| = {deviation:.3e}"
            )
    energies, vectors = np.linalg.eigh(matrix)

    scale = max(float(np.max(np.abs(energies))), 1e-300)
    residual = np.max(np.abs(matrix @ vectors - vectors * energies))
    if residual > RESIDUAL_RTOL * scale:
        raise NumericalContractError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_RTOL} * |H|")
    gram = vectors.conj().T @ vectors
    ortho = np.max(np.abs(gram - np.eye(gram.shape[0])))
    if ortho > ORTHONORMALITY_ATOL:
        raise NumericalContractError(f"eigenvector orthonormality defect {ortho:.3e}")

    if n_levels is not None:
        n_levels = min(int(n_levels), len(energies))
        energies = energies[:n_levels]
        vectors = vectors[:, :n_levels]
    return EigenResult(energies=energies, vectors=vectors, basis=basis, params=params)


def sector_eigensolve(operator: HermitianOperator, n_levels: int) -> EigenResult:
    """Lowest ``n_levels`` of a flow-basis operator that conserves quasi-momentum.

    With equal tunnelling the flow Hamiltonian is block-diagonal in the label
    k = (n_beta + 2 n_gamma) mod 3.  Each block goes through ``eigensolve``
    with all its checks; the lowest levels over the blocks are merged in the
    order (energy, k, index within the block) and embedded in the full flow
    basis.  Raises a numerical-contract error if the operator couples blocks.
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
        block = eigensolve(h[np.ix_(members, members)], n_levels=n_levels)
        blocks[k] = (members, block.vectors)
        candidates += [(float(e), k, i) for i, e in enumerate(block.energies)]
    chosen = sorted(candidates)[:n_levels]

    vectors = np.zeros((basis.dimension, n_levels), dtype=h.dtype)
    for column, (_, k, i) in enumerate(chosen):
        members, block_vectors = blocks[k]
        vectors[members, column] = block_vectors[:, i]
    energies = np.array([e for e, _, _ in chosen])
    return EigenResult(energies=energies, vectors=vectors, basis=basis, params=operator.params)


def _lowest(operator: HermitianOperator, n_levels: int) -> EigenResult:
    """Lowest levels: by quasi-momentum block in the flow basis, whole otherwise."""
    if operator.basis.interpretation == "flow":
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

    The Hamiltonian is built once for the sweep.  With equal tunnelling it is
    the flow Hamiltonian, solved one quasi-momentum block at a time; unequal
    bonds break that symmetry, so the site Hamiltonian is diagonalized whole.
    """
    phis = np.asarray(list(phi_grid), dtype=float)
    dim = (params.n + 1) * (params.n + 2) // 2
    n_levels = max(1, min(int(n_levels), dim))
    sweep = flow_sweep(params) if params.equal_j else site_sweep(params)
    levels = [_lowest(sweep.at(phi), n_levels).energies for phi in phis]
    return SpectrumTable(
        phis=phis, n_levels=n_levels, energies=np.array(levels), params=params
    )
