"""Cat-state diagnostics of exact ground states near the flow anti-crossing.

The ground state near phi = pi is dominated by the pair of flow Fock states
|N,0,0> (no flow) and |0,N,0> (one clockwise quantum per atom).  The metrics
report the two amplitudes a0 and a1, their magnitude ratio, relative phase,
and the weight |a0|^2 + |a1|^2 captured by the pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis, embed_single_flow
from .effective import default_flow_targets, effective_point
from .errors import NumericalContractError
from .hamiltonians import HermitianOperator, ModelParams, flow_sweep
from .solver import eigensolve
from .util import write_csv

#: Offsets smaller than this are treated as sitting exactly on the crossing,
#: where the two lowest levels are split only by 2|v01|.
CROSSING_DPHI_ATOL = 1e-12


@dataclass
class CatMetrics:
    """Amplitudes of the two cat components in a normalised state."""

    a0: complex
    a1: complex
    ratio: float
    theta: float
    captured_norm: float
    diverged: bool = False


def _pair_projections(states: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Amplitudes on |N,0,0> and |0,N,0> (rows) of one state or of columns of states.

    In the flow basis they are the two entries themselves; in the site basis
    they are projections onto the embedded flow states.
    """
    if basis.interpretation == "flow":
        return states[list(default_flow_targets(basis))]
    pair = np.vstack([embed_single_flow(basis.n, 0), embed_single_flow(basis.n, 1)])
    return pair.conj() @ states


def cat_amplitudes(state: Sequence[complex], basis: FockBasis) -> CatMetrics:
    """Cat metrics of a state given in the site or flow basis.

    The global phase is fixed so that a0 is real and non-negative (if a0
    vanishes, so that a1 is); theta is then arg(a1) in (-pi, pi].  A vanishing
    a1 with finite a0 is reported as an infinite ratio and flagged.
    """
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (basis.dimension,):
        raise NumericalContractError(
            f"state has shape {vec.shape}, basis dimension is {basis.dimension}"
        )
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise NumericalContractError("cannot compute cat metrics of a zero state")
    vec = vec / norm

    a0, a1 = (complex(a) for a in _pair_projections(vec, basis))
    reference = a0 if abs(a0) > 0.0 else a1
    if abs(reference) > 0.0:
        rotation = cmath.exp(-1j * cmath.phase(reference))
        a0 *= rotation
        a1 *= rotation
        a0 = complex(a0.real, 0.0) if abs(a0) > 0.0 else a0

    diverged = abs(a1) == 0.0
    if diverged:
        ratio = math.inf if abs(a0) > 0.0 else math.nan
    else:
        ratio = abs(a0) / abs(a1)
    return CatMetrics(
        a0=a0,
        a1=a1,
        ratio=ratio,
        theta=float(np.angle(a1)),
        captured_norm=abs(a0) ** 2 + abs(a1) ** 2,
        diverged=diverged,
    )


def crossing_pair_state(vectors: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Combination of the columns of ``vectors`` maximising the cat weight |a0|^2 + |a1|^2.

    It is the top eigenvector of the Gram matrix of the projections onto the
    cat pair; a single column comes back equal in value.  On the crossing the
    two lowest levels are distinct eigenstates split by 2|v01|.  For the
    contact interaction with equal bonds, swapping the two flow modes is then
    a symmetry, each level has a1 = +-a0 and the Gram matrix is diagonal, so
    the combination is the level with the larger pair weight: at N = 3, 6, 9
    and U/J = 0.1 that is the first excited level, not the ground one.
    """
    a = _pair_projections(vectors, basis)  # (2, n_vectors)
    gram = a.conj().T @ a
    eigvals, eigvecs = np.linalg.eigh(gram)
    return vectors @ eigvecs[:, -1]


@dataclass
class CatScanTable:
    """Cat metrics of the exact ground state over a grid of offsets from pi."""

    n: int
    u_over_j: float
    dphis: np.ndarray
    metrics: list[CatMetrics]
    ratio_analytic: np.ndarray

    def rows(self):
        for dphi, m, analytic in zip(self.dphis.tolist(), self.metrics, self.ratio_analytic.tolist()):
            yield (
                self.n,
                self.u_over_j,
                dphi,
                m.a0.real,
                m.a0.imag,
                m.a1.real,
                m.a1.imag,
                m.ratio,
                m.captured_norm,
                analytic,
            )

    def to_csv(self, path, comment: str | None = None) -> None:
        header = (
            "N", "u_over_j", "dphi", "a0_re", "a0_im", "a1_re", "a1_im",
            "ratio", "captured_norm", "ratio_analytic",
        )
        write_csv(path, header, self.rows(), comment=comment)


def ground_cat_metrics(
    params: ModelParams, dphi: float, operator: HermitianOperator | None = None
) -> CatMetrics:
    """Cat metrics of the exact ground state at phase twist pi + dphi.

    The state is the ground state of ``operator`` if given and of the flow
    Hamiltonian at pi + dphi otherwise; with equal tunnelling only its
    quasi-momentum block is solved, as ``eigensolve`` skips the blocks that a
    Cholesky factorisation proves hold no requested level.  For |dphi| <=
    ``CROSSING_DPHI_ATOL`` it is ``crossing_pair_state`` of the two lowest
    levels, which may be the first excited level.  A ground state outside the
    pair's quasi-momentum sector (dipolar N = 6, dphi = -0.2) gives a0 = a1 = 0,
    while ``catscan``'s ratio_analytic describes the pair's own block.
    """
    if operator is None:
        operator = flow_sweep(params).at(math.pi + dphi)
    result = eigensolve(operator, n_levels=2 if abs(dphi) <= CROSSING_DPHI_ATOL else 1)
    return cat_amplitudes(crossing_pair_state(result.vectors, operator.basis), operator.basis)


def catscan(params: ModelParams, dphi_grid: Sequence[float]) -> CatScanTable:
    """Scan the exact cat metrics and the two-level prediction over offsets.

    The flow Hamiltonian is built once for the whole scan, and each offset's
    operator serves both the ground state and the two-level prediction.  The
    analytic ratio column requires equal tunnelling; with unequal bonds it is
    reported as nan.
    """
    dphis = np.asarray(list(dphi_grid), dtype=float)
    sweep = flow_sweep(params)
    metrics, analytic = [], []
    for dphi in dphis:
        operator = sweep.at(math.pi + dphi)
        metrics.append(ground_cat_metrics(params, dphi, operator=operator))
        analytic.append(
            abs(effective_point(params, dphi, operator=operator).predicted_ratio)
            if params.equal_j
            else math.nan
        )
    reference_u = params.u0 if params.dipolar else params.u
    return CatScanTable(
        n=params.n,
        u_over_j=(reference_u / params.j1) if params.j1 != 0 else math.nan,
        dphis=dphis,
        metrics=metrics,
        ratio_analytic=np.array(analytic),
    )
