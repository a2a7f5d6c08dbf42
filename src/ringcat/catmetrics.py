"""Cat-state diagnostics of exact ground states near the flow anti-crossing.

The ground state near phi = pi is dominated by the pair of flow Fock states
|N,0,0> (no flow) and |0,N,0> (one clockwise quantum per atom).  The metrics
report the two amplitudes a0 and a1, their magnitude ratio, relative phase,
and the weight |a0|^2 + |a1|^2 captured by the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis, embed_single_flow
from .effective import LowdinResult, branch_vector, default_flow_targets, effective_point, lowdin_coupling
from .errors import NearResonantIntermediateError, NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import HermitianOperator, ModelParams, _levels_above, flow_sweep
from .solver import RESIDUAL_RTOL, eigensolve
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
        # Adding 0j makes the zero parts of a real state's amplitudes +0.0.
        rotation = reference.conjugate() / abs(reference)
        a0, a1 = a0 * rotation + 0j, a1 * rotation + 0j
        a0 = complex(a0.real, 0.0) if abs(a0) > 0.0 else a0

    diverged = abs(a1) == 0.0
    ratio = (math.inf if abs(a0) > 0.0 else math.nan) if diverged else abs(a0) / abs(a1)
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
    cat pair; a single column comes back as it is.  On the crossing the two
    lowest levels are split by 2|v01|; for the contact interaction with equal
    bonds each has a1 = +-a0, so the combination is the level with the larger
    pair weight: at N = 3, 6, 9 and U/J = 0.1 the first excited level.
    """
    if vectors.shape[1] == 1:
        return vectors[:, 0]
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
            yield (self.n, self.u_over_j, dphi, m.a0.real, m.a0.imag, m.a1.real, m.a1.imag,
                   m.ratio, m.captured_norm, analytic)

    def to_csv(self, path, comment: str | None = None) -> None:
        header = ("N", "u_over_j", "dphi", "a0_re", "a0_im", "a1_re", "a1_im",
                  "ratio", "captured_norm", "ratio_analytic")
        write_csv(path, header, self.rows(), comment=comment)


def _eliminated_ground_state(operator: HermitianOperator, elimination: LowdinResult) -> np.ndarray | None:
    """Ground state of a flow ``operator`` from its ``elimination`` onto the cat pair:
    c_P = ``branch_vector`` of H_eff(lam) on its lowest branch and c_Q = -x c_P.
    None unless r > 0, the state passes the eigensolver's residual bound and
    ``_levels_above`` proves every block that holds no target free of levels up to its cut."""
    lam, ((a, v), (_, b)) = elimination.lam, elimination.heff
    eps = 0.5 * float(np.real(a - b))
    r = math.hypot(eps, abs(v))
    if r == 0.0:
        return None
    # Scaling by a power of two keeps the norm finite and changes no bit of the normalised state.
    c_p = branch_vector(eps, v, r) * math.ldexp(1.0, -math.frexp(r)[1])
    state = np.zeros(operator.dimension, dtype=np.result_type(c_p, elimination.x))
    state[elimination.indices] = np.concatenate([c_p, -elimination.x @ c_p])
    state /= np.linalg.norm(state)
    t0, t1 = elimination.indices[:2]
    blocks = [(m, h, t0 in m or t1 in m) for m, h in zip(operator.sectors, operator.blocks)]
    scale = max(abs(lam), *(float(np.max(np.abs(np.diagonal(h)))) for _, h, held in blocks if held))
    residual = max(float(np.max(np.abs(h @ state[m] - lam * state[m]))) for m, h, held in blocks if held)
    cut = lam + RESIDUAL_RTOL * operator.frobenius
    proven = residual <= RESIDUAL_RTOL * scale and all(_levels_above(h, cut) for _, h, held in blocks if not held)
    return state if proven else None


def _ground_state(operator: HermitianOperator, dphi: float) -> tuple[np.ndarray, LowdinResult | None]:
    """(state, elimination) at phase twist pi + dphi.  The elimination, tried once,
    is None where ``lowdin_coupling`` meets a near-resonant level or the operator
    is not a flow operator.  Off the crossing the state is ``_eliminated_ground_state``
    wherever that proves it.  Else ``eigensolve`` solves the blocks that can hold
    a requested level; for |dphi| <= ``CROSSING_DPHI_ATOL`` the state is
    ``crossing_pair_state`` of the two lowest levels, maybe the first excited one."""
    try:
        elimination = lowdin_coupling(operator)
    except (NearResonantIntermediateError, UnsupportedConfigurationError):
        elimination = None
    crossing = abs(dphi) <= CROSSING_DPHI_ATOL
    state = None if crossing or elimination is None else _eliminated_ground_state(operator, elimination)
    if state is None:
        state = crossing_pair_state(eigensolve(operator, n_levels=2 if crossing else 1).vectors, operator.basis)
    return state, elimination


def ground_cat_metrics(params: ModelParams, dphi: float, operator: HermitianOperator | None = None) -> CatMetrics:
    """Cat metrics of the exact ground state at phase twist pi + dphi.

    The state is ``_ground_state`` of ``operator`` if given and of the flow
    Hamiltonian at pi + dphi otherwise; on the crossing it is the one of the two
    lowest levels with the larger pair weight.  A ground state outside the blocks
    that hold the pair (dipolar N = 6, dphi = -0.2) gives a0 = a1 = 0.
    """
    if operator is None:
        operator = flow_sweep(params).at(math.pi + dphi)
    return cat_amplitudes(_ground_state(operator, dphi)[0], operator.basis)


def catscan(params: ModelParams, dphi_grid: Sequence[float]) -> CatScanTable:
    """Scan the exact cat metrics and the two-level prediction over offsets.

    The flow Hamiltonian is built once for the whole scan, and each offset's
    operator is eliminated once, by ``_ground_state``, for both the ground
    state and the two-level prediction.  With unequal bonds, or where the
    elimination meets a near-resonant level, the analytic ratio is nan.
    """
    dphis = np.asarray(list(dphi_grid), dtype=float)
    sweep = flow_sweep(params)
    metrics, analytic = [], []
    for dphi in dphis:
        state, elimination = _ground_state(sweep.at(math.pi + dphi), dphi)
        metrics.append(cat_amplitudes(state, sweep.basis))
        eliminated = params.equal_j and elimination is not None
        analytic.append(abs(effective_point(params, dphi, elimination).predicted_ratio) if eliminated else math.nan)
    reference_u = params.u0 if params.dipolar else params.u
    return CatScanTable(
        n=params.n,
        u_over_j=(reference_u / params.j1) if params.j1 != 0 else math.nan,
        dphis=dphis,
        metrics=metrics,
        ratio_analytic=np.array(analytic),
    )
