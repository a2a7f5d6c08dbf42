"""Cat-state diagnostics of exact ground states near the flow anti-crossing.

The ground state near phi = pi is dominated by the pair of flow Fock states |N,0,0> (no flow) and |0,N,0> (one
clockwise quantum per atom).  The metrics report the two amplitudes a0 and a1, their magnitude ratio, relative
phase, and the weight |a0|^2 + |a1|^2 captured by the pair.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FockBasis, embed_single_flow
from .effective import _sweep_eliminations, default_flow_targets, effective_point
from .errors import NumericalContractError
from .hamiltonians import ModelParams, PhaseSweep, flow_sweep
from .solver import eigensolve
from .util import Table

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

    The global phase is fixed so that a0 is real and non-negative (if a0 vanishes, so that a1 is); theta is then
    arg(a1) in (-pi, pi].  A vanishing a1 with finite a0 is reported as an infinite ratio and flagged.
    """
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (basis.dimension,):
        raise NumericalContractError(f"state has shape {vec.shape}, basis dimension is {basis.dimension}")
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
    """Combination of the columns of ``vectors`` maximising the cat weight |a0|^2 + |a1|^2: the top
    eigenvector of the Gram matrix of their projections onto the cat pair; one column comes back as it is.
    Where each column has a1 = +-a0 (the contact interaction, equal bonds) it is the column with the larger
    weight, which ``_PairElimination._parity`` picks at dphi = 0."""
    if vectors.shape[1] == 1:
        return vectors[:, 0]
    a = _pair_projections(vectors, basis)  # (2, n_vectors)
    gram = a.conj().T @ a
    return vectors @ np.linalg.eigh(gram)[1][:, -1]


def _dense_metrics(sweep: PhaseSweep, dphi: float) -> CatMetrics:
    """Cat metrics at pi + dphi by ``eigensolve``: of its lowest level, or ``crossing_pair_state`` on the crossing."""
    h = sweep.at(math.pi + dphi)
    state = crossing_pair_state(eigensolve(h, n_levels=2 if abs(dphi) <= CROSSING_DPHI_ATOL else 1).vectors, h.basis)
    return cat_amplitudes(state, h.basis)


def ground_cat_metrics(params: ModelParams, dphi: float) -> CatMetrics:
    """Cat metrics of the exact ground state at phase twist pi + dphi: ``catscan``'s row for the one offset.
    A ground state outside the pair's blocks (dipolar N = 6, dphi = -0.2) gives a0 = a1 = 0."""
    return catscan(params, [dphi]).metrics[0]


def catscan(params: ModelParams, dphi_grid: Sequence[float]) -> Table:
    """Scan the exact cat metrics and the two-level prediction over offsets.

    The flow Hamiltonian is built once and, for any bonds, every offset eliminated in one batch
    (``_sweep_eliminations``); ``_PairElimination.states`` gives the state off the crossing and, from the
    parity halves, at dphi = 0.  ``_dense_metrics`` solves an offset's operator only on the rest of the
    crossing or where the state is not proven.  The analytic ratio is nan with unequal bonds and where
    the elimination meets a near-resonant level.
    """
    dphis = np.asarray(list(dphi_grid), dtype=float)
    sweep = flow_sweep(params)
    pair, diagonals, weights, eliminations = _sweep_eliminations(sweep, dphis)
    given = [e if d == 0.0 or abs(d) > CROSSING_DPHI_ATOL else None for d, e in zip(dphis.tolist(), eliminations)]
    states = pair.states(diagonals, given, weights, np.flatnonzero(dphis == 0.0))
    del pair, diagonals, weights  # the dense route needs none of them: free them before it allocates
    metrics = [_dense_metrics(sweep, dphi) if state is None else cat_amplitudes(state, sweep.basis)
               for dphi, state in zip(dphis.tolist(), states)]
    analytic = [math.nan if e is None or not params.equal_j else abs(effective_point(params, dphi, e).predicted_ratio)
                for dphi, e in zip(dphis.tolist(), eliminations)]
    u_over_j = ((params.u0 if params.dipolar else params.u) / params.j1) if params.j1 != 0 else math.nan
    header = ("N", "u_over_j", "dphi", "a0_re", "a0_im", "a1_re", "a1_im", "ratio", "captured_norm", "ratio_analytic")
    rows = [(params.n, u_over_j, dphi, m.a0.real, m.a0.imag, m.a1.real, m.a1.imag, m.ratio, m.captured_norm, ratio)
            for dphi, m, ratio in zip(dphis.tolist(), metrics, analytic)]
    return Table(header, rows, n=params.n, u_over_j=u_over_j, dphis=dphis, metrics=metrics,
                 ratio_analytic=np.array(analytic))
