"""Cat-state diagnostics of exact ground states near the flow anti-crossing.

The ground state near phi = pi is dominated by the pair of flow Fock states
|N,0,0> (no flow) and |0,N,0> (one clockwise quantum per atom).  The metrics
report the two amplitudes a0 and a1, their magnitude ratio, relative phase,
and the weight |a0|^2 + |a1|^2 captured by the pair.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import FockBasis, embed_single_flow
from .effective import _PairElimination, _sweep_eliminations, branch_vector, default_flow_targets, effective_point
from .errors import NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import HermitianOperator, ModelParams, flow_sweep
from .solver import RESIDUAL_RTOL, eigensolve
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

    The global phase is fixed so that a0 is real and non-negative (if a0
    vanishes, so that a1 is); theta is then arg(a1) in (-pi, pi].  A vanishing
    a1 with finite a0 is reported as an infinite ratio and flagged.
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


def _eliminated_states(pair: _PairElimination, diagonals: np.ndarray, eliminations: list) -> list[np.ndarray | None]:
    """Ground state of the operator with each row of ``diagonals`` as its diagonal, from
    its elimination: c_P = ``branch_vector`` of H_eff(lam) on its lowest branch and
    c_Q = -x c_P.  None unless r > 0, the state passes the eigensolver's residual bound
    on the blocks that hold a target, and the kernel proves each other block free of
    levels up to lam + RESIDUAL_RTOL |H|_F, in one batch per block."""
    states, frobenius = [None] * len(eliminations), pair.scales(diagonals)[1]
    for b, elimination in enumerate(eliminations):
        if elimination is None:
            continue
        lam, ((a, v), (_, c)) = elimination.lam, elimination.heff
        eps = 0.5 * float(np.real(a - c))
        r = math.hypot(eps, abs(v))
        if r == 0.0:
            continue
        # Scaling by a power of two keeps the norm finite and changes no bit of the normalised state.
        c_p = branch_vector(eps, v, r) * math.ldexp(1.0, -math.frexp(r)[1])
        state = np.zeros(len(pair.diagonal), dtype=np.result_type(c_p, elimination.x))
        state[elimination.indices] = np.concatenate([c_p, -elimination.x @ c_p])
        state /= np.linalg.norm(state)
        local, d = state[pair.indices], diagonals[b, pair.indices]
        residual = np.max(np.abs(pair.matrix @ local + (d - np.diagonal(pair.matrix) - lam) * local))
        if residual <= RESIDUAL_RTOL * max(abs(lam), float(np.max(np.abs(d)))):
            states[b] = state
    tried = np.array([b for b, state in enumerate(states) if state is not None], np.intp)
    cuts = np.array([eliminations[b].lam for b in tried]) + RESIDUAL_RTOL * frobenius[tried]
    for members, layered in pair.others if len(tried) else ():
        shifted = diagonals[np.ix_(tried, members)] - cuts[:, None]
        for b, proven in zip(tried.tolist(), layered.solve(shifted, np.zeros((len(members), 0)), prove=True)[1]):
            states[b] = states[b] if proven else None
    return states


def _own_state(operator: HermitianOperator) -> np.ndarray | None:
    """``_eliminated_states`` of ``operator`` from one layout of its own pair and one ``eliminate``
    of one row; None where ``_PairElimination`` rejects it (a site operator, or too large a pair)."""
    try:
        pair = _PairElimination(operator)
    except UnsupportedConfigurationError:
        return None
    diagonals = pair.diagonal[None]
    return _eliminated_states(pair, diagonals, pair.eliminate(diagonals))[0]


def _ground_state(dphi: float, state: np.ndarray | None, build: Callable[[], HermitianOperator]) -> np.ndarray:
    """The state at pi + dphi: the eliminated ``state`` where it is proven, off the crossing.  Else
    ``eigensolve`` solves the blocks of the operator ``build()`` that can hold a requested level; for
    |dphi| <= ``CROSSING_DPHI_ATOL`` it is ``crossing_pair_state`` of the two lowest levels."""
    crossing = abs(dphi) <= CROSSING_DPHI_ATOL
    if state is None or crossing:
        h = build()
        state = crossing_pair_state(eigensolve(h, n_levels=2 if crossing else 1).vectors, h.basis)
    return state


def ground_cat_metrics(params: ModelParams, dphi: float, operator: HermitianOperator | None = None) -> CatMetrics:
    """Cat metrics of the exact ground state at phase twist pi + dphi.

    The state is ``_ground_state`` of ``operator`` (the flow Hamiltonian at pi +
    dphi unless given) and of its own elimination, ``_own_state``; on the crossing
    it is the one of the two lowest levels with the larger pair weight.  A ground
    state outside the pair's blocks (dipolar N = 6, dphi = -0.2) gives a0 = a1 = 0.
    """
    if operator is None:
        operator = flow_sweep(params).at(math.pi + dphi)
    return cat_amplitudes(_ground_state(dphi, _own_state(operator), lambda: operator), operator.basis)


def catscan(params: ModelParams, dphi_grid: Sequence[float]) -> Table:
    """Scan the exact cat metrics and the two-level prediction over offsets.

    The flow Hamiltonian is built once.  With equal bonds all offsets are eliminated in
    one batch (``_sweep_eliminations``) and give their state by ``_eliminated_states``;
    ``_ground_state`` solves an offset's operator only on the crossing or where the state
    is not proven.  With unequal bonds each offset's operator takes ``ground_cat_metrics``.
    The analytic ratio is nan there and where the elimination meets a near-resonant level.
    """
    dphis = np.asarray(list(dphi_grid), dtype=float)
    sweep = flow_sweep(params)
    if params.equal_j:
        pair, diagonals, eliminations = _sweep_eliminations(sweep, dphis)
        states = _eliminated_states(pair, diagonals, eliminations)
        del pair, diagonals  # the dense route needs neither: free them before it allocates
        metrics = [cat_amplitudes(_ground_state(dphi, state, lambda: sweep.at(math.pi + dphi)), sweep.basis)
                   for dphi, state in zip(dphis.tolist(), states)]
    else:
        metrics = [ground_cat_metrics(params, dphi, sweep.at(math.pi + dphi)) for dphi in dphis.tolist()]
        eliminations = [None] * len(dphis)
    analytic = [math.nan if elimination is None else abs(effective_point(params, dphi, elimination).predicted_ratio)
                for dphi, elimination in zip(dphis.tolist(), eliminations)]
    u_over_j = ((params.u0 if params.dipolar else params.u) / params.j1) if params.j1 != 0 else math.nan
    header = ("N", "u_over_j", "dphi", "a0_re", "a0_im", "a1_re", "a1_im", "ratio", "captured_norm", "ratio_analytic")
    rows = [(params.n, u_over_j, dphi, m.a0.real, m.a0.imag, m.a1.real, m.a1.imag, m.ratio, m.captured_norm, ratio)
            for dphi, m, ratio in zip(dphis.tolist(), metrics, analytic)]
    return Table(header, rows, n=params.n, u_over_j=u_over_j, dphis=dphis, metrics=metrics,
                 ratio_analytic=np.array(analytic))
