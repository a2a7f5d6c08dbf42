"""Two-level reduction of the flow-state anti-crossing.

Near phase twist phi = pi the zero-flow state |N,0,0> and the single clockwise-flow state |0,N,0> are
quasi-degenerate.  Eliminating every other flow state yields an effective 2x2 model

    [[E0 + eps, v01], [conj(v01), E0 - eps]]

with detuning eps(phi) = J N - 2 J N cos(phi/3) and an effective coupling v01 obtained either by exact
elimination (resolvent / partitioning) or by a perturbative sum over coupling paths through intermediate states.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .basis import FockBasis, _ranks
from .errors import NearResonantIntermediateError, NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import (
    HermitianOperator, ModelParams, PhaseSweep, _dense_zeros, _flow_interaction_coefficients, flow_sweep
)
from .solver import RESIDUAL_RTOL, _Layered, _mixed
from .util import Table

#: An eliminated state within this many times the operator's scale (its largest entry,
#: or its largest diagonal entry in the path sum) of the working energy makes the
#: resolvent ill-conditioned.  The margin scales with H, as every result does.
RESONANCE_RTOL = 1e-10


def epsilon_of_phi(params: ModelParams, phi: float) -> float:
    """Detuning of the zero-flow level from its crossing-point energy: ``_detuning(params, phi - pi)``."""
    return _detuning(params, phi - math.pi)


def _detuning(params: ModelParams, dphi: float) -> float:
    """eps(pi + dphi) = J N - 2 J N cos((pi + dphi)/3) = J N (2 sin^2(dphi/6) + sqrt(3) sin(dphi/3)): exactly 0 at
    the crossing and not cancelling near it, slope J N / sqrt(3) there, -J N at phi = 0.  Requires equal tunnelling."""
    if not params.equal_j:
        raise UnsupportedConfigurationError("the two-level detuning eps(phi) requires equal tunnelling")
    return params.j1 * params.n * (2.0 * math.sin(dphi / 6.0) ** 2 + math.sqrt(3.0) * math.sin(dphi / 3.0))


def branch_vector(eps: float, v01, signed_r: float) -> np.ndarray:
    """Unnormalised eigenvector (c0, c1), in the dtype of ``v01``, of [[eps, v01], [conj(v01), -eps]] at
    -signed_r: (eps - signed_r, conj(v01)) where exactly one of eps and signed_r is negative, so that
    eps + signed_r may cancel, else (-v01, eps + signed_r).  Neither form squares |v01|.  On arrays it works
    elementwise, with the pair on the leading axis."""
    cancels = np.less(eps, 0.0) != np.less(signed_r, 0.0)
    pair = np.where(cancels, (eps - signed_r, np.conj(v01)), (-v01, eps + signed_r))
    return pair.astype(np.result_type(v01))


@dataclass
class TwoLevelModel:
    """Prediction of the effective 2x2 anti-crossing model.

    ``predicted_energies`` is (E0 - r, E0 + r) with r = sqrt(eps^2 + |v01|^2); ``predicted_ratio`` is the signed
    ground-state amplitude ratio a0/a1 of the zero-flow and clockwise-flow components, c0 / c1 of
    ``branch_vector(eps, v01, r)`` (inf where c1 = 0, nan where r = 0); the excited branch uses -r.
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


# --- Exact elimination (partitioning at the ground level of the target blocks) ---


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
    return basis.index((basis.n, 0, 0)), basis.index((0, basis.n, 0))


def _pair_blocks(operator: HermitianOperator) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """(members, block, held) for each block of ``operator``, held when it holds a ``default_flow_targets``
    state: the blocks that the pair reduction reads.  Every block of an operator without a basis is held."""
    pair = default_flow_targets(operator.basis) if operator.basis is not None else ()
    return [(m, h, not pair or any(t in m for t in pair)) for m, h in zip(operator.sectors, operator.blocks)]


class _PairElimination:
    """A flow operator laid out once for the layered kernel (``solver._Layered``): ``indices``, the targets P then
    the eliminated states Q (the rest of the blocks that hold a target; ``split`` where the targets lie in two); the
    ``matrix`` on them, with H_QQ layered; each other block layered; the diagonal; the ``edges`` above it and their
    values; and each state's ``partner`` under the swap of flow modes 0 and 1.  Row b of a batch has the diagonal
    ``diagonals[b]`` and adds ``weights[b]`` times the ``parts`` A + A^dagger and i (A - A^dagger) on P and Q of the
    off-diagonal ``hopping`` triplets A of a one-block operator: made from a sweep's H_0 and hopping, it serves every
    phase."""

    def __init__(self, operator: HermitianOperator, hopping: tuple = (np.zeros(0, np.intp),) * 3):
        if operator.basis is None or operator.basis.interpretation != "flow":
            raise UnsupportedConfigurationError("elimination expects a flow-basis operator")
        t0, t1 = targets = default_flow_targets(operator.basis)
        blocks = _pair_blocks(operator)
        space = np.concatenate([members for members, _, held in blocks if held])
        self.indices = np.concatenate([targets, space[(space != t0) & (space != t1)]])
        self.split = sum(held for _, _, held in blocks) > 1
        where, self.diagonal, self.others = np.empty(operator.dimension, np.intp), np.empty(operator.dimension), []
        where[self.indices] = np.arange(len(self.indices))
        self.partner = where[_ranks(operator.basis.occupations[self.indices][:, [1, 0, 2]])]
        self.matrix = _dense_zeros(len(self.indices), np.result_type(*operator.blocks))
        rows, cols, values = hopping
        self.parts = np.zeros((2 if len(values) else 0, *self.matrix.shape), complex if len(values) else self.matrix.dtype)
        for part, term in zip(self.parts, (values, 1j * values)):  # B + B^dagger for B = A, then i A
            np.add.at(part, (where[np.r_[rows, cols]], where[np.r_[cols, rows]]), np.r_[term, term.conj()])
        for members, h, held in blocks:
            if held:
                self.matrix[np.ix_(where[members], where[members])] = h
            else:
                self.others.append((members, _Layered(h)))
            self.diagonal[members] = np.diagonal(h).real
        self.qq = _Layered(self.matrix[2:, 2:], self.parts[:, 2:, 2:])
        self.pp, self.qp = (self.matrix[:2, :2], self.parts[:, :2, :2]), (self.matrix[2:, :2], self.parts[:, 2:, :2])
        self.edges = np.nonzero(np.triu((self.matrix != 0) | (self.parts != 0).any(axis=0), 1))  # (rows, cols) above
        rest = [h[np.triu(h != 0, 1)] for _, h, held in blocks if not held]  # other blocks only come without parts
        self.upper = np.concatenate([self.matrix[self.edges], *rest]), self.parts[:, self.edges[0], self.edges[1]]

    def scales(self, diagonals: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(``scale``, ``frobenius``) of the operator of each row of ``diagonals`` and ``weights``; no entry is squared."""
        off = np.abs(_mixed(*self.upper, weights))
        scale = np.maximum(np.max(off, axis=-1, initial=0.0), np.max(np.abs(diagonals), axis=1, initial=0.0))
        return scale, np.hypot(math.sqrt(2.0) * np.hypot.reduce(off, axis=-1), np.hypot.reduce(diagonals, axis=1))

    def _heff(self, d: np.ndarray, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """H_eff = H_PP - H_PQ x for each row of ``d``, the diagonal on P and Q, and of ``weights``."""
        h_pp = np.broadcast_to(_mixed(*self.pp, weights), (len(d), 2, 2)).copy()
        h_pp[:, 0, 0], h_pp[:, 1, 1] = d[:, 0], d[:, 1]
        return h_pp - np.swapaxes(_mixed(*self.qp, weights).conj(), -1, -2) @ x

    def _newton(self, d: np.ndarray, x: np.ndarray, weights: np.ndarray, prove: bool, k=0, pins=None) -> tuple:
        """(g, g', proven, y, c_P) at each row of ``d`` (the diagonal on P and Q), ``x`` and ``weights``, from one
        kernel solve y = (H_QQ - x)^{-1} H_QP: g = lambda_k(H_eff(x)) - x and g' = -1 - |y c_P|^2, c_P the unit k-th
        ``branch_vector`` of H_eff(x), or (1 - k, k) where its splitting r is 0; with ``pins``, c_P = pins[k] and g =
        c_P^T H_eff(x) c_P - x.  Below the lowest level of H_QQ, H_eff' = -y^dagger y, so g decreases."""
        y, proven = self.qq.solve(d[:, 2:] - x[:, None], _mixed(*self.qp, weights), prove, weights)
        heff = self._heff(d, y, weights)
        if pins is not None:
            g = np.einsum("bi,bij,bj->b", pins[k], heff.real, pins[k]) - x
            return g, -1.0 - np.sum(np.abs(y @ pins[k][:, :, None]) ** 2, axis=(1, 2)), proven, y, pins[k]
        h00, h11, v = heff[:, 0, 0].real, heff[:, 1, 1].real, heff[:, 0, 1]
        r, k = np.hypot(0.5 * (h00 - h11), np.abs(v)), np.broadcast_to(k, x.shape)
        c_p = np.where(r == 0.0, [1 - k, k], branch_vector(0.5 * (h00 - h11), v, (1 - 2 * k) * r))
        c_p = (c_p / np.linalg.norm(c_p, axis=0)).T
        # lambda_k = min or max(h00, h11) -+ |v|^2 / (r + |h00 - h11| / 2) does not cancel where |v| is small.
        shift = np.abs(v) * (np.abs(v) / (r + 0.5 * np.abs(h00 - h11) + (r == 0.0)))
        g = np.where(k, np.maximum(h00, h11) + shift, np.minimum(h00, h11) - shift) - x
        return g, -1.0 - np.linalg.norm(y @ c_p[:, :, None], axis=(1, 2)) ** 2, proven, y, c_p

    def _roots(self, d: np.ndarray, x: np.ndarray, weights: np.ndarray, top: np.ndarray, scale: np.ndarray,
               frobenius: np.ndarray, k: np.ndarray, pins=None) -> tuple[np.ndarray, np.ndarray]:
        """(roots, top) of g_k (``_newton``) on each row of ``d`` (the diagonal on P and Q), ``weights`` and ``k``,
        from ``x``; ``top`` is each row's highest proven x (-inf: none yet).  A row without a proven x steps down,
        twice as far below its start each time plus |H_QP|_F, to at most -|H|_F (below every level), until one is
        proven; from there Newton steps go on in a bracket (lo, hi) from (-|H|_F, inf): a proven x with g > 0 becomes
        lo, any other x hi (an unproven one lies above H_QQ's lowest level, so above any root), and a step outside
        the bracket becomes its midpoint.  A row ends once a proven step is at most 4 eps ``scale`` or moves x by
        nothing, or where its next x is not finite or one it has evaluated: hi, or lo once it has a proven x.  A
        row that proves no x has no root (nan)."""
        coupling = np.abs(np.broadcast_to(_mixed(*self.qp, weights), (len(d), *self.qp[0].shape))).reshape(len(d), -1)
        x0, b, lo, hi = x, np.hypot.reduce(coupling, axis=1), -frobenius, np.full(len(d), np.inf)
        x, top, roots, todo = x.copy(), top.copy(), np.full(len(d), np.nan), np.arange(len(d))
        with np.errstate(all="ignore"):
            while len(todo):
                at, prove = x[todo], bool((x[todo] > top[todo]).any())  # below a proven x, H_QQ - x is proven too
                g, slope, proven, _, _ = self._newton(d[todo], at, weights[todo], prove, k[todo], pins)
                top[todo], step = np.where(proven & prove, np.maximum(top[todo], at), top[todo]), at - g / slope
                done = proven & ((np.abs(g / slope) <= 4.0 * np.finfo(float).eps * scale[todo]) | (step == at))
                left, found = proven & (g > 0.0), top[todo] > -np.inf
                lo[todo], hi[todo] = np.where(left, at, lo[todo]), np.where(left, hi[todo], at)
                inside = done | proven & (lo[todo] < step) & (step < hi[todo])
                nxt = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
                x[todo] = nxt = np.where(found, nxt, np.maximum(lo[todo], 2.0 * at - x0[todo] - b[todo]))
                ended = done | ~np.isfinite(nxt) | (nxt == hi[todo]) | found & (nxt == lo[todo])
                roots[todo[ended & found]] = nxt[ended & found]
                todo = todo[~ended]
        return roots, top

    def eliminate(self, diagonals: np.ndarray, weights: np.ndarray | None = None) -> list[LowdinResult | None]:
        """``lowdin_coupling`` of each row of ``diagonals`` and ``weights``, batched; None where H_QQ is not proven
        above lam + RESONANCE_RTOL * ``scale``.  lam is the root of g(x) = lambda_min(H_eff(x)) - x (``_newton``),
        at or below x0, the lower level of H_PP, by ``_roots``.  Where H_QQ - x is proven positive definite, g is
        concave and decreasing up to x, so from x >= lam Newton steps descend onto lam; an unproven x0 first steps
        down to a proven x.  One more kernel call gives x at lam and the resonance proof of rows whose highest
        proven x lies within the margin of lam."""
        weights = np.zeros((len(diagonals), 0)) if weights is None else weights
        d, (scale, frobenius) = diagonals[:, self.indices], self.scales(diagonals, weights)
        x0 = 0.5 * (d[:, 0] + d[:, 1]) - np.hypot(0.5 * (d[:, 0] - d[:, 1]), np.abs(_mixed(*self.pp, weights)[..., 0, 1]))
        lam, top = self._roots(d, x0, weights, np.full(len(d), -np.inf), scale, frobenius, np.zeros(len(d), np.intp))
        margin = lam + RESONANCE_RTOL * scale
        covered = top >= margin
        rows, shifts = np.r_[np.arange(len(d)), np.flatnonzero(~covered)], np.r_[lam, margin[~covered]]
        y, proven = self.qq.solve(d[rows, 2:] - shifts[:, None], _mixed(*self.qp, weights[rows]), True, weights[rows])
        covered[~covered] = proven[len(d):]
        heff = self._heff(d, y[: len(d)], weights)
        return [LowdinResult(v01=complex(heff[b, 0, 1]), lam=float(lam[b]), heff=heff[b], indices=self.indices, x=y[b])
                if covered[b] else None for b in range(len(d))]

    def proven(self, diagonals: np.ndarray, eliminations: list) -> list[LowdinResult]:
        """``eliminations`` of the rows of ``diagonals`` (no parts), or the near-resonance error of the first None."""
        if None in eliminations:
            margin = RESONANCE_RTOL * self.scales(diagonals)[0][eliminations.index(None)]
            raise NearResonantIntermediateError(f"an eliminated level lies within {margin:.3e} of the working energy")
        return eliminations

    def _crossing(self, diagonal: np.ndarray, weights: np.ndarray, elimination: LowdinResult, scale: float,
                  frobenius: float) -> tuple | None:
        """(lam, x, c_P, top) of a doublet's level with the larger pair weight 1 / (1 + |x c_P|^2), and its upper
        level top; None where no doublet is proven.  The levels are the roots of g_k (``_newton``, k = 0, 1), by
        ``_roots`` from the pair's lam in two rows of one batch.  c_P is pinned where exact: (1, 0)
        and (0, 1) on a ``split`` pair, and (1, +-1) / sqrt(2) where P, swapping flow modes 0 and 1 (``partner``),
        gives max |H - PHP| <= 16 eps |H|_F without parts.  Once the kernel proves H_QQ (here) and every other
        block (``states``) above top + RESIDUAL_RTOL |H|_F, the roots are the two lowest levels (Haynsworth's
        inertia).  A split pair with P has degenerate levels and reports its |N,0,0> one; weights that tie to 8 eps
        take the lower level, P-odd where v01 > 0."""
        h, partner, (rows, cols), d = self.matrix, self.partner, self.edges, diagonal[self.indices]
        asymmetry = max(np.max(np.abs(h[rows, cols] - h[partner[rows], partner[cols]]), initial=0.0),
                        np.max(np.abs(d - d[partner])))
        symmetric = not len(self.parts) and asymmetry <= 16.0 * np.finfo(float).eps * frobenius
        pins = np.eye(2) if self.split else np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0) if symmetric else None
        d, weights, lam = np.array([d] * 3), np.array([weights] * 3), np.full(2, elimination.lam)  # proven up to lam
        x, _ = self._roots(d[:2], lam, weights[:2], lam, np.full(2, scale), np.full(2, frobenius), np.arange(2), pins)
        with np.errstate(all="ignore"):
            _, slope, proven, y, c_p = self._newton(d, np.r_[x, x.max() + RESIDUAL_RTOL * frobenius], weights, True,
                                                    np.array([0, 1, 1]), pins)
        weight, lower = -1.0 / slope[:2], int(elimination.v01.real > 0.0) if symmetric else int(np.argmin(x))
        pick = lower if abs(weight[0] - weight[1]) <= 8.0 * np.finfo(float).eps else int(weight[1] > weight[0])
        pick = 0 if self.split and symmetric else pick
        return (x[pick], y[pick], c_p[pick], x.max()) if proven[2] else None

    def states(self, diagonals: np.ndarray, eliminations: list, weights: np.ndarray, crossing=()) -> list:
        """Ground state of each row of ``diagonals`` and ``weights`` from its elimination, or on ``crossing`` rows the
        level of a doublet that ``_crossing`` finds: c_P = ``branch_vector`` of H_eff(lam) on its lowest branch ((1,
        0) where r = 0), or ``_crossing``'s, and c_Q = -x c_P.  None unless the state passes the eigensolver's
        residual bound and the kernel proves each other block free of levels up to lam (the doublet's top) +
        RESIDUAL_RTOL |H|_F, in one batch per block; a doublet that fails either gives way to the ground state,
        tried in a second batch."""
        (scale, frobenius), states, queue = self.scales(diagonals, weights), [None] * len(eliminations), {}
        for b, elimination in enumerate(eliminations):
            if elimination is None:
                continue
            lam, x, ((a, v), (_, c)) = elimination.lam, elimination.x, elimination.heff
            eps = 0.5 * float(np.real(a - c))
            r = math.hypot(eps, abs(v))
            # Scaling by a power of two keeps the norm finite and changes no bit of the normalised state.
            c_p = branch_vector(eps, v, r) * math.ldexp(1.0, -math.frexp(r)[1]) if r else np.array([1, 0], type(v))
            doublet = b in crossing and self._crossing(diagonals[b], weights[b], elimination, scale[b], frobenius[b])
            queue[b] = ([doublet] if doublet else []) + [(lam, x, c_p, lam)]
        while queue:  # each row's first candidate in one batch, then the ground state of rows whose doublet failed
            tried = []
            for b, (lam, x, c_p, top) in ((b, candidates.pop(0)) for b, candidates in queue.items()):
                state = np.zeros(len(self.diagonal), dtype=np.result_type(c_p, x))
                state[self.indices] = np.concatenate([c_p, -x @ c_p])
                state /= np.linalg.norm(state)
                local, d = state[self.indices], diagonals[b, self.indices]
                product = _mixed(self.matrix @ local, self.parts @ local, weights[b])
                residual = np.max(np.abs(product + (d - np.diagonal(self.matrix) - lam) * local))
                if residual <= RESIDUAL_RTOL * max(abs(lam), float(np.max(np.abs(d)))):
                    tried.append((b, state, top + RESIDUAL_RTOL * frobenius[b]))
            rows, cuts = np.array([row for row, _, _ in tried], np.intp), np.array([cut for _, _, cut in tried])
            free = np.ones(len(tried), bool)
            for members, layered in self.others:
                shifted = diagonals[np.ix_(rows, members)] - cuts[:, None]
                free &= layered.solve(shifted, np.zeros((len(members), 0)), prove=True)[1]
            for (b, state, _), ok in zip(tried, free.tolist()):
                states[b] = state if ok else None
            queue = {b: candidates for b, candidates in queue.items() if candidates and states[b] is None}
        return states


def lowdin_coupling(operator: HermitianOperator) -> LowdinResult:
    """Exact effective coupling between two flow states.

    The working energy lam is the lowest level of the blocks of the operator that hold a target, the
    target pair P and the eliminated states Q, and H_eff = H_PP - H_PQ (H_QQ - lam)^{-1} H_QP has lam as
    its lowest eigenvalue (Loewdin partitioning).  Unless H_QQ is proven above lam + RESONANCE_RTOL *
    ``scale`` (a zero operator never passes), a near-resonant-intermediate error is raised.  The result
    keeps x = (H_QQ - lam)^{-1} H_QP.  It is one row of ``_PairElimination.eliminate``, checked by ``proven``.
    """
    pair = _PairElimination(operator)
    return pair.proven(pair.diagonal[None], pair.eliminate(pair.diagonal[None]))[0]


def _sweep_eliminations(sweep: PhaseSweep, dphis: np.ndarray) -> tuple:
    """(pair, diagonals, weights, eliminations) at the offsets ``dphis`` from pi: the ``_PairElimination`` of
    the sweep's H_0 and off-diagonal hopping, each offset's diagonal and weights (cos, sin)(phi / 3) of the
    parts, and one batched ``pair.eliminate``; with equal bonds (no part) each row is ``lowdin_coupling``'s."""
    if not np.isfinite(dphis).all():
        raise UnsupportedConfigurationError(f"phase offsets must be finite, got {dphis[~np.isfinite(dphis)][0]}")
    phis, off = (math.pi + dphis).tolist(), sweep.rows != sweep.cols
    pair = _PairElimination(HermitianOperator._proven(sweep.base, sweep.basis, sweep.params, sweep.sectors),
                            (sweep.rows[off], sweep.cols[off], sweep.values[off]))
    diagonals = np.array([pair.diagonal + sweep._kinetic(phi) for phi in phis]).reshape(len(phis), len(pair.diagonal))
    weights = np.array([(math.cos(phi / 3.0), math.sin(phi / 3.0)) for phi in phis]).reshape(-1, 2)[:, : len(pair.parts)]
    return pair, diagonals, weights, pair.eliminate(diagonals, weights)


# --- Coupling graph and perturbative path sum ---

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

    ``edges`` is the only store of the edges: ``edges[i]`` maps each state j joined to i, inserted in ascending j,
    to the matrix element at [i, j]; below the diagonal it holds the conjugate of the entry above.  The path walks
    follow its keys.
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
        """Yield simple paths start -> goal with at most ``max_intermediates`` states strictly between the
        endpoints, in lexicographic order (the depth-first order over ascending neighbours).  The walk keeps its
        own stack of one neighbour iterator per state on the path, not the call stack, and yields each path as it
        reaches the goal.  A step is taken only if the goal stays within reach, counted in hops, of the
        intermediates left.  Extending more than ``_MAX_PREFIXES`` path prefixes raises a configuration error."""
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
    """Graph of states joined by matrix elements larger than ``EDGE_ATOL``, read block by block from an operator
    or a dense matrix, made a one-block ``HermitianOperator``.  ``diagonal`` comes from every block, the edges only
    from the blocks that hold a ``default_flow_targets`` state (those ``lowdin_coupling`` eliminates on, which hold
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
    """(lam - H) / (lam - e_col) over ``nodes``: 1 on the diagonal, -V_ij / (lam - e_j) on each edge, 0 elsewhere.
    The loop matrix of a subset of ``nodes`` is the submatrix on that subset."""
    position, gap = {node: k for k, node in enumerate(nodes.tolist())}, gaps.tolist()
    m = np.eye(len(nodes), dtype=complex)
    for row, node in enumerate(nodes.tolist()):
        for j, edge in graph.edges[node].items():
            if j in position:
                m[row, position[j]] = -edge / gap[j]
    return m


def _loop_factors(loop: np.ndarray, eliminated: np.ndarray, intermediates: np.ndarray) -> np.ndarray:
    """Loop determinants of the eliminated states off each path, for paths with ``intermediates`` rows of equal
    length, where ``loop`` is the loop matrix of all of ``eliminated`` (ascending): one batched determinant of its
    submatrices, each of which is 1 when no state is off the path."""
    off_path = np.ones((len(intermediates), len(eliminated)), bool)
    off_path[np.arange(len(intermediates))[:, None], np.searchsorted(eliminated, intermediates)] = False
    kept = np.nonzero(off_path)[1].reshape(len(intermediates), len(eliminated) - intermediates.shape[1])
    return np.linalg.det(loop[kept[:, :, None], kept[:, None, :]])


def _check_levels(graph: CouplingGraph, nodes: np.ndarray, gaps: np.ndarray, lam: float) -> None:
    """Raise on the state of ``nodes`` whose level is nearest to lam if its gap is at most RESONANCE_RTOL *
    max |diagonal|, so that a zero operator raises; ``gaps`` holds lam - e for every state."""
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
    """Yield (path, bare weight, loop factor) for each term of ``path_coupling``, in the order of
    ``CouplingGraph.simple_paths``.

    The bare weight is the path's contribution without the loop factor: its edges multiplied in path order, then
    the gap of each intermediate divided out in path order, in Python complex arithmetic.  Each path's
    intermediates and the eliminated states off it make up the whole eliminated component, so when a path exists
    that component is checked for near-resonant levels once.  The loop factors are weighed in blocks of paths,
    one batched determinant for the sets of intermediates of each order that are new (a factor depends only on
    the states off the path), with at most ``_BLOCK_ENTRIES`` entries in each.
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
        edges, gap, factors = graph.edges, gaps.tolist(), {}  # the loop factor of each sorted set of intermediates
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
        sets = [tuple(sorted(path[1:-1])) for path in block]
        new = list(dict.fromkeys(key for key in sets if key not in factors))
        for length in sorted({len(key) for key in new}):
            keys = [key for key in new if len(key) == length]
            factors.update(zip(keys, _loop_factors(loop, eliminated, np.array(keys, np.intp)).tolist()))
        yield from zip(block, weights, [factors[key] for key in sets])
        block = list(itertools.islice(paths, per_block))


def path_coupling(graph: CouplingGraph, targets: tuple[int, int], lam: float, max_order: int) -> complex:
    """Perturbative coupling as a sum over simple paths between the targets.

    Each path with intermediates (i, ..., p) contributes

        V_{0i} V_{i.} ... V_{p1} / [(lam - e_i) ... (lam - e_p)]

    multiplied by the loop-correction factor of the eliminated states off the path (so a direct edge also picks
    up terms like -V_{01} V_{23} V_{32} / ((lam - e_2)(lam - e_3))).  ``max_order`` caps the number of
    intermediate states per path; the direct edge is order zero.  Summed to all orders this reproduces the exact
    elimination coupling up to overall resolvent normalisation.
    """
    return sum((weight * factor for _, weight, factor in weighted_paths(graph, targets, lam, max_order)), 0j)


def path_normalisation(graph: CouplingGraph, targets: tuple[int, int], lam: float) -> complex:
    """Loop determinant of the eliminated states connected to the targets: det(lam - H) over them, normalised by
    prod(lam - diagonal).  Summed to all orders, ``path_coupling`` equals the elimination coupling times this
    factor (Loewdin partitioning written out path by path), so dividing by it normalises the path sum."""
    eliminated = _eliminated(graph, targets)
    if eliminated is None or len(eliminated) == 0:
        return 1.0 + 0j
    gaps = lam - graph.diagonal
    _check_levels(graph, eliminated, gaps, lam)
    return complex(np.linalg.det(_loop_matrix(graph, gaps, eliminated)))


# --- Report over a grid of phase offsets ---


def effective_point(params: ModelParams, dphi: float, elimination: LowdinResult | None = None) -> TwoLevelModel:
    """Two-level prediction at phase twist pi + dphi.

    The coupling and the centre energy E0 come from ``elimination`` when it is given, and otherwise from a
    one-offset ``_sweep_eliminations``, checked by ``_PairElimination.proven``: ``effective_report``'s row.  The
    detuning is ``_detuning(params, dphi)``, which needs equal tunnelling, plus half the self-energy gap of the
    targets, (c_0 - c_1) N (N - 1), zero for contact.
    """
    c_self = _flow_interaction_coefficients(params)[0]
    eps = _detuning(params, dphi) + (c_self[0] - c_self[1]) * params.n * (params.n - 1) / 2.0
    if elimination is None:
        pair, diagonals, _, eliminations = _sweep_eliminations(flow_sweep(params), np.array([dphi], dtype=float))
        elimination = pair.proven(diagonals, eliminations)[0]
    e0 = 0.5 * float(np.real(elimination.heff[0, 0] + elimination.heff[1, 1]))
    return two_level_predict(e0, eps, elimination.v01)


def effective_report(params: ModelParams, dphi_grid: Sequence[float]) -> Table:
    """Tabulate the two-level machinery over a grid of offsets from pi.  The flow Hamiltonian is built once, every
    offset eliminated in one batch (``_sweep_eliminations``) and checked by ``_PairElimination.proven``.  Like
    ``effective_point``, it needs equal tunnelling."""
    epsilon_of_phi(params, math.pi)  # refuses unequal bonds before any layout
    dphis, sweep = np.asarray(list(dphi_grid), dtype=float), flow_sweep(params)
    pair, diagonals, _, eliminations = _sweep_eliminations(sweep, dphis)
    models = [effective_point(params, d, e) for d, e in zip(dphis.tolist(), pair.proven(diagonals, eliminations))]
    rows = [(d, m.eps, abs(m.v01), abs(m.predicted_ratio), *m.predicted_energies)
            for d, m in zip(dphis.tolist(), models)]
    columns = np.array(rows).reshape(-1, 6).T
    return Table(("dphi", "eps", "v01_abs", "ratio_analytic", "E_minus", "E_plus"), rows,
                 **dict(zip(("dphis", "eps", "v01_abs", "ratio_analytic", "e_minus", "e_plus"), columns)))


def paths_report(params: ModelParams, max_order: int) -> Table:
    """``weighted_paths`` at ``params.phi`` as rows, their sum, it normalised, and ``lowdin_coupling``'s v01 and lam."""
    operator = flow_sweep(params).at(params.phi)
    targets = default_flow_targets(operator.basis)
    elimination = lowdin_coupling(operator)
    graph = build_coupling_graph(operator)
    labels = ["-".join(map(str, occ)) for occ in operator.basis.states]
    rows = []
    total = 0j
    for index, (path, weight, factor) in enumerate(weighted_paths(graph, targets, elimination.lam, max_order)):
        rows.append((index, len(path) - 2, ">".join([labels[i] for i in path]), weight.real, weight.imag))
        total += weight * factor
    return Table(("path_index", "n_intermediates", "path", "weight_re", "weight_im"), rows, total=total,
                 normalised=total / path_normalisation(graph, targets, elimination.lam),
                 v01=elimination.v01, lam=elimination.lam)
