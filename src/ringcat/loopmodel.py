"""Continuum 1-D loop: plane waves, phase twist, delta barrier and interaction.

A particle of mass m on a loop of circumference L threaded by phase twist phi
has plane-wave levels

    E_k(phi) = C (k - phi/2pi)^2,    C = (hbar^2 / 2m) (2pi / L)^2,

with integer winding number k.  A delta barrier of strength b at x0 couples
the plane waves and opens gaps at the crossings, wherever x0 is; a delta
interaction between atoms in product flow states contributes V per same-flow
pair and 2V per distinct-flow pair.
"""

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsupportedConfigurationError
from .util import Table, level_rows

_MODEL_STEPS = 12  #: Model points tried in a bracket of ``_barrier_levels``, after which it only bisects.


@dataclass(frozen=True)
class LoopParams:
    """Loop geometry, barrier and interaction strengths (hbar, mass explicit)."""

    length: float = 1.0
    hbar: float = 1.0
    mass: float = 1.0
    barrier: float = 0.0
    v_interaction: float = 0.0

    def __post_init__(self):
        for name in ("length", "hbar", "mass", "barrier", "v_interaction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UnsupportedConfigurationError(f"{name} must be finite, got {value!r}")
            if name in ("length", "hbar", "mass") and not value > 0:
                raise UnsupportedConfigurationError(f"{name} must be positive, got {value!r}")
        try:
            c = self.c_energy
        except OverflowError:
            c = math.inf
        if not (math.isfinite(c) and c > 0):
            raise UnsupportedConfigurationError(f"C = (hbar^2/2m)(2pi/L)^2 must be finite and positive, got {c!r}")

    @property
    def c_energy(self) -> float:
        """Kinetic energy unit C = (hbar^2 / 2m) (2pi / L)^2."""
        return (self.hbar**2 / (2.0 * self.mass)) * (2.0 * math.pi / self.length) ** 2


def loop_single_energy(params: LoopParams, k: int, phi: float) -> float:
    """Energy C (k - phi/2pi)^2 of the winding-k plane wave."""
    return params.c_energy * (k - phi / (2.0 * math.pi)) ** 2


def applied_phase_velocity(params: LoopParams, phi: float) -> float:
    """Velocity (hbar/m) (phi/L) imparted by the phase twist."""
    return (params.hbar / params.mass) * (phi / params.length)


def single_flow_energy(params: LoopParams, k: int, phi: float, n: int) -> float:
    """Energy of n non-interacting atoms sharing the winding-k plane wave."""
    if n < 1:
        raise UnsupportedConfigurationError(f"need at least one atom, got n={n}")
    return n * loop_single_energy(params, k, phi)


def loop_spectrum_with_barrier(params: LoopParams, phi: float, k_max: int, n_levels: int | None = None) -> np.ndarray:
    """Single-particle levels with a delta barrier, in the plane-wave basis.

    The basis is k = -k_max .. k_max; the levels are the roots of the barrier's
    secular equation (``_barrier_levels``) and do not depend on its position.
    Returns the lowest ``n_levels`` energies (all of them by default).
    """
    return _barrier_levels(params, np.array([phi], dtype=float), k_max, n_levels)[0]


def _barrier_levels(params: LoopParams, phis: np.ndarray, k_max: int, n_levels: int | None) -> np.ndarray:
    """Lowest ``n_levels`` barrier levels at each phase of ``phis``, one row per phase.

    In the gauge u -> 1 the barrier (b/L)(u u^+ - I), u_k = e^{-2 pi i k x0/L}, is rank one: each
    level solves 1 + (b/L) sum_k 1/(a_k - E) = 0 with a_k = C (k - phi/2pi)^2 - b/L (Golub, SIAM
    Rev. 15, 318 (1973)).  The sorted a_k interlace the levels, each sought in its own bracket by the two-pole
    iteration of ``_secular`` (Bunch, Nielsen & Sorensen, Numer. Math. 31, 31 (1978)).  A model point up to 2 ulps
    outside the bracket moves to the float inside its end; one further out, and any after ``_MODEL_STEPS`` of them,
    gives way to the midpoint.  The computed secular function is monotone in E, so each level ends on the pair of
    adjacent floats that bisection ends on, where its sign changes; coincident a_k give their deflated level exactly.
    """
    if k_max < 1:
        raise UnsupportedConfigurationError(f"k_max must be >= 1, got {k_max}")
    bad = phis[~np.isfinite(phis)]
    if bad.size:
        raise UnsupportedConfigurationError(f"phase twists must be finite, got {bad[0]}")
    dim = 2 * k_max + 1
    n_levels = dim if n_levels is None else n_levels
    if not 1 <= n_levels <= dim:
        raise UnsupportedConfigurationError(f"n_levels must be in [1, {dim}] for k_max={k_max}, got {n_levels}")
    rho = params.barrier / params.length
    ks = np.arange(-k_max, k_max + 1)
    levels = np.empty((len(phis), n_levels))
    step = max(1, dim // n_levels)  # at most dim brackets, so each temporary is at most dim x dim
    for start in range(0, len(phis), step):
        shifts = ks - phis[start : start + step, None] / (2.0 * math.pi)
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.sort(params.c_energy * shifts**2 - rho, axis=1)
            # b > 0: a_i <= E_i <= a_{i+1}, the top level below a_top + (b/L) dim; b < 0 mirrors it.
            edge = a[:, -1:] + rho * dim if rho > 0 else a[:, :1] + rho * dim
        if not (np.isfinite(a).all() and np.isfinite(edge).all()):
            raise UnsupportedConfigurationError(
                "the brackets a_k = C (k - phi/2pi)^2 - b/L and a_k + (b/L)(2 k_max + 1) must be finite"
            )
        if rho == 0.0:
            levels[start : start + step] = a[:, :n_levels]
            continue
        ends = np.hstack([a, edge] if rho > 0 else [edge, a])
        lo, hi = ends[:, :n_levels].flatten(), ends[:, 1 : n_levels + 1].flatten()  # copies: they overlap
        bottom, top, steps, todo, probe = lo.copy(), hi.copy(), np.zeros(lo.size, int), np.arange(lo.size), lo + np.nan
        while True:
            mid = 0.5 * (lo[todo] + hi[todo])
            inside = (mid != lo[todo]) & (mid != hi[todo])
            todo, mid, probe = todo[inside], mid[inside], probe[inside]
            if not todo.size:
                break
            x = np.clip(probe, np.nextafter(lo[todo], np.inf), np.nextafter(hi[todo], -np.inf))
            model = (np.abs(x - probe) <= 2.0 * np.spacing(np.abs(x))) & (steps[todo] < _MODEL_STEPS)
            x = np.where(model, x, mid)
            steps[todo] += model
            above, probe = _secular(a[todo // n_levels], x, rho, x - bottom[todo], top[todo] - x)
            lo[todo[above]] = x[above]
            hi[todo[~above]] = x[~above]
        levels[start : start + step] = (0.5 * (lo + hi)).reshape(-1, n_levels)
    return levels


def _secular(a: np.ndarray, x: np.ndarray, rho: float, d_lo: np.ndarray, d_hi: np.ndarray) -> tuple:
    """(above, next) at each x: whether the secular function, summed over x's row of the sorted ``a`` in its order,
    puts the root above x, and the root in the bracket (the minus sign of c tau^2 - B tau - C0 = 0, E = x + tau) of
    c - s/(E - a_lo) + t/(a_hi - E), matched to g = sign(rho) (1 + rho sum_k 1/(a_k - E)) and the slopes of its sums
    below and above x = a_lo + ``d_lo`` = a_hi - ``d_hi`` (s or t is 0 at an edge).  A root within 2 units of x moves
    a unit past it, to close the bracket from the far side; a unit is an ulp, or eps / g' where g is flat over more."""
    with np.errstate(all="ignore"):  # a pole closer than 1/DBL_MAX dominates
        terms = 1.0 / (a - x[:, None])
        secular = 1.0 + rho * np.sum(terms, axis=1)
        above, g, lower = (secular < 0.0) == (rho > 0.0), math.copysign(1.0, rho) * secular, terms < 0.0
        terms *= abs(rho) * terms
        below, beyond = np.sum(terms, axis=1, where=lower), np.sum(terms, axis=1, where=~lower)
        c = g + below * d_lo - beyond * d_hi
        b, c0 = c * (d_hi - d_lo) + below * d_lo**2 + beyond * d_hi**2, d_lo * d_hi * g
        root = np.sqrt(b * b + 4.0 * c * c0)
        tau = np.where(b <= 0.0, (b - root) / (2.0 * c), -2.0 * c0 / (b + root))
        unit = np.maximum(np.spacing(np.abs(x)), np.finfo(float).eps / (below + beyond))
        return above, x + np.where(np.abs(tau) <= 2.0 * unit, tau + np.where(above, unit, -unit), tau)


def delta_interaction_expectation(occupations: Sequence[int], v: float) -> float:
    """Expectation of the pair delta interaction in a product flow state.

    With n_k atoms per flow mode and N = sum n_k, each same-flow pair
    contributes V and each distinct-flow pair 2V, i.e.

        V [ N (N - 1) - sum_k n_k (n_k - 1) / 2 ].
    """
    occ = [int(n) for n in occupations]
    if any(n < 0 for n in occ):
        raise UnsupportedConfigurationError(f"occupations must be non-negative, got {occupations!r}")
    n_total = sum(occ)
    return v * (n_total * (n_total - 1) - sum(n * (n - 1) for n in occ) / 2.0)


@dataclass
class LoopCouplingResult:
    """Printed coupling value and its direct-quadrature counterpart."""

    analytic: float
    quadrature: float | None
    quadrature_available: bool
    discrepancy: bool | None


#: Quadrature cost grows as grid^(N-1); beyond this the oracle is skipped.
QUADRATURE_MAX_ATOMS = 4
QUADRATURE_POINTS = 64


def loop_coupling_v01(params: LoopParams, n: int) -> LoopCouplingResult:
    """Coupling between the N-atom zero-flow and one-flow plane-wave states.

    ``analytic`` evaluates the closed-form value V (N/2) ((N-1)/(2L)) (2pi)^{-(N-1)}.  ``quadrature`` evaluates
    <psi_1| V sum_{i<j} delta(x_i - x_j) |psi_0> directly, collapsing each delta analytically and integrating the
    remaining N-1 periodic coordinates with a tensor-product trapezoid rule (spectrally accurate here).  The two are
    reported side by side with a discrepancy flag; no reconciliation is attempted.
    """
    if n < 2:
        raise UnsupportedConfigurationError(f"need at least two atoms for a pair coupling, got n={n}")
    v = params.v_interaction
    length = params.length
    analytic = v * (n / 2.0) * ((n - 1) / (2.0 * length)) * (2.0 * math.pi) ** (-(n - 1))

    if n > QUADRATURE_MAX_ATOMS:
        return LoopCouplingResult(analytic=analytic, quadrature=None, quadrature_available=False, discrepancy=None)

    # <psi_1| delta(x_i - x_j) |psi_0> with psi_0 = L^{-N/2} and psi_1 = L^{-N/2} prod_m e^{i 2pi x_m / L}: after
    # setting x_j = x_i the integrand is e^{-i 4pi x_i / L} prod_{m != i,j} e^{-i 2pi x_m / L} / L^N.
    grid = np.arange(QUADRATURE_POINTS) * (length / QUADRATURE_POINTS)
    single = np.exp(-2j * math.pi * grid / length)
    double = np.exp(-4j * math.pi * grid / length)
    weight = (length / QUADRATURE_POINTS) ** (n - 1) / length**n

    pair_value = weight * functools.reduce(np.multiply.outer, [double] + [single] * (n - 2)).sum()
    quadrature = v * (n * (n - 1) // 2) * pair_value
    flag = abs(quadrature - analytic) > max(1e-8, 1e-8 * abs(analytic))
    return LoopCouplingResult(analytic, float(abs(quadrature)), quadrature_available=True, discrepancy=bool(flag))


def loop_sweep(params: LoopParams, phi_grid: Sequence[float], k_max: int, n_levels: int) -> Table:
    """Sweep the barrier-split loop spectrum over phase twists in one secular solve."""
    phis = np.asarray(list(phi_grid), dtype=float)
    energies = _barrier_levels(params, phis, k_max, n_levels) / params.c_energy
    return Table(("phi", "level", "energy_over_C"), level_rows(phis, energies), phis=phis, n_levels=n_levels,
                 energies_over_c=energies)
