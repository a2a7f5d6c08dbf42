"""Continuum 1-D loop: plane waves, phase twist, delta barrier and interaction.

A particle of mass m on a loop of circumference L threaded by phase twist phi
has plane-wave levels

    E_k(phi) = C (k - phi/2pi)^2,    C = (hbar^2 / 2m) (2pi / L)^2,

with integer winding number k.  A delta barrier of strength b at x0 couples
the plane waves and opens gaps at the crossings, wherever x0 is; a delta
interaction between atoms in product flow states contributes V per same-flow
pair and 2V per distinct-flow pair.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsupportedConfigurationError
from .util import write_csv


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


def loop_spectrum_with_barrier(
    params: LoopParams,
    phi: float,
    k_max: int,
    n_levels: int | None = None,
) -> np.ndarray:
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
    Rev. 15, 318 (1973)).  The sorted a_k interlace the levels; each is bisected in its own bracket
    until the midpoint equals an end, so coincident a_k give their deflated level exactly.
    """
    if k_max < 1:
        raise UnsupportedConfigurationError(f"k_max must be >= 1, got {k_max}")
    bad = phis[~np.isfinite(phis)]
    if bad.size:
        raise UnsupportedConfigurationError(f"phase twists must be finite, got {bad[0]}")
    dim = 2 * k_max + 1
    n_levels = dim if n_levels is None else n_levels
    if not 1 <= n_levels <= dim:
        raise UnsupportedConfigurationError(
            f"n_levels must be in [1, {dim}] for k_max={k_max}, got {n_levels}"
        )
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
        todo = np.arange(lo.size)
        while todo.size:
            mid = 0.5 * (lo[todo] + hi[todo])
            inside = (mid != lo[todo]) & (mid != hi[todo])
            todo, mid = todo[inside], mid[inside]
            with np.errstate(over="ignore", invalid="ignore"):  # a pole closer than 1/DBL_MAX dominates
                secular = 1.0 + rho * np.sum(1.0 / (a[todo // n_levels] - mid[:, None]), axis=1)
            above = (secular < 0.0) == (rho > 0.0)  # the root lies above the midpoint
            lo[todo[above]] = mid[above]
            hi[todo[~above]] = mid[~above]
        levels[start : start + step] = (0.5 * (lo + hi)).reshape(-1, n_levels)
    return levels


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

    ``analytic`` evaluates the closed-form value
    V (N/2) ((N-1)/(2L)) (2pi)^{-(N-1)}.  ``quadrature`` evaluates
    <psi_1| V sum_{i<j} delta(x_i - x_j) |psi_0> directly, collapsing each
    delta analytically and integrating the remaining N-1 periodic coordinates
    with a tensor-product trapezoid rule (spectrally accurate here).  The two
    are reported side by side with a discrepancy flag; no reconciliation is
    attempted.
    """
    if n < 2:
        raise UnsupportedConfigurationError(f"need at least two atoms for a pair coupling, got n={n}")
    v = params.v_interaction
    length = params.length
    analytic = v * (n / 2.0) * ((n - 1) / (2.0 * length)) * (2.0 * math.pi) ** (-(n - 1))

    if n > QUADRATURE_MAX_ATOMS:
        return LoopCouplingResult(
            analytic=analytic, quadrature=None, quadrature_available=False, discrepancy=None
        )

    # <psi_1| delta(x_i - x_j) |psi_0> with psi_0 = L^{-N/2} and
    # psi_1 = L^{-N/2} prod_m e^{i 2pi x_m / L}: after setting x_j = x_i the
    # integrand is e^{-i 4pi x_i / L} prod_{m != i,j} e^{-i 2pi x_m / L} / L^N.
    grid = np.arange(QUADRATURE_POINTS) * (length / QUADRATURE_POINTS)
    single = np.exp(-2j * math.pi * grid / length)
    double = np.exp(-4j * math.pi * grid / length)
    weight = (length / QUADRATURE_POINTS) ** (n - 1) / length**n

    axes = [double] + [single] * (n - 2)
    mesh = np.ones([QUADRATURE_POINTS] * (n - 1), dtype=complex)
    for axis, values in enumerate(axes):
        shape = [1] * (n - 1)
        shape[axis] = QUADRATURE_POINTS
        mesh = mesh * values.reshape(shape)
    pair_value = weight * mesh.sum()

    n_pairs = n * (n - 1) // 2
    quadrature = v * n_pairs * pair_value
    quad_real = float(abs(quadrature))
    flag = abs(quadrature - analytic) > max(1e-8, 1e-8 * abs(analytic))
    return LoopCouplingResult(
        analytic=analytic,
        quadrature=quad_real,
        quadrature_available=True,
        discrepancy=bool(flag),
    )


@dataclass
class LoopTable:
    """Barrier-split loop levels over a grid of phase twists, in units of C."""

    phis: np.ndarray
    n_levels: int
    energies_over_c: np.ndarray

    def rows(self):
        for phi, energies in zip(self.phis.tolist(), self.energies_over_c.tolist()):
            yield from ((phi, level, energy) for level, energy in enumerate(energies))

    def to_csv(self, path, comment: str | None = None) -> None:
        write_csv(path, ("phi", "level", "energy_over_C"), self.rows(), comment=comment)


def loop_sweep(
    params: LoopParams,
    phi_grid: Sequence[float],
    k_max: int,
    n_levels: int,
) -> LoopTable:
    """Sweep the barrier-split loop spectrum over phase twists in one secular solve."""
    phis = np.asarray(list(phi_grid), dtype=float)
    return LoopTable(
        phis=phis,
        n_levels=n_levels,
        energies_over_c=_barrier_levels(params, phis, k_max, n_levels) / params.c_energy,
    )
