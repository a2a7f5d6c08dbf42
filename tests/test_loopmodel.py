"""Tests for the continuum loop model: plane waves, barrier, delta interaction."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringcat import (
    LoopParams,
    UnsupportedConfigurationError,
    applied_phase_velocity,
    delta_interaction_expectation,
    loop_coupling_v01,
    loop_single_energy,
    loop_spectrum_with_barrier,
    loop_sweep,
    single_flow_energy,
)


def test_params_validation_and_derived_quantities():
    with pytest.raises(UnsupportedConfigurationError):
        LoopParams(length=0.0)
    with pytest.raises(UnsupportedConfigurationError):
        LoopParams(mass=-1.0)
    p = LoopParams(length=2.0, hbar=2.0, mass=0.5)
    np.testing.assert_allclose(p.c_energy, (4.0 / 1.0) * math.pi**2, rtol=1e-14)


@pytest.mark.parametrize(
    "k, phi, expected_over_c",
    [
        (0, 0.0, 0.0),
        (1, 0.0, 1.0),
        (1, 2 * math.pi, 0.0),
        (-1, 0.0, 1.0),
        (0, math.pi, 0.25),
        (1, math.pi, 0.25),
    ],
)
def test_single_particle_flow_energies(k, phi, expected_over_c):
    p = LoopParams()
    np.testing.assert_allclose(
        loop_single_energy(p, k, phi), expected_over_c * p.c_energy, atol=1e-14
    )


def test_shared_flow_state_energy_scales_with_atom_number():
    p = LoopParams()
    np.testing.assert_allclose(
        single_flow_energy(p, 1, 0.5, 7), 7.0 * loop_single_energy(p, 1, 0.5), rtol=1e-14
    )
    with pytest.raises(UnsupportedConfigurationError):
        single_flow_energy(p, 1, 0.5, 0)


@pytest.mark.parametrize("phi", [0.0, 1.1, math.pi])
def test_spectrum_without_barrier_is_exact(phi):
    p = LoopParams()
    k_max = 6
    got = loop_spectrum_with_barrier(p, phi, k_max=k_max)
    ks = np.arange(-k_max, k_max + 1)
    expected = np.sort(p.c_energy * (ks - phi / (2.0 * math.pi)) ** 2)
    np.testing.assert_allclose(got, expected, atol=1e-12 * p.c_energy)


def test_spectrum_argument_validation():
    p = LoopParams()
    with pytest.raises(UnsupportedConfigurationError):
        loop_spectrum_with_barrier(p, 0.0, k_max=0)
    with pytest.raises(UnsupportedConfigurationError):
        loop_spectrum_with_barrier(p, 0.0, k_max=2, n_levels=9)


@pytest.mark.parametrize("n_levels", [0, 6, 9])
def test_sweep_rejects_level_counts_outside_the_basis(n_levels):
    """The sweep validates n_levels like the single-phase spectrum; it does not
    clamp it to the 2 k_max + 1 plane waves."""
    message = rf"n_levels must be in \[1, 5\] for k_max=2, got {n_levels}"
    with pytest.raises(UnsupportedConfigurationError, match=message):
        loop_sweep(LoopParams(), [0.0, math.pi], k_max=2, n_levels=n_levels)


def test_barrier_gap_at_crossing_matches_weak_barrier_estimate():
    """At phi = pi the k = 0, 1 levels anticross with splitting ~ 2 b / L."""
    p0 = LoopParams()
    relative_errors = []
    for fraction in (0.002, 0.005, 0.01):
        b = fraction * p0.c_energy * p0.length
        p = LoopParams(barrier=b)
        levels = loop_spectrum_with_barrier(p, math.pi, k_max=12, n_levels=2)
        gap = levels[1] - levels[0]
        expected = 2.0 * b / p.length
        relative_errors.append(abs(gap - expected) / expected)
    assert all(err < 0.02 for err in relative_errors)
    # the estimate is first order in b, so its error grows with b
    assert relative_errors[0] < relative_errors[1] < relative_errors[2]


@pytest.mark.parametrize(
    "occupations, pairs",
    [
        ((2, 0, 0), 1.0),  # one same-flow pair: V
        ((1, 1, 0), 2.0),  # one distinct-flow pair: 2V
        ((1, 1, 1), 6.0),  # three distinct-flow pairs: 6V
        ((2, 1, 0), 5.0),
        ((3, 0, 0), 3.0),
    ],
)
def test_delta_interaction_pair_counting(occupations, pairs):
    v = 0.7
    np.testing.assert_allclose(
        delta_interaction_expectation(occupations, v), pairs * v, rtol=1e-14
    )


def test_delta_interaction_rejects_negative_occupations():
    with pytest.raises(UnsupportedConfigurationError):
        delta_interaction_expectation((1, -1, 2), 1.0)


def test_coupling_analytic_reference_values():
    two = loop_coupling_v01(LoopParams(v_interaction=1.0), 2)
    np.testing.assert_allclose(two.analytic, 1.0 / (4.0 * math.pi), rtol=1e-14)
    three = loop_coupling_v01(LoopParams(v_interaction=1.0), 3)
    np.testing.assert_allclose(three.analytic, 1.5 / (4.0 * math.pi**2), rtol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coupling_quadrature_vanishes_and_is_flagged(n):
    """The direct overlap integral is zero by phase cancellation, so it
    disagrees with the nonzero printed value; both are reported."""
    result = loop_coupling_v01(LoopParams(v_interaction=1.0), n)
    assert result.quadrature_available
    assert result.quadrature == pytest.approx(0.0, abs=1e-12)
    assert result.analytic > 0.0
    assert result.discrepancy is True


def test_coupling_quadrature_skipped_for_many_atoms():
    result = loop_coupling_v01(LoopParams(v_interaction=1.0), 5)
    assert result.quadrature is None
    assert not result.quadrature_available
    assert result.discrepancy is None
    np.testing.assert_allclose(
        result.analytic, (5.0 / 2.0) * (4.0 / 2.0) * (2.0 * math.pi) ** -4, rtol=1e-14
    )


def test_coupling_needs_at_least_two_atoms():
    with pytest.raises(UnsupportedConfigurationError):
        loop_coupling_v01(LoopParams(v_interaction=1.0), 1)


def test_sweep_units_and_csv(tmp_path):
    p = LoopParams()
    phis = np.array([0.0, math.pi])
    table = loop_sweep(p, phis, k_max=5, n_levels=4)
    # in units of C at phi = 0: k = 0, +-1, -+2 -> 0, 1, 1, 4
    np.testing.assert_allclose(table.energies_over_c[0], [0.0, 1.0, 1.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(table.energies_over_c[1], [0.25, 0.25, 2.25, 2.25], atol=1e-12)
    path = tmp_path / "loop.csv"
    table.to_csv(path, comment="bare")
    lines = path.read_text().splitlines()
    assert lines[0] == "# bare"
    assert lines[1] == "phi,level,energy_over_C"
    assert len(lines) == 2 + 2 * 4


def test_sweep_thread_determinism():
    """Each row of a sweep equals the per-point spectrum."""
    p = LoopParams(barrier=0.2)
    phis = np.linspace(0.0, 2 * math.pi, 9)
    table = loop_sweep(p, phis, k_max=8, n_levels=3)
    for phi, row in zip(phis, table.energies_over_c):
        point = loop_spectrum_with_barrier(p, phi, k_max=8, n_levels=3)
        np.testing.assert_array_equal(row, point / p.c_energy)


def test_applied_phase_velocity_examples():
    params = LoopParams(length=1.0)
    assert applied_phase_velocity(params, 0.0) == 0.0
    assert applied_phase_velocity(params, 2.0 * math.pi) == pytest.approx(2.0 * math.pi)
    doubled = LoopParams(length=2.0)
    assert applied_phase_velocity(doubled, 1.0) == applied_phase_velocity(params, 1.0) / 2.0


@pytest.mark.parametrize("barrier_fraction", [0.02, 0.1])
def test_barrier_spectrum_refines_as_basis_doubles(barrier_fraction):
    """Plane-wave truncation error for a contact barrier decays like
    1/k_max, so doubling the cutoff shrinks the remaining shift."""
    unit = LoopParams(length=1.0)
    params = LoopParams(length=1.0, barrier=barrier_fraction * unit.c_energy * unit.length)
    c = params.c_energy
    levels = {
        k_max: np.asarray(loop_spectrum_with_barrier(params, math.pi, k_max=k_max, n_levels=4))
        for k_max in (8, 16, 32)
    }
    first = np.max(np.abs(levels[8] - levels[16]))
    second = np.max(np.abs(levels[16] - levels[32]))
    assert second < 0.7 * first
    assert first < 5e-3 * c * (barrier_fraction / 0.02) ** 2


def test_delta_expectation_permutation_invariant_and_pair_additive():
    reference = delta_interaction_expectation((3, 1, 2), 0.7)
    for occ in [(3, 2, 1), (1, 3, 2), (1, 2, 3), (2, 3, 1), (2, 1, 3)]:
        assert delta_interaction_expectation(occ, 0.7) == reference

    def pair_sum(occupations, v):
        flows = [k for k, n in enumerate(occupations) for _ in range(n)]
        total = 0.0
        for i in range(len(flows)):
            for j in range(i + 1, len(flows)):
                total += v if flows[i] == flows[j] else 2.0 * v
        return total

    for occ in [(3, 2, 1), (4, 0, 2), (1, 1, 1), (2, 0, 0)]:
        assert delta_interaction_expectation(occ, 0.7) == pytest.approx(pair_sum(occ, 0.7))


def test_analytic_coupling_decreases_with_fixed_successive_ratio():
    params = LoopParams(length=1.0, v_interaction=1.0)
    values = [loop_coupling_v01(params, n).analytic for n in range(3, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    for i, n in enumerate(range(3, 8)):
        expected = (n + 1) / (n - 1) / (2.0 * math.pi)
        assert values[i + 1] / values[i] == pytest.approx(expected, rel=1e-12)


def dense_barrier_spectrum(params: LoopParams, phi: float, k_max: int, x0: float) -> np.ndarray:
    """Reference: every eigenvalue of the dense plane-wave matrix of a barrier
    at ``x0``, with the kinetic energies on the diagonal and
    (b/L) e^{i (k' - k) 2pi x0 / L} off it."""
    ks = np.arange(-k_max, k_max + 1)
    h = np.diag(params.c_energy * (ks - phi / (2.0 * math.pi)) ** 2).astype(complex)
    off = (params.barrier / params.length) * np.exp(
        1j * 2.0 * math.pi * x0 / params.length * (ks[None, :] - ks[:, None])
    )
    np.fill_diagonal(off, 0.0)
    return np.linalg.eigvalsh(h + off)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    length=st.floats(0.2, 5.0),
    barrier=st.one_of(
        st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-20.0, 20.0), st.sampled_from([1e-12, -1e-12])
    ),
    x0_fraction=st.floats(0.0, 1.0),
    k_max=st.integers(1, 20),
    level_fraction=st.floats(0.0, 1.0),
    phi=st.one_of(st.sampled_from([0.0, math.pi, 2.0 * math.pi]), st.floats(-3 * math.pi, 3 * math.pi)),
)
@example(length=1.0, barrier=0.1, x0_fraction=0.5, k_max=20, level_fraction=1.0, phi=0.0)
@example(length=1.0, barrier=-0.1, x0_fraction=0.3, k_max=20, level_fraction=1.0, phi=math.pi)
@example(length=1.0, barrier=1e-3, x0_fraction=0.0, k_max=20, level_fraction=1.0, phi=2.0 * math.pi)
def test_secular_levels_match_dense_matrix(length, barrier, x0_fraction, k_max, level_fraction, phi):
    """The secular roots, which do not depend on where the barrier sits, are
    the levels of the dense matrix with the barrier anywhere on the loop."""
    params = LoopParams(length=length, barrier=barrier)
    dim = 2 * k_max + 1
    n_levels = 1 + int(level_fraction * (dim - 1))
    got = loop_spectrum_with_barrier(params, phi, k_max=k_max, n_levels=n_levels)
    expected = dense_barrier_spectrum(params, phi, k_max, x0_fraction * length)[:n_levels]
    tol = 1e-13 * (params.c_energy * (k_max + 1) ** 2 + abs(barrier) / length * dim)
    assert got.shape == (n_levels,)
    assert np.all(np.diff(got) >= 0.0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


def _mp_secular_levels(params: LoopParams, phi: float, k_max: int, n_levels: int) -> list:
    """Lowest roots of 1 + rho sum_k 1/(a_k - E) = 0 for rho > 0, bisected in
    40-digit arithmetic from the float inputs."""
    with mpmath.workdps(40):
        rho = mpmath.mpf(params.barrier) / mpmath.mpf(params.length)
        shift = mpmath.mpf(phi) / (2 * mpmath.pi)
        a = sorted(mpmath.mpf(params.c_energy) * (k - shift) ** 2 - rho for k in range(-k_max, k_max + 1))
        levels = []
        for i in range(n_levels):
            lo, hi = a[i], a[i + 1]
            for _ in range(80):
                mid = (lo + hi) / 2
                if 1 + rho * mpmath.fsum(1 / (ak - mid) for ak in a) < 0:
                    lo = mid
                else:
                    hi = mid
            levels.append((lo + hi) / 2)
        return levels


def test_barrier_levels_match_high_precision_secular_roots():
    """At k_max = 128 the lowest levels sit within 1e-14 C of a 40-digit
    solution; a dense solve is off by about eps |H| ~ 1e-12 C there."""
    params = LoopParams(barrier=0.1)
    c = params.c_energy
    phis = np.linspace(0.0, 2.0 * math.pi, 81)
    for phi in phis[[17, 33, 52]]:
        got = loop_spectrum_with_barrier(params, phi, k_max=128, n_levels=4)
        exact = _mp_secular_levels(params, float(phi), 128, 4)
        errors = [abs(mpmath.mpf(float(g)) - e) for g, e in zip(got, exact)]
        assert max(errors) < 1e-14 * c


def test_sweep_rejects_an_empty_plane_wave_cutoff():
    with pytest.raises(UnsupportedConfigurationError):
        loop_sweep(LoopParams(barrier=0.1), [0.0, 1.0], k_max=0, n_levels=4)


@pytest.mark.parametrize("name", ["length", "hbar", "mass", "barrier", "v_interaction"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(name, value):
    with pytest.raises(UnsupportedConfigurationError, match=f"{name} must be finite"):
        LoopParams(**{name: value})


@pytest.mark.parametrize("phi", [math.inf, -math.inf])
def test_levels_reject_non_finite_phases(phi):
    # NaN phases are tested in a child process with a timeout (test_cli.py):
    # a bisection on NaN brackets would never end and would hang the suite here.
    with pytest.raises(UnsupportedConfigurationError, match="phase twists must be finite"):
        loop_sweep(LoopParams(barrier=0.1), [0.0, phi], k_max=4, n_levels=4)
