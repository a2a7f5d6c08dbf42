"""Tests for the cat-state amplitude diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ringcat import cli
from ringcat import (
    ModelParams,
    NumericalContractError,
    UnsupportedConfigurationError,
    cat_amplitudes,
    catscan,
    effective_point,
    effective_report,
    eigensolve,
    embed_single_flow,
    enumerate_fock,
    flow_sweep,
    ground_cat_metrics,
    mode_transform_matrix,
)

N3_PARAMS = ModelParams(n=3, j=1.0, u=0.1)

# Independently computed exact and two-level amplitude ratios for N = 3,
# U/J = 0.1, at offsets dphi = 0, 0.05, ..., 0.3 from the crossing.
ORACLE_DPHIS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
ORACLE_RATIO_EXACT = [1.0, 0.046672, 0.02279, 0.014831, 0.010867, 0.0085, 0.006931]
ORACLE_RATIO_ANALYTIC = [1.0, 0.04645, 0.022573, 0.014621, 0.010661, 0.0083, 0.006736]


def test_pure_zero_flow_state():
    basis = enumerate_fock(3)
    m = cat_amplitudes(embed_single_flow(3, 0), basis)
    np.testing.assert_allclose(m.a0, 1.0, atol=1e-12)
    np.testing.assert_allclose(m.a1, 0.0, atol=1e-12)
    assert m.ratio > 1e12
    np.testing.assert_allclose(m.captured_norm, 1.0, atol=1e-12)


def test_exactly_vanishing_partner_amplitude_flagged():
    basis = enumerate_fock(3, "flow")
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index((3, 0, 0))] = 1.0
    m = cat_amplitudes(vec, basis)
    assert m.diverged and math.isinf(m.ratio)


def test_pure_clockwise_flow_state():
    basis = enumerate_fock(3)
    m = cat_amplitudes(embed_single_flow(3, 1), basis)
    np.testing.assert_allclose(abs(m.a1), 1.0, atol=1e-12)
    assert m.ratio == pytest.approx(0.0, abs=1e-12)
    assert not m.diverged


def test_flow_basis_amplitudes_read_directly():
    basis = enumerate_fock(3, "flow")
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index((3, 0, 0))] = 0.6
    vec[basis.index((0, 3, 0))] = 0.8j
    m = cat_amplitudes(vec, basis)
    np.testing.assert_allclose(m.a0, 0.6, atol=1e-14)
    np.testing.assert_allclose(m.a1, 0.8j, atol=1e-14)
    np.testing.assert_allclose(m.ratio, 0.75, atol=1e-14)
    np.testing.assert_allclose(m.theta, math.pi / 2.0, atol=1e-14)
    np.testing.assert_allclose(m.captured_norm, 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_flow_entries_equal_site_projections_phase_included(n):
    rng = np.random.default_rng(n)
    flow = enumerate_fock(n, "flow")
    vec = rng.normal(size=flow.dimension) + 1j * rng.normal(size=flow.dimension)
    in_flow = cat_amplitudes(vec, flow)
    in_site = cat_amplitudes(mode_transform_matrix(n) @ vec, enumerate_fock(n))
    np.testing.assert_allclose(in_flow.a0, in_site.a0, atol=1e-14)
    np.testing.assert_allclose(in_flow.a1, in_site.a1, atol=1e-14)


@pytest.mark.parametrize("sign, theta", [(1.0, 0.0), (-1.0, math.pi)])
def test_balanced_cat_phase(sign, theta):
    basis = enumerate_fock(2)
    state = (embed_single_flow(2, 0) + sign * embed_single_flow(2, 1)) / math.sqrt(2.0)
    m = cat_amplitudes(state, basis)
    np.testing.assert_allclose(m.ratio, 1.0, atol=1e-12)
    np.testing.assert_allclose(m.theta, theta, atol=1e-12)
    np.testing.assert_allclose(m.captured_norm, 1.0, atol=1e-12)


def test_metrics_are_global_phase_and_scale_invariant():
    basis = enumerate_fock(3)
    state = 0.3 * embed_single_flow(3, 0) - (0.4 + 0.2j) * embed_single_flow(3, 1)
    base = cat_amplitudes(state, basis)
    rotated = cat_amplitudes(2.7 * np.exp(0.7j) * state, basis)
    np.testing.assert_allclose(rotated.a0, base.a0, atol=1e-12)
    np.testing.assert_allclose(rotated.a1, base.a1, atol=1e-12)
    assert rotated.ratio == pytest.approx(base.ratio, rel=1e-12)
    assert rotated.theta == pytest.approx(base.theta, abs=1e-12)
    assert base.a0.imag == 0.0 and base.a0.real > 0.0


@pytest.mark.parametrize("a1_sign", [1.0, -1.0])
def test_real_state_and_its_negative_give_the_same_metrics(a1_sign):
    """A real state's a1 is real: a1_im is +0.0 whatever the sign of the vector."""
    basis = enumerate_fock(6, "flow")
    state = np.random.default_rng(5).uniform(0.1, 1.0, basis.dimension)
    state[basis.index((0, 6, 0))] *= a1_sign
    plus, minus = cat_amplitudes(state, basis), cat_amplitudes(-state, basis)
    assert repr(plus) == repr(minus)
    assert plus.a1.imag == 0.0 and not np.signbit(plus.a1.imag)


def test_zero_state_rejected():
    basis = enumerate_fock(2)
    with pytest.raises(NumericalContractError):
        cat_amplitudes(np.zeros(basis.dimension), basis)
    with pytest.raises(NumericalContractError):
        cat_amplitudes(np.zeros(4), basis)


def test_captured_norm_measures_pair_weight():
    basis = enumerate_fock(3)
    e0 = embed_single_flow(3, 0)
    filler = np.zeros(basis.dimension, dtype=complex)
    filler[basis.index((1, 1, 1))] = 1.0
    filler -= (e0.conj() @ filler) * e0
    e1 = embed_single_flow(3, 1)
    filler -= (e1.conj() @ filler) * e1
    filler /= np.linalg.norm(filler)
    state = 0.8 * e0 + 0.6 * filler
    m = cat_amplitudes(state, basis)
    np.testing.assert_allclose(m.captured_norm, 0.64, atol=1e-12)


def test_the_n3_crossing_row_is_the_level_with_the_larger_pair_weight():
    """At dphi = 0 the row is the one of the two lowest levels with the larger pair weight: at N = 3 the
    first excited level, a balanced cat that captures the whole pair weight."""
    from ringcat import build_site_hamiltonian

    result = eigensolve(build_site_hamiltonian(N3_PARAMS.with_phi(math.pi)), n_levels=2)
    basis = enumerate_fock(3)
    m0, m1 = (cat_amplitudes(result.vectors[:, i], basis) for i in range(2))
    m = ground_cat_metrics(N3_PARAMS, 0.0)
    assert m1.captured_norm > m0.captured_norm
    np.testing.assert_allclose(m.captured_norm, m1.captured_norm, atol=1e-12)
    np.testing.assert_allclose(m.captured_norm, 1.0, atol=1e-9)
    assert abs(m.a0) == abs(m.a1)


def test_the_dense_route_reports_the_lowest_level_itself(monkeypatch):
    """``_dense_metrics`` asks ``eigensolve`` for one level, also at dphi = 0, and takes the cat metrics of
    that eigenvector as it is."""
    from ringcat import catmetrics

    asked, solve = [], catmetrics.eigensolve

    def spy(operator, n_levels=None, **kwargs):
        asked.append(n_levels)
        return solve(operator, n_levels, **kwargs)

    monkeypatch.setattr(catmetrics, "eigensolve", spy)
    sweep = flow_sweep(ModelParams(n=7, u0=0.1, u1=0.05, dipolar=True))
    for dphi in (0.0, -0.3):
        operator = sweep.at(math.pi + dphi)
        expected = cat_amplitudes(solve(operator, n_levels=1).vectors[:, 0], operator.basis)
        assert catmetrics._dense_metrics(sweep, dphi) == expected
    assert asked == [1, 1]


@pytest.mark.parametrize("dphi", [1e-10, 1e-8])
def test_ratio_near_the_crossing_follows_the_two_level_prediction(dphi):
    """N = 24, U/J = 0.01: |v01| is about 1.5e-14, so the ratio is about
    5.5e-6 at dphi = 1e-10 and 5.5e-8 at 1e-8, far below the absolute
    accuracy of a dense eigenvector (the dense route gave 1.74e-9 at both)."""
    params = ModelParams(n=24, u=0.01)
    ratio = ground_cat_metrics(params, dphi).ratio
    np.testing.assert_allclose(ratio, abs(effective_point(params, dphi).predicted_ratio), rtol=0.01)


def test_ground_metrics_on_crossing_are_balanced():
    m = ground_cat_metrics(N3_PARAMS, 0.0)
    np.testing.assert_allclose(m.ratio, 1.0, atol=1e-8)
    assert m.captured_norm > 1.0 - 1e-9


def test_crossing_row_reports_the_first_excited_level():
    """On the crossing the row reports the level with the larger pair weight,
    which for contact N = 6 is the second level: its captured norm, 0.98995,
    is above the ground level's 0.98181."""
    params = ModelParams(n=6, j=1.0, u=0.1)
    row = catscan(params, [0.0]).metrics[0]
    operator = flow_sweep(params).at(math.pi)
    vectors = eigensolve(operator, n_levels=2).vectors
    ground, excited = (cat_amplitudes(vectors[:, i], operator.basis).captured_norm for i in (0, 1))
    np.testing.assert_allclose(row.captured_norm, excited, atol=1e-9)
    assert ground < excited - 1e-3


def test_ground_metrics_frozen_off_crossing():
    """Pinned end-to-end values at dphi = -0.1 (zero-flow dominated side)."""
    m = ground_cat_metrics(N3_PARAMS, -0.1)
    np.testing.assert_allclose(m.ratio, 43.8789978005713, rtol=1e-10)
    np.testing.assert_allclose(m.captured_norm, 0.997559867637953, rtol=1e-10)


def test_exact_ratio_against_independent_oracle():
    table = catscan(N3_PARAMS, ORACLE_DPHIS)
    got = [m.ratio for m in table.metrics]
    np.testing.assert_allclose(got, ORACLE_RATIO_EXACT, rtol=1e-4)
    np.testing.assert_allclose(table.ratio_analytic, ORACLE_RATIO_ANALYTIC, rtol=1e-4)


def test_two_level_ratio_tracks_exact_ratio():
    table = catscan(N3_PARAMS, [0.05, 0.1, 0.15, 0.2])
    for m, analytic in zip(table.metrics, table.ratio_analytic):
        assert abs(m.ratio - analytic) / m.ratio < 0.03


def test_catscan_metadata_and_csv(tmp_path):
    table = catscan(N3_PARAMS, [-0.05, 0.0, 0.05])
    assert table.n == 3
    assert table.u_over_j == pytest.approx(0.1)
    path = tmp_path / "catscan.csv"
    table.to_csv(path, comment="check")
    lines = path.read_text().splitlines()
    assert lines[0] == "# check"
    assert lines[1] == "N,u_over_j,dphi,a0_re,a0_im,a1_re,a1_im,ratio,captured_norm,ratio_analytic"
    assert len(lines) == 2 + 3
    assert lines[3].split(",")[0] == "3"


def test_catscan_thread_determinism():
    """Each row of a scan, which builds its operator once, equals the
    per-point metrics and prediction, for equal and unequal bonds."""
    grid = np.linspace(-0.1, 0.1, 7)
    for params in (N3_PARAMS, ModelParams(n=4, j=(1.0, 0.9, 1.1), u=0.1)):
        table = catscan(params, grid)
        for dphi, metrics, analytic in zip(grid, table.metrics, table.ratio_analytic):
            assert metrics == ground_cat_metrics(params, dphi)
            if params.equal_j:
                assert analytic == abs(effective_point(params, dphi).predicted_ratio)
            else:
                assert math.isnan(analytic)


def test_catscan_unequal_tunnelling_has_no_analytic_column():
    table = catscan(ModelParams(n=3, j=(1.0, 0.9, 1.1), u=0.1), [0.0, 0.1])
    assert np.all(np.isnan(table.ratio_analytic))
    for m in table.metrics:
        assert 0.0 < m.captured_norm <= 1.0


def test_dipolar_u_over_j_uses_onsite_strength():
    params = ModelParams(n=2, j=2.0, u0=0.5, u1=0.1, dipolar=True)
    table = catscan(params, [0.1])
    assert table.u_over_j == pytest.approx(0.25)


@pytest.mark.parametrize("dphi", [0.02, 0.05])
def test_captured_norm_non_increasing_in_interaction_strength(dphi):
    captured = [
        ground_cat_metrics(ModelParams(n=3, u=u), dphi).captured_norm
        for u in (0.05, 0.1, 0.2, 0.4)
    ]
    assert all(a >= b for a, b in zip(captured, captured[1:]))


def test_ratio_curve_steepens_with_atom_number():
    grid = np.linspace(0.0, 0.02, 11)

    def max_slope(n: int) -> float:
        ratios = [abs(ground_cat_metrics(ModelParams(n=n, u=0.1), d).ratio) for d in grid]
        return float(np.max(np.abs(np.gradient(ratios, grid))))

    assert max_slope(12) > max_slope(3)


def test_ratio_strictly_decreasing_in_detuning():
    ratios = [
        abs(ground_cat_metrics(ModelParams(n=3, u=0.1), d).ratio)
        for d in np.linspace(0.0, 0.3, 13)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def _recorded_eigh_sizes(monkeypatch) -> list[int]:
    """Record the size of every matrix larger than 2 x 2 handed to
    ``numpy.linalg.eigh``; the 1 x 1 and 2 x 2 ones are pair Gram matrices."""
    sizes: list[int] = []
    true_eigh = np.linalg.eigh

    def eigh(matrix):
        if matrix.shape[0] > 2:
            sizes.append(matrix.shape[0])
        return true_eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return sizes


def test_catscan_solves_one_quasi_momentum_block_per_point(monkeypatch):
    """N = 12 has 91 flow states in blocks of 31, 30 and 30.  Both members of
    the pair lie in the 31-state block k = 0, which holds the ground level
    off the crossing and both lowest levels on it.  Off the crossing the
    state comes from the elimination, and on it from the parity halves of
    that block, with no dense solve of any block."""
    sizes = _recorded_eigh_sizes(monkeypatch)
    catscan(ModelParams(n=12, u=0.1), [-0.3, -0.1, -0.02, 0.0, 0.02, 0.1, 0.3])
    assert sizes == []


def test_dipolar_row_whose_ground_state_lies_outside_the_pair_sector(tmp_path, monkeypatch):
    """Dipolar N = 6 at dphi = -0.2: the exact ground state (-5.0400) lies in
    block k = 2, below the lowest level of the pair's block k = 0 (-5.0144).
    The row then has no pair weight, while ratio_analytic describes the
    pair's own block.  The solve visits k = 1 first (smallest diagonal), skips
    k = 0 by its Cholesky factorisation, and solves k = 2, whose factorisation
    fails."""
    out = tmp_path / "catscan.csv"
    sizes = _recorded_eigh_sizes(monkeypatch)
    assert cli.main(["catscan", "--n", "6", "--u0", "0.1", "--u1", "0.05", "--dphi=-0.2", "--out", str(out)]) == 0
    assert sizes == [9, 9]
    header, row = out.read_text().splitlines()[1:]
    values = dict(zip(header.split(","), row.split(",")))
    assert [float(values[key]) for key in ("a0_re", "a0_im", "a1_re", "a1_im", "captured_norm")] == [0.0] * 5
    assert math.isnan(float(values["ratio"]))
    np.testing.assert_allclose(float(values["ratio_analytic"]), 0.48706, rtol=1e-4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry", [catscan, effective_report, lambda params, dphis: ground_cat_metrics(params, dphis[-1])],
    ids=["catscan", "effective_report", "ground_cat_metrics"],
)
def test_non_finite_offsets_are_a_configuration_error(entry, bad):
    with pytest.raises(UnsupportedConfigurationError, match=f"^phase offsets must be finite, got {bad}$"):
        entry(ModelParams(n=3, u=0.1), [0.1, bad])
