"""Tests for the two-level reduction: detuning, elimination, coupling paths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import (
    HermitianOperator,
    ModelParams,
    NearResonantIntermediateError,
    NumericalContractError,
    UnsupportedConfigurationError,
    build_coupling_graph,
    build_flow_hamiltonian,
    build_site_hamiltonian,
    catscan,
    default_flow_targets,
    effective_point,
    effective_report,
    eigensolve,
    enumerate_fock,
    epsilon_of_phi,
    flow_sweep,
    lowdin_coupling,
    path_coupling,
    path_normalisation,
    two_level_predict,
)
from ringcat import effective as effective_module
from ringcat.effective import _check_resonance, weighted_paths

N3_PARAMS = ModelParams(n=3, j=1.0, u=0.1)

# Frozen elimination results for N = 3, U/J = 0.1 at the crossing phi = pi.
N3_V01 = -0.00829796733089949
N3_LAMBDA = -2.8165959346618


@pytest.mark.parametrize(
    "phi, expected",
    [
        (math.pi, 0.0),
        (0.0, -3.0),  # J N (1 - 2 cos 0) with J = 1, N = 3
        (2 * math.pi, 6.0),  # J N (1 - 2 cos(2 pi / 3))
    ],
)
def test_epsilon_reference_values(phi, expected):
    np.testing.assert_allclose(epsilon_of_phi(N3_PARAMS, phi), expected, atol=1e-13)


def test_epsilon_requires_equal_tunnelling():
    with pytest.raises(UnsupportedConfigurationError):
        epsilon_of_phi(ModelParams(n=3, j=(1.0, 1.0, 1.2)), math.pi)


def test_two_level_matches_explicit_diagonalisation():
    e0, eps, v01 = -2.5, 0.3, -0.008 + 0.002j
    model = two_level_predict(e0, eps, v01)
    h2 = np.array([[e0 + eps, v01], [np.conj(v01), e0 - eps]])
    energies, vectors = np.linalg.eigh(h2)
    np.testing.assert_allclose(model.predicted_energies, energies, atol=1e-14)
    np.testing.assert_allclose(model.predicted_ratio, vectors[0, 0] / vectors[1, 0], atol=1e-12)
    np.testing.assert_allclose(
        model.predicted_ratio_excited, vectors[0, 1] / vectors[1, 1], atol=1e-12
    )


def test_two_level_balanced_at_zero_detuning():
    model = two_level_predict(-1.0, 0.0, -0.05)
    np.testing.assert_allclose(abs(model.predicted_ratio), 1.0, atol=1e-14)
    np.testing.assert_allclose(abs(model.predicted_ratio_excited), 1.0, atol=1e-14)
    np.testing.assert_allclose(model.predicted_energies, (-1.05, -0.95), atol=1e-14)


def test_two_level_detuning_equal_to_coupling():
    """At eps = |v01| the branch weights are 1/(sqrt(2)+1) and 1/(sqrt(2)-1)."""
    v = 0.04
    model = two_level_predict(0.0, v, -v)
    np.testing.assert_allclose(abs(model.predicted_ratio), 1.0 / (math.sqrt(2.0) + 1.0), atol=1e-12)
    np.testing.assert_allclose(
        abs(model.predicted_ratio_excited), 1.0 / (math.sqrt(2.0) - 1.0), atol=1e-12
    )


def test_analytic_ratio_is_finite_far_below_the_crossing():
    # At N = 36, eps + r rounds to exactly 0 for dphi <= -0.06.
    model = effective_point(ModelParams(n=36, u=0.1), -0.2)
    r = math.hypot(model.eps, abs(model.v01))
    assert model.eps < 0.0 and math.isfinite(abs(model.predicted_ratio))
    assert abs(model.predicted_ratio) == pytest.approx((r - model.eps) / abs(model.v01), rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    eps=st.floats(1e-3, 1e3).flatmap(lambda m: st.sampled_from([m, -m])),
    log_ratio=st.floats(-12.0, 1.0),
    angle=st.floats(-math.pi, math.pi),
)
def test_branch_ratios_are_reciprocal_in_magnitude(eps, log_ratio, angle):
    """(eps + r)(eps - r) = -|v01|^2 makes |ground ratio * excited ratio| = 1."""
    v01 = abs(eps) * 10.0**log_ratio * complex(math.cos(angle), math.sin(angle))
    model = two_level_predict(0.0, eps, v01)
    product = abs(model.predicted_ratio * model.predicted_ratio_excited)
    assert product == pytest.approx(1.0, rel=1e-12)


def test_two_level_degenerate_flagged():
    model = two_level_predict(1.0, 0.0, 0.0)
    assert model.degenerate
    assert math.isnan(model.predicted_ratio.real)


def test_default_targets_are_pure_flow_states():
    basis = enumerate_fock(3, "flow")
    t0, t1 = default_flow_targets(basis)
    assert basis.states[t0] == (3, 0, 0)
    assert basis.states[t1] == (0, 3, 0)


def test_elimination_frozen_coupling_n3():
    op = build_flow_hamiltonian(N3_PARAMS.with_phi(math.pi))
    result = lowdin_coupling(op)
    np.testing.assert_allclose(result.v01.real, N3_V01, rtol=1e-10)
    assert abs(result.v01.imag) < 1e-14
    np.testing.assert_allclose(result.lam, N3_LAMBDA, rtol=1e-11)
    assert result.heff.shape == (2, 2)
    np.testing.assert_allclose(result.heff, result.heff.conj().T, atol=1e-14)


@pytest.mark.parametrize("n, u", [(3, 0.1), (6, 0.1), (3, 1.0)])
def test_elimination_working_energy_is_exact_ground_energy(n, u):
    params = ModelParams(n=n, j=1.0, u=u, phi=math.pi)
    result = lowdin_coupling(build_flow_hamiltonian(params))
    exact = eigensolve(build_site_hamiltonian(params)).ground_energy
    np.testing.assert_allclose(result.lam, exact, atol=1e-9)


def test_elimination_diagonals_coincide_at_crossing():
    op = build_flow_hamiltonian(N3_PARAMS.with_phi(math.pi))
    result = lowdin_coupling(op)
    assert abs(result.heff[0, 0] - result.heff[1, 1]) < 1e-10


@pytest.mark.parametrize("n, u, rtol", [(3, 0.1, 1e-9), (3, 0.01, 1e-9), (6, 0.1, 0.02)])
def test_gap_at_crossing_is_twice_the_coupling(n, u, rtol):
    """For N = 3 the antisymmetric pair combination is an exact eigenstate at
    phi = pi, making the relation exact; for larger N the eliminated states
    shift the upper level by a percent-scale correction."""
    params = ModelParams(n=n, j=1.0, u=u, phi=math.pi)
    result = lowdin_coupling(build_flow_hamiltonian(params))
    energies = eigensolve(build_site_hamiltonian(params), n_levels=2).energies
    np.testing.assert_allclose(energies[1] - energies[0], 2.0 * abs(result.v01), rtol=rtol)


def test_elimination_requires_flow_basis():
    with pytest.raises(UnsupportedConfigurationError):
        lowdin_coupling(build_site_hamiltonian(N3_PARAMS.with_phi(math.pi)))


@pytest.mark.parametrize(
    "params, dphi", [(ModelParams(n=12, u=0.1), 0.05), (ModelParams(n=5, j=(1.0, 0.9, 1.1), u=0.1), -0.1)]
)
def test_elimination_keeps_the_solve_that_completes_an_eigenvector(params, dphi):
    """c_P, the lowest eigenvector of H_eff(lam), and c_Q = -x c_P placed on
    ``indices`` (the targets first) make an eigenvector of the operator at lam."""
    op = flow_sweep(params).at(math.pi + dphi)
    result = lowdin_coupling(op)
    assert tuple(result.indices[:2].tolist()) == default_flow_targets(op.basis)
    energies, vectors = np.linalg.eigh(result.heff)
    np.testing.assert_allclose(energies[0], result.lam, atol=1e-12)
    state = np.zeros(op.dimension, dtype=complex)
    state[result.indices] = np.concatenate([vectors[:, 0], -result.x @ vectors[:, 0]])
    state /= np.linalg.norm(state)
    np.testing.assert_allclose(op.matrix @ state, result.lam * state, atol=1e-12)


def _n3_operator_with_decoupled_level(offset):
    """The N = 3 flow Hamiltonian at pi with (1, 1, 1) decoupled and put
    ``offset`` above the lowest level of the targets and the other states."""
    op = build_flow_hamiltonian(N3_PARAMS.with_phi(math.pi))
    s = op.basis.index((1, 1, 1))
    rest = [i for i in range(op.dimension) if i != s]
    h = op.matrix.copy()
    h[s, :] = h[:, s] = 0.0
    h[s, s] = np.linalg.eigvalsh(h[np.ix_(rest, rest)])[0] + offset
    return HermitianOperator(h, op.basis)


@pytest.mark.parametrize("offset", [0.0, 1e-12])
def test_elimination_with_an_eliminated_level_at_the_working_energy_raises(offset):
    with pytest.raises(NearResonantIntermediateError, match="within"):
        lowdin_coupling(_n3_operator_with_decoupled_level(offset))


def test_elimination_with_a_separated_eliminated_level_does_not_raise():
    op = _n3_operator_with_decoupled_level(0.5)
    s = op.basis.index((1, 1, 1))
    result = lowdin_coupling(op)
    assert result.lam == pytest.approx(op.matrix[s, s].real - 0.5, abs=1e-12)
    assert np.linalg.eigvalsh(result.heff)[0] == pytest.approx(result.lam, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([3, 6, 9]),
    dphi=st.floats(-0.4, 0.4),
    dipolar=st.booleans(),
    u=st.floats(0.01, 1.0),
    u1=st.floats(0.0, 0.2),
)
def test_working_energy_is_the_block_ground_level_and_lowest_of_heff(n, dphi, dipolar, u, u1):
    if dipolar:
        params = ModelParams(n=n, u0=0.5 * u, u1=u1, dipolar=True, phi=math.pi + dphi)
    else:
        params = ModelParams(n=n, u=u, phi=math.pi + dphi)
    op = flow_sweep(params).at(params.phi)
    targets = default_flow_targets(op.basis)
    block = [*targets, *effective_module._elimination_space(op, targets)]
    result = lowdin_coupling(op)
    norm = np.linalg.norm(op.matrix, 2)
    assert abs(result.lam - np.linalg.eigvalsh(op.matrix[np.ix_(block, block)])[0]) <= 1e-12 * norm
    assert abs(np.linalg.eigvalsh(result.heff)[0] - result.lam) <= 1e-12 * norm


@pytest.mark.parametrize("dphi, lam, v01_abs", [(-0.2, -5.014443082, 0.0907), (-0.15, -5.032196703, 0.0476)])
def test_dipolar_elimination_away_from_the_crossing_stays_on_the_ground_branch(dphi, lam, v01_abs):
    """Dipolar N = 6 below the crossing, where an eliminated level lies below
    both targets: the working energy is the ground level of the block."""
    params = ModelParams(n=6, u0=0.1, u1=0.05, dipolar=True)
    result = lowdin_coupling(flow_sweep(params).at(math.pi + dphi))
    assert result.lam == pytest.approx(lam, abs=1e-9)
    assert abs(result.v01) == pytest.approx(v01_abs, abs=5e-5)
    assert np.linalg.eigvalsh(result.heff)[0] == pytest.approx(result.lam, abs=1e-12)


def test_coupling_graph_structure():
    h = np.array(
        [
            [0.0, 0.0, 0.5 + 0.1j, 0.0],
            [0.0, 1.0, 0.2, 0.0],
            [0.5 - 0.1j, 0.2, 2.0, 0.3],
            [0.0, 0.0, 0.3, 3.0],
        ]
    )
    graph = build_coupling_graph(h)
    assert set(graph.edges) == {(0, 2), (1, 2), (2, 3)}
    assert graph.neighbors(2) == (0, 1, 3)
    assert graph.edge_value(0, 2) == 0.5 + 0.1j
    assert graph.edge_value(2, 0) == 0.5 - 0.1j
    assert graph.connected_component(0) == {0, 1, 2, 3}
    paths = list(graph.simple_paths(0, 1, max_intermediates=2))
    assert paths == [(0, 2, 1)]
    assert list(graph.simple_paths(0, 1, max_intermediates=0)) == []


def test_coupling_graph_equality_is_identity():
    h = build_flow_hamiltonian(ModelParams(n=3, u=0.1, phi=math.pi))
    graph = build_coupling_graph(h)
    assert graph == graph
    assert graph != build_coupling_graph(h)  # compares without inspecting the arrays


def test_coupling_graph_rejects_non_hermitian_matrix():
    with pytest.raises(NumericalContractError):
        build_coupling_graph(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_path_sum_reproduces_explicit_four_state_formula():
    """Order-2 path sum against the fully expanded 4-state elimination series."""
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = v + v.conj().T
    np.fill_diagonal(h, [0.0, 2.3, -1.7, 0.1])
    lam = -3.1
    graph = build_coupling_graph(h)
    got = path_coupling(graph, (0, 3), lam, max_order=2)
    g1 = lam - h[1, 1].real
    g2 = lam - h[2, 2].real
    expected = (
        h[0, 3]
        + h[0, 1] * h[1, 3] / g1
        + h[0, 2] * h[2, 3] / g2
        + h[0, 1] * h[1, 2] * h[2, 3] / (g1 * g2)
        + h[0, 2] * h[2, 1] * h[1, 3] / (g2 * g1)
        - h[0, 3] * h[1, 2] * h[2, 1] / (g1 * g2)
    )
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("u, rel_bound", [(0.01, 1e-4), (0.001, 1e-6)])
def test_path_sum_approaches_exact_elimination_for_weak_interaction(u, rel_bound):
    params = ModelParams(n=3, j=1.0, u=u, phi=math.pi)
    op = build_flow_hamiltonian(params)
    exact = lowdin_coupling(op)
    graph = build_coupling_graph(op)
    perturbative = path_coupling(graph, default_flow_targets(op.basis), exact.lam, max_order=6)
    assert abs(perturbative - exact.v01) / abs(exact.v01) < rel_bound


@pytest.mark.parametrize("n", [4, 5])
def test_no_paths_for_incommensurate_atom_numbers(n):
    params = ModelParams(n=n, j=1.0, u=0.1, phi=math.pi)
    op = build_flow_hamiltonian(params)
    targets = default_flow_targets(op.basis)
    graph = build_coupling_graph(op)
    assert list(graph.simple_paths(*targets, max_intermediates=op.dimension)) == []
    assert path_coupling(graph, targets, -2.0 * n, max_order=op.dimension) == 0j


def test_path_sum_near_resonant_intermediate_raises():
    h = np.array([[0.0, 0.1, 0.0], [0.1, 1e-15, 0.2], [0.0, 0.2, 5.0]], dtype=complex)
    graph = build_coupling_graph(h)
    with pytest.raises(NearResonantIntermediateError):
        path_coupling(graph, (0, 2), 0.0, max_order=2)


def test_off_path_loop_factor_near_resonance_raises():
    h = np.array([[0.0, 0.1, 0.3], [0.1, 3.1, 0.0], [0.3, 0.0, 5.0]], dtype=complex)
    graph = build_coupling_graph(h)
    with pytest.raises(NearResonantIntermediateError):
        path_coupling(graph, (0, 2), 3.1, max_order=2)


@pytest.mark.parametrize(
    "params",
    [ModelParams(n=n, u=0.1) for n in (3, 6, 9)] + [ModelParams(n=3, j=(1.0, 0.9, 1.1), u=0.1)],
    ids=["3", "6", "9", "3-unequal"],
)
def test_normalised_all_orders_path_sum_equals_elimination_coupling(params):
    op = flow_sweep(params).at(math.pi)
    targets = default_flow_targets(op.basis)
    elimination = lowdin_coupling(op)
    graph = build_coupling_graph(op)
    all_orders = len(graph.connected_component(targets[0]))
    total = path_coupling(graph, targets, elimination.lam, max_order=all_orders)
    normalised = total / path_normalisation(graph, targets, elimination.lam)
    assert abs(normalised - elimination.v01) <= 1e-12 * abs(elimination.v01)


def test_path_sum_requires_distinct_targets():
    graph = build_coupling_graph(np.zeros((2, 2)))
    with pytest.raises(UnsupportedConfigurationError):
        path_coupling(graph, (1, 1), 0.0, max_order=2)


def test_effective_point_frozen_row():
    model = effective_point(N3_PARAMS, 0.1)
    np.testing.assert_allclose(model.eps, 0.174839519875226, rtol=1e-12)
    np.testing.assert_allclose(abs(model.v01), 0.00789730877320491, rtol=1e-10)
    np.testing.assert_allclose(abs(model.predicted_ratio), 0.0225729423247401, rtol=1e-10)
    np.testing.assert_allclose(
        model.predicted_energies, (-2.98124858179249, -2.63121301105113), rtol=1e-10
    )


def test_effective_report_crossing_row_is_balanced():
    table = effective_report(N3_PARAMS, [-0.1, 0.0, 0.1])
    assert abs(table.eps[1]) < 1e-12
    np.testing.assert_allclose(table.ratio_analytic[1], 1.0, atol=1e-9)
    np.testing.assert_allclose(
        table.e_plus[1] - table.e_minus[1], 2.0 * table.v01_abs[1], rtol=1e-12
    )
    assert np.all(table.e_minus < table.e_plus)


def test_effective_report_requires_equal_tunnelling():
    with pytest.raises(UnsupportedConfigurationError):
        effective_report(ModelParams(n=3, j=(1.0, 0.9, 1.0), u=0.1), [0.0])


def test_effective_report_thread_determinism():
    """Each row of the report, which builds its operator once, equals the
    per-point two-level prediction."""
    grid = np.linspace(-0.2, 0.2, 9)
    for params in (N3_PARAMS, ModelParams(n=6, j=1.0, u0=0.1, u1=0.05, dipolar=True)):
        table = effective_report(params, grid)
        for i, dphi in enumerate(grid):
            model = effective_point(params, dphi)
            assert table.v01_abs[i] == abs(model.v01)
            assert table.ratio_analytic[i] == abs(model.predicted_ratio)
            assert (table.e_minus[i], table.e_plus[i]) == model.predicted_energies


def test_dipolar_report_solves_the_exact_flow_operator():
    """effective, catscan and the elimination of the exact flow Hamiltonian
    agree for the dipolar interaction (the printed flow coefficients do not
    describe the site Hamiltonian)."""
    params = ModelParams(n=6, j=1.0, u0=0.1, u1=0.05, dipolar=True)
    dphi = 0.05
    report = effective_report(params, [dphi])
    scan = catscan(params, [dphi])
    v01 = lowdin_coupling(flow_sweep(params).at(math.pi + dphi)).v01
    np.testing.assert_allclose(report.ratio_analytic[0], scan.ratio_analytic[0], rtol=1e-12)
    np.testing.assert_allclose(report.v01_abs[0], abs(v01), rtol=1e-12)


def test_detuning_holds_half_the_self_energy_gap_of_the_targets():
    """The dipolar detuning adds (c_0 - c_1) N (N - 1) / 2 = U1 N (N - 1) / 2
    to eps(phi), which puts E_minus next to the exact ground energy (-5.6815 at
    dphi = 0.05); the contact row, whose gap is zero, keeps its values."""
    dphi = 0.05
    dipolar = effective_report(ModelParams(n=6, j=1.0, u0=0.1, u1=0.05, dipolar=True), [dphi])
    contact = effective_report(ModelParams(n=6, j=1.0, u=0.1), [dphi])
    np.testing.assert_allclose(
        next(dipolar.rows()),
        (dphi, 0.9240303761579068, 0.0012909636174508064, 0.0006985500806067759, -5.740990250780409, -3.892927694859117),
        rtol=1e-10,
    )
    np.testing.assert_allclose(
        next(contact.rows()),
        (dphi, 0.17403037615790673, 0.0014864150037194352, 0.0042704840635682875, -5.2098030903894825, -4.8617296426504994),
        rtol=1e-10,
    )
    assert dipolar.eps[0] - contact.eps[0] == pytest.approx(0.05 * 6 * 5 / 2, abs=1e-15)


@pytest.mark.parametrize("n", [3, 6])
def test_predicted_ground_energy_tracks_exact_near_crossing(n):
    """The two-level lower branch stays within 5% of the exact gap of the
    exact ground energy across the anti-crossing window."""
    base = ModelParams(n=n, u=0.1)
    for dphi in np.linspace(-0.1, 0.1, 11):
        model = effective_point(base, dphi)
        exact = np.linalg.eigvalsh(build_site_hamiltonian(base.with_phi(math.pi + dphi)).matrix)
        gap = exact[1] - exact[0]
        assert abs(model.predicted_energies[0] - exact[0]) <= 0.05 * gap


def test_coupling_magnitude_decreases_with_commensurate_atom_number():
    strengths = []
    for n in (3, 6, 9, 12):
        op = build_flow_hamiltonian(ModelParams(n=n, u=0.1, phi=math.pi))
        strengths.append(abs(lowdin_coupling(op).v01))
    assert all(a > b for a, b in zip(strengths, strengths[1:]))


def test_no_interaction_gives_exactly_zero_coupling():
    result = lowdin_coupling(build_flow_hamiltonian(ModelParams(n=3, u=0.0, phi=math.pi)))
    assert result.v01 == 0


@pytest.mark.parametrize("n", [2, 3, 7])
def test_detuning_slope_at_crossing(n):
    params = ModelParams(n=n, u=0.1)
    h = 1e-6
    slope = (epsilon_of_phi(params, math.pi + h) - epsilon_of_phi(params, math.pi - h)) / (2 * h)
    assert slope == pytest.approx(n * params.j1 / math.sqrt(3.0), rel=1e-6)


# ---------------------------------------------------------------------------
# Block enumeration and weighing of paths against the one-path-at-a-time code
# ---------------------------------------------------------------------------


def reference_simple_paths(graph, start, goal, max_intermediates):
    """Recursive depth-first enumeration over ascending neighbours."""
    path = [start]
    on_path = {start}

    def extend():
        node = path[-1]
        for other in graph.neighbors(node):
            if other == goal:
                yield tuple(path) + (goal,)
                continue
            if other in on_path or other == start or len(path) - 1 >= max_intermediates:
                continue
            path.append(other)
            on_path.add(other)
            yield from extend()
            path.pop()
            on_path.remove(other)

    if start == goal:
        return []
    return list(extend())


def reference_complement_factor(graph, nodes, lam):
    """det(lam - H) / prod(lam - e) over ``nodes``, one matrix built entry by entry."""
    if len(nodes) == 0:
        return 1.0 + 0j
    gaps = lam - graph.diagonal[nodes]
    scale = max(1.0, float(np.max(np.abs(graph.diagonal))))
    _check_resonance(gaps, lam, scale, lambda i: graph.describe_state(nodes[i]))
    m = np.zeros((len(nodes), len(nodes)), dtype=complex)
    pos = {node: idx for idx, node in enumerate(nodes)}
    for idx, node in enumerate(nodes):
        m[idx, idx] = 1.0
        for other in graph.neighbors(node):
            if other in pos:
                m[idx, pos[other]] = -graph.edge_value(node, other) / gaps[pos[other]]
    return complex(np.linalg.det(m))


def reference_weighted_paths(graph, targets, lam, max_order):
    """(path, bare weight, loop factor) one path at a time, each path checked
    for near-resonant intermediates and loop states of its own."""
    t0, t1 = targets
    component = graph.connected_component(t0)
    if t1 not in component:
        return []
    eliminated = component - {t0, t1}
    scale = max(1.0, float(np.max(np.abs(graph.diagonal))))
    out = []
    for path in reference_simple_paths(graph, t0, t1, max_order):
        intermediates = list(path[1:-1])
        gaps = lam - graph.diagonal[intermediates]
        _check_resonance(gaps, lam, scale, lambda i: graph.describe_state(intermediates[i]))
        weight = 1.0 + 0j
        for a, b in zip(path, path[1:]):
            weight *= graph.edge_value(a, b)
        for gap in gaps:
            weight /= gap
        out.append((path, weight, reference_complement_factor(graph, sorted(eliminated - set(path)), lam)))
    return out


def _outcome(fn):
    try:
        return fn()
    except NearResonantIntermediateError as exc:
        return ("resonance", str(exc), exc.occupation)


@st.composite
def sparse_hermitian_problems(draw):
    dim = draw(st.integers(2, 9))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=(dim, dim))
    if not real:
        v = v + 1j * rng.normal(size=(dim, dim))
    v *= rng.random((dim, dim)) < draw(st.floats(0.1, 0.9))
    h = np.triu(v, 1)
    h = h + h.conj().T
    np.fill_diagonal(h, 3.0 * rng.normal(size=dim))
    t0, t1 = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
    # A working energy either generic or exactly on one level, which is near
    # resonant when that level is eliminated.
    on_level = draw(st.none() | st.integers(0, dim - 1))
    lam = float(h[on_level, on_level].real) if on_level is not None else draw(st.floats(-8.0, 8.0))
    return h, (t0, t1), lam, draw(st.integers(0, dim)), real


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problem=sparse_hermitian_problems())
def test_block_paths_equal_the_one_path_at_a_time_reference(problem):
    h, targets, lam, max_order, real = problem
    graph = build_coupling_graph(h)
    assert list(graph.simple_paths(*targets, max_order)) == reference_simple_paths(graph, *targets, max_order)
    got = _outcome(lambda: list(weighted_paths(graph, targets, lam, max_order)))
    expected = _outcome(lambda: reference_weighted_paths(graph, targets, lam, max_order))
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert [path for path, _, _ in got] == [path for path, _, _ in expected]
    for (_, weight, factor), (_, ref_weight, ref_factor) in zip(got, expected):
        if real:
            # repr tells the signs of zero parts apart, which the CSV prints.
            assert repr(weight) == repr(ref_weight) and factor == ref_factor
        else:
            assert abs(weight - ref_weight) <= 1e-14 * abs(ref_weight)
            assert abs(factor - ref_factor) <= 1e-14 * abs(ref_factor)


def reference_component(graph, start):
    """States reachable from ``start``, by a breadth-first search over Python sets."""
    seen, frontier = {start}, {start}
    while frontier:
        frontier = {other for node in frontier for other in graph.neighbors(node)} - seen
        seen |= frontier
    return seen


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problem=sparse_hermitian_problems())
def test_graph_views_and_normalisation_equal_the_set_reference(problem):
    h, (t0, t1), lam, _, real = problem
    graph = build_coupling_graph(h)
    dim = len(h)
    expected_edges = {
        (i, j): complex(h[i, j]) for i in range(dim) for j in range(i + 1, dim) if abs(h[i, j]) > 1e-14
    }
    assert {k: repr(v) for k, v in graph.edges.items()} == {k: repr(v) for k, v in expected_edges.items()}
    for i in range(dim):
        assert graph.neighbors(i) == tuple(j for j in range(dim) if (min(i, j), max(i, j)) in expected_edges)
        assert graph.connected_component(i) == reference_component(graph, i)
        for j in range(i + 1, dim):
            assert graph.edge_value(i, j) == expected_edges.get((i, j), 0)
            if (i, j) in expected_edges:
                assert repr(graph.edge_value(j, i)) == repr(graph.edge_value(i, j).conjugate())
    component = reference_component(graph, t0)
    got = _outcome(lambda: path_normalisation(graph, (t0, t1), lam))
    expected = _outcome(
        lambda: reference_complement_factor(graph, sorted(component - {t0, t1}), lam) if t1 in component else 1.0 + 0j
    )
    if isinstance(expected, tuple) or real:
        assert got == expected
    else:
        assert abs(got - expected) <= 1e-14 * abs(expected)


def test_flow_paths_equal_the_reference_with_state_names_in_resonance_errors():
    op = build_flow_hamiltonian(ModelParams(n=6, u=0.1, phi=math.pi))
    graph = build_coupling_graph(op)
    targets = default_flow_targets(op.basis)
    lam = lowdin_coupling(op).lam
    assert list(weighted_paths(graph, targets, lam, 8)) == reference_weighted_paths(graph, targets, lam, 8)
    for path in reference_simple_paths(graph, *targets, 8)[:3]:
        # One level on the first path and one off it.
        for state in (path[1], min(graph.connected_component(targets[0]) - set(path))):
            on_level = float(graph.diagonal[state])
            with pytest.raises(NearResonantIntermediateError) as excinfo:
                list(weighted_paths(graph, targets, on_level, 8))
            assert excinfo.value.occupation == op.basis.states[state]
            assert _outcome(lambda: reference_weighted_paths(graph, targets, on_level, 8))[2] == (
                excinfo.value.occupation
            )


def test_no_paths_and_equal_targets():
    # Two components, {0, 1} and {2, 3}: no path between them, whatever the order.
    h = np.array([[0.0, 0.4, 0.0, 0.0], [0.4, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.3], [0.0, 0.0, 0.3, 3.0]])
    graph = build_coupling_graph(h)
    assert list(graph.simple_paths(0, 3, 4)) == []
    assert list(weighted_paths(graph, (0, 3), 1e-15, 4)) == []  # no path, so no resonance check
    assert path_coupling(graph, (0, 3), 0.5, max_order=4) == 0j
    assert list(graph.simple_paths(1, 1, 4)) == []
    with pytest.raises(UnsupportedConfigurationError):
        list(weighted_paths(graph, (1, 1), 0.5, 4))


def test_path_enumeration_cap(monkeypatch):
    op = build_flow_hamiltonian(ModelParams(n=9, u=0.1, phi=math.pi))
    graph = build_coupling_graph(op)
    targets = default_flow_targets(op.basis)
    assert len(list(graph.simple_paths(*targets, 9))) == 573
    monkeypatch.setattr(effective_module, "_MAX_PREFIXES", 100)
    with pytest.raises(UnsupportedConfigurationError, match="exceeds 100 path prefixes.*--max-order"):
        list(graph.simple_paths(*targets, 9))
    with pytest.raises(UnsupportedConfigurationError):
        path_coupling(graph, targets, -9.0, max_order=9)
