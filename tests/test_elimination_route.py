"""Differential test: the ground state from the elimination against the dense route.

Off the crossing, ``ground_cat_metrics`` builds the ground state of a flow
operator from ``lowdin_coupling``: c_P is the lowest eigenvector of the 2x2
H_eff(lam) and c_Q = -x c_P.  The reference is the lowest eigenvector of
``eigensolve``.  A dense eigenvector carries an absolute error of about
eps |H| / gap in every component, so the amplitudes are compared to TOL plus
that much; the elimination's own error is relative.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ringcat import (
    ModelParams,
    cat_amplitudes,
    catscan,
    crossing_pair_state,
    eigensolve,
    flow_sweep,
    ground_cat_metrics,
    lowdin_coupling,
)
from ringcat import catmetrics as catmetrics_module
from ringcat.catmetrics import CROSSING_DPHI_ATOL, _eliminated_ground_state

TOL = 1e-10
#: Measured |Delta| / (eps |H|_2 / gap) stayed below 0.62 over 300 random cases.
CONDITIONING_FACTOR = 10.0

bond = st.floats(0.5, 1.5)
contact = st.builds(lambda n, j, u: ModelParams(n=n, j=j, u=u), st.integers(1, 24), bond, st.floats(0.01, 0.5))
dipolar = st.builds(
    lambda n, j, u0, u1: ModelParams(n=n, j=j, u0=u0, u1=u1, dipolar=True),
    st.integers(1, 24),
    bond,
    st.floats(0.01, 0.5),
    st.floats(-0.2, 0.2),
)
unequal = st.builds(
    lambda n, j, u: ModelParams(n=n, j=j, u=u), st.integers(1, 12), st.tuples(bond, bond, bond), st.floats(0.01, 0.5)
)
#: Offsets off the crossing, from just above CROSSING_DPHI_ATOL to 0.3.
offset = st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(-11.0, -0.5))


def _dense(operator):
    """Cat metrics of the lowest eigenvector of ``eigensolve``, and the gap above it."""
    result = eigensolve(operator, n_levels=2)
    return cat_amplitudes(result.vectors[:, 0], operator.basis), result.energies[1] - result.energies[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(params=st.one_of(contact, dipolar, unequal), dphi=offset)
def test_elimination_route_matches_the_dense_route(params, dphi):
    assert abs(dphi) > CROSSING_DPHI_ATOL
    operator = flow_sweep(params).at(math.pi + dphi)
    fast = ground_cat_metrics(params, dphi, operator=operator)
    dense, gap = _dense(operator)
    event(f"elimination route: {_eliminated_ground_state(operator, None) is not None}")
    np.testing.assert_allclose(fast.captured_norm, dense.captured_norm, rtol=TOL, atol=TOL)
    atol = TOL + CONDITIONING_FACTOR * np.finfo(float).eps * np.linalg.norm(operator.matrix, 2) / gap
    np.testing.assert_allclose(abs(fast.a0), abs(dense.a0), rtol=TOL, atol=atol)
    np.testing.assert_allclose(abs(fast.a1), abs(dense.a1), rtol=TOL, atol=atol)


@pytest.mark.parametrize(
    "params",
    [ModelParams(n=24, u=0.01), ModelParams(n=12, u0=0.1, u1=-0.05, dipolar=True), ModelParams(n=8, j=(1.0, 0.9, 1.1), u=0.1)],
)
@pytest.mark.parametrize("dphi", [-0.3, -1e-6, 1e-9, 0.05])
def test_pair_block_ground_states_come_from_the_elimination(params, dphi):
    """Equal-bond contact and dipolar operators whose pair shares a block, and
    unequal bonds (one block), take their state from the elimination."""
    operator = flow_sweep(params).at(math.pi + dphi)
    state = _eliminated_ground_state(operator, lowdin_coupling(operator))
    assert state is not None
    np.testing.assert_allclose(np.linalg.norm(state), 1.0, rtol=1e-14)


def test_unequal_bond_scan_off_the_crossing_calls_no_dense_eigh(monkeypatch):
    sizes = []
    true_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or true_eigh(m))
    table = catscan(ModelParams(n=5, j=(1.0, 0.9, 1.1), u=0.1), [-0.2, -0.05, 0.0, 0.05, 0.2])
    assert sizes == [21, 2]  # the crossing row: one whole-operator solve and its 2 x 2 Gram matrix
    assert all(0.0 < m.captured_norm <= 1.0 for m in table.metrics)


@pytest.mark.parametrize(
    "params, dphis",
    [
        # Contact N = 7: the pair sits in blocks k = 0 and k = 1.
        (ModelParams(n=7, u=0.1), np.linspace(-0.4, 0.4, 81)),
        # Dipolar N = 6 at dphi = -0.2: the ground level lies in block k = 2,
        # below the pair's block, which the proof of the other blocks catches.
        (ModelParams(n=6, u0=0.1, u1=0.05, dipolar=True), [-0.2]),
    ],
)
def test_fallback_rows_equal_the_dense_route_exactly(params, dphis):
    table = catscan(params, dphis)
    sweep = flow_sweep(params)
    for dphi, row in zip(dphis, table.metrics):
        operator = sweep.at(math.pi + dphi)
        if abs(dphi) > CROSSING_DPHI_ATOL:
            assert _eliminated_ground_state(operator, lowdin_coupling(operator)) is None
        vectors = eigensolve(operator, n_levels=2 if abs(dphi) <= CROSSING_DPHI_ATOL else 1).vectors
        assert row == cat_amplitudes(crossing_pair_state(vectors, operator.basis), operator.basis)


def test_a_state_failing_the_residual_bound_falls_back(monkeypatch):
    """With a zero residual tolerance the assembled state is not accepted, and
    the row is the dense route's."""
    params, dphi = ModelParams(n=12, u=0.1), 0.05
    operator = flow_sweep(params).at(math.pi + dphi)
    assert _eliminated_ground_state(operator, None) is not None
    monkeypatch.setattr(catmetrics_module, "RESIDUAL_RTOL", 0.0)
    assert _eliminated_ground_state(operator, None) is None
    vectors = eigensolve(operator, n_levels=1).vectors
    assert ground_cat_metrics(params, dphi, operator=operator) == cat_amplitudes(vectors[:, 0], operator.basis)
