"""Differential test: the ground state from the elimination against the dense route.

Off the crossing, ``ground_cat_metrics`` builds the ground state of a flow
operator from the sweep's elimination of its pair (``_sweep_eliminations``): c_P
is the lowest eigenvector of the 2x2 H_eff(lam) and c_Q = -x c_P.  The reference
is the lowest eigenvector of ``eigensolve``.  A dense eigenvector carries an
absolute error of about eps |H| / gap in every component, so the amplitudes
are compared to TOL plus that much; the elimination's own error is relative.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ringcat import (
    ModelParams, cat_amplitudes, catscan, cli, crossing_pair_state, effective_point, eigensolve, flow_sweep,
    ground_cat_metrics,
)
from ringcat import effective as effective_module
from ringcat.catmetrics import CROSSING_DPHI_ATOL
from ringcat.effective import _PairElimination, _sweep_eliminations

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


def _swept_state(params, dphi):
    """The eliminated state at pi + dphi as ``catscan`` builds it, from a one-offset sweep; None where unproven."""
    pair, diagonals, weights, eliminations = _sweep_eliminations(flow_sweep(params), np.array([dphi]))
    return pair.states(diagonals, eliminations, weights)[0]


def _dense(operator):
    """Cat metrics of the lowest eigenvector of ``eigensolve``, and the gap above it."""
    result = eigensolve(operator, n_levels=2)
    return cat_amplitudes(result.vectors[:, 0], operator.basis), result.energies[1] - result.energies[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(params=st.one_of(contact, dipolar, unequal), dphi=offset)
def test_elimination_route_matches_the_dense_route(params, dphi):
    assert abs(dphi) > CROSSING_DPHI_ATOL
    operator = flow_sweep(params).at(math.pi + dphi)
    fast = ground_cat_metrics(params, dphi)
    dense, gap = _dense(operator)
    event(f"elimination route: {_swept_state(params, dphi) is not None}")
    np.testing.assert_allclose(fast.captured_norm, dense.captured_norm, rtol=TOL, atol=TOL)
    atol = TOL + CONDITIONING_FACTOR * np.finfo(float).eps * np.linalg.norm(operator.matrix, 2) / gap
    np.testing.assert_allclose(abs(fast.a0), abs(dense.a0), rtol=TOL, atol=atol)
    np.testing.assert_allclose(abs(fast.a1), abs(dense.a1), rtol=TOL, atol=atol)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(n=24, u=0.01),
        ModelParams(n=12, u0=0.1, u1=-0.05, dipolar=True),
        ModelParams(n=8, j=(1.0, 0.9, 1.1), u=0.1),
        ModelParams(n=7, u=0.1),
        ModelParams(n=35, u=0.1),
    ],
)
@pytest.mark.parametrize("dphi", [-0.3, -1e-6, 1e-9, 0.05])
def test_pair_block_ground_states_come_from_the_elimination(params, dphi):
    """Equal-bond contact and dipolar operators whose pair shares a block or
    is split over two (N = 7, 35), and unequal bonds (one block), take their
    state from the elimination."""
    state = _swept_state(params, dphi)
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
        # Dipolar N = 7 for dphi in [-0.29, -0.22]: the pair sits in blocks
        # k = 0 and k = 1, and the ground level in block k = 2.
        (ModelParams(n=7, u0=0.1, u1=0.05, dipolar=True), np.linspace(-0.29, -0.22, 8)),
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
            assert _swept_state(params, dphi) is None
        vectors = eigensolve(operator, n_levels=2 if abs(dphi) <= CROSSING_DPHI_ATOL else 1).vectors
        assert row == cat_amplitudes(crossing_pair_state(vectors, operator.basis), operator.basis)


def test_a_state_failing_the_residual_bound_falls_back(monkeypatch):
    """With a zero residual tolerance the assembled state is not accepted, and
    the row is the dense route's."""
    params, dphi = ModelParams(n=12, u=0.1), 0.05
    operator = flow_sweep(params).at(math.pi + dphi)
    assert _swept_state(params, dphi) is not None
    monkeypatch.setattr(effective_module, "RESIDUAL_RTOL", 0.0)
    assert _swept_state(params, dphi) is None
    vectors = eigensolve(operator, n_levels=1).vectors
    assert ground_cat_metrics(params, dphi) == cat_amplitudes(vectors[:, 0], operator.basis)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(n=7, u0=0.1, u1=0.05, dipolar=True),
        ModelParams(n=5, u0=0.1, u1=0.05, dipolar=True),
        ModelParams(n=5, u=-0.3),
    ],
)
def test_split_pair_scans_match_the_dense_route(params):
    """Pairs split over two blocks, over the CLI's default grid, including
    offsets where the block holding neither target holds the ground level."""
    dphis = np.linspace(-0.4, 0.4, 81)
    table = catscan(params, dphis)
    sweep = flow_sweep(params)
    for dphi, fast in zip(dphis, table.metrics):
        operator = sweep.at(math.pi + dphi)
        if abs(dphi) <= CROSSING_DPHI_ATOL:
            continue
        dense, gap = _dense(operator)
        atol = TOL + CONDITIONING_FACTOR * np.finfo(float).eps * np.linalg.norm(operator.matrix, 2) / gap
        np.testing.assert_allclose(fast.captured_norm, dense.captured_norm, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(abs(fast.a0), abs(dense.a0), rtol=TOL, atol=atol)
        np.testing.assert_allclose(abs(fast.a1), abs(dense.a1), rtol=TOL, atol=atol)


def test_the_proof_holds_where_the_squared_norm_overflows():
    """At U = 1e200 the squared Frobenius norm overflows; taken in units of
    the largest entry it does not, so the state is proven, and the row is the
    dense route's."""
    params, dphi = ModelParams(n=3, u=1e200), 0.05
    operator = flow_sweep(params).at(math.pi + dphi)
    assert np.isinf(np.vdot(operator.matrix, operator.matrix))
    assert _swept_state(params, dphi) is not None
    fast = ground_cat_metrics(params, dphi)
    dense, _ = _dense(operator)
    for got, want in ((fast.captured_norm, dense.captured_norm), (abs(fast.a0), abs(dense.a0)), (abs(fast.a1), abs(dense.a1))):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture
def pair_calls(monkeypatch):
    """Counts of ``_PairElimination`` layouts (``__init__``) and ``eliminate`` calls."""
    calls = {"__init__": 0, "eliminate": 0}
    for name in calls:
        def counted(*args, _name=name, _method=getattr(_PairElimination, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(_PairElimination, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, layouts, eliminations",
    [
        # Unequal bonds: one layout and one batch for every offset, as with equal bonds.
        (["--n", "24", "--j", "1,0.9,1.1", "--dphi=-0.2:0.2:9"], 1, 1),
        # Dipolar N = 7: the 8 rows in [-0.29, -0.22] that the batch cannot prove
        # go straight to the dense route.
        (["--n", "7", "--u0", "0.1", "--u1", "0.05"], 1, 1),
        # The near-resonant row at dphi = 6.5 is not eliminated again.
        (["--n", "3", "--u", "0", "--dphi", "0.1:6.5:2"], 1, 1),
        # An equal-bond scan: one layout and one batch for every offset.
        (["--n", "36", "--dphi=-0.2:0.2:3"], 1, 1),
    ],
)
def test_each_scan_lays_out_and_eliminates_each_pair_once(argv, layouts, eliminations, tmp_path, pair_calls):
    assert cli.main(["catscan", *argv, "--out", str(tmp_path / "c.csv")]) == 0
    assert pair_calls == {"__init__": layouts, "eliminate": eliminations}


def test_a_near_resonant_effective_offset_is_not_eliminated_again(tmp_path, pair_calls, capsys):
    """The batch's own verdict and scale raise the exit-3 error of a standalone elimination."""
    assert cli.main(["effective", "--n", "3", "--u", "0", "--dphi", "0.1:6.5:2", "--out", str(tmp_path / "e.csv")]) == 3
    assert capsys.readouterr().err == (
        "ringcat: numerical contract violation: an eliminated level lies within 5.984e-10 of the working energy\n"
    )
    assert pair_calls == {"__init__": 1, "eliminate": 1}


def test_a_crossing_without_parity_is_laid_out_once_and_solved_densely(pair_calls):
    """A dipolar crossing (U1 != 0 breaks the parity of the halves) is eliminated once, with its
    sweep, for its analytic ratio; its state is the dense route's."""
    params = ModelParams(n=3, u0=0.1, u1=0.05, dipolar=True)
    metrics = ground_cat_metrics(params, 0.0)
    assert pair_calls == {"__init__": 1, "eliminate": 1}
    operator = flow_sweep(params).at(math.pi)
    assert metrics == cat_amplitudes(crossing_pair_state(eigensolve(operator, n_levels=2).vectors, operator.basis), operator.basis)


def test_an_equal_bond_scan_hands_only_the_exact_crossing_to_the_parity_halves(monkeypatch):
    """The row at dphi = 0 reaches ``_PairElimination.states`` with its elimination, as one of its
    ``crossing`` rows; rows within ``CROSSING_DPHI_ATOL`` of it come without theirs (the dense route)."""
    given, states = [], _PairElimination.states

    def spy(self, diagonals, eliminations, weights, crossing=()):
        given.append(([elimination is not None for elimination in eliminations], list(crossing)))
        return states(self, diagonals, eliminations, weights, crossing)

    monkeypatch.setattr(_PairElimination, "states", spy)
    params, dphis = ModelParams(n=36, u=0.1), np.r_[np.linspace(-0.2, 0.2, 21), 1e-13]
    table = catscan(params, dphis)
    assert given == [([dphi == 0.0 or abs(dphi) > CROSSING_DPHI_ATOL for dphi in dphis], [10])]
    assert sum(given[0][0]) == 21
    assert table.ratio_analytic[10] == abs(effective_point(params, dphis[10]).predicted_ratio) == 1.0
