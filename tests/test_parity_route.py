"""The crossing row from the parity halves against the dense route.

At dphi = 0 exactly, P, which swaps flow modes 0 and 1, commutes with the
contact operator with equal bonds, so the pair block splits into a P-even and a
P-odd half, each holding one of (|N,0,0> +- |0,N,0>) / sqrt(2).
``_PairElimination._parity`` takes both levels from the layered kernel and
reports the one with the larger pair weight.  The reference is the dense route:
the top eigenvector of the Gram matrix of the two lowest levels of
``eigensolve`` (``crossing_pair_state``), which for these operators is that
same level up to rounding.  Only dphi = 0 is the crossing: a row next to it is
the ground state, checked against a 40-digit one.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import (
    ModelParams, cat_amplitudes, catscan, cli, crossing_pair_state, effective_point, eigensolve, flow_sweep, solver,
)
from ringcat import catmetrics as catmetrics_module
from ringcat.effective import default_flow_targets


def _dense_crossing(params: ModelParams, dphi: float = 0.0):
    """Cat metrics of the crossing row by the dense route."""
    operator = flow_sweep(params).at(math.pi + dphi)
    return cat_amplitudes(crossing_pair_state(eigensolve(operator, n_levels=2).vectors, operator.basis), operator.basis)


@pytest.fixture
def dense_calls(monkeypatch):
    """Names of the dense eigensolvers called: ``np.linalg.eigh``, ``eigvalsh`` and ``eigensolve``."""
    calls = []
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (solver, "eigensolve"),
                        (catmetrics_module, "eigensolve")):
        def spy(*args, _name=name, _true=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _true(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


def test_equal_bond_contact_scans_call_no_dense_eigensolver(tmp_path, dense_calls):
    assert cli.main(["catscan", "--n", "36", "--dphi=-0.2:0.2:21", "--out", str(tmp_path / "c.csv")]) == 0
    for n in (3, 6, 9, 12):
        table = catscan(ModelParams(n=n, u=0.1), np.linspace(-0.3, 0.3, 7))
        assert table.metrics[3].ratio == 1.0
    assert dense_calls == []


@pytest.mark.parametrize(
    "params, dphi",
    [
        (ModelParams(n=6, u0=0.1, u1=0.05, dipolar=True), 0.0),  # dipolar U1 != 0 breaks P
        (ModelParams(n=9, u0=0.1, u1=-0.05, dipolar=True), 0.0),
        (ModelParams(n=7, u=0.1), 0.0),  # a split pair
        (ModelParams(n=6, j=(1.0, 0.9, 1.1), u=0.1), 0.0),  # unequal bonds
    ],
)
def test_crossing_rows_without_the_parity_halves_take_the_dense_route(params, dphi, dense_calls):
    assert dphi == 0.0
    row = catscan(params, [dphi]).metrics[0]
    assert "eigensolve" in dense_calls
    assert row == _dense_crossing(params, dphi)


def _ground_pair_to_40_digits(operator) -> tuple[float, float]:
    """(|a0| / |a1|, |a0|^2 + |a1|^2) of the ground state, the lowest level of the block holding the pair by a
    40-digit ``mpmath.eigsy`` of that float block, checked below the lowest level of every other block."""
    t0, t1 = default_flow_targets(operator.basis)
    (members, block), = [(m, h) for m, h in zip(operator.sectors, operator.blocks) if t0 in m and t1 in m]
    with mpmath.workdps(40):
        energies, vectors = mpmath.eigsy(mpmath.matrix(block.tolist()))
        low, where = min(range(len(members)), key=lambda i: energies[i]), members.tolist()
        assert all(float(energies[low]) < np.linalg.eigvalsh(h)[0] for h in operator.blocks if h is not block)
        a0, a1 = abs(vectors[where.index(t0), low]), abs(vectors[where.index(t1), low])
        return float(a0 / a1), float(a0**2 + a1**2)


@pytest.mark.parametrize(
    "params, dphi",
    [(ModelParams(n=6, u=0.1), 1e-12), (ModelParams(n=6, u=0.1), -5e-13)]
    + [(ModelParams(n=12, u=0.001), dphi) for dphi in (-1e-12, -1e-13, 1e-13, 1e-12)],
)
def test_rows_next_to_the_crossing_are_the_ground_state(params, dphi, dense_calls):
    """Only dphi = 0 is the crossing: a row 1e-12 from it is eliminated like any other, with no dense
    eigensolver, and is the ground state.  At N = 12, U/J = 0.001, eps (6.9e-13 at 1e-13) is above
    |v01| = 2.9e-14, so that state is far from a balanced cat; the dense route on the crossing wrote
    ratios of about 0.9998 there."""
    row = catscan(params, [dphi]).metrics[0]
    assert dense_calls == []
    ratio, captured_norm = _ground_pair_to_40_digits(flow_sweep(params).at(math.pi + dphi))
    assert abs(row.ratio - ratio) <= 1e-4 * ratio
    assert abs(row.captured_norm - captured_norm) <= 1e-10


def test_the_n24_row_at_dphi_1e_13_matches_the_40_digit_ratio():
    """A 40-digit ground state of N = 24, U/J = 0.01 at dphi = 1e-13 has ratio 5.48e-3; the dense route
    on the crossing wrote 0.996."""
    assert catscan(ModelParams(n=24, u=0.01), [1e-13]).metrics[0].ratio == pytest.approx(5.48e-3, rel=0.01)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(range(3, 37, 3)), u=st.floats(0.01, 1.0))
def test_the_parity_row_matches_the_dense_route(n, u):
    """The captured norm equals the dense route's to 1e-10, and |a0| = |a1| exactly."""
    params = ModelParams(n=n, u=u)
    row = catscan(params, [0.0]).metrics[0]
    assert abs(row.a0) == abs(row.a1) and row.ratio == 1.0
    np.testing.assert_allclose(row.captured_norm, _dense_crossing(params).captured_norm, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n, u", [(3, 0.1), (6, 0.1), (9, 0.1), (36, 0.1), (12, 0.1), (12, 0.01)])
def test_parity_rows_keep_the_dense_captured_norm(n, u):
    params = ModelParams(n=n, u=u)
    table = catscan(params, [0.0])
    np.testing.assert_allclose(table.metrics[0].captured_norm, _dense_crossing(params).captured_norm, rtol=0.0, atol=1e-10)
    assert table.metrics[0].ratio == 1.0 and table.ratio_analytic[0] == 1.0


def test_the_n90_crossing_row_is_a_balanced_cat_with_the_dense_captured_norm():
    """The dense route resolves neither |v01| = 3.5e-13 nor the ratio (0.9926 there); its captured norm it does."""
    params = ModelParams(n=90, u=0.1)
    table = catscan(params, [0.0])
    assert abs(table.metrics[0].ratio - 1.0) <= 1e-12 and abs(table.ratio_analytic[0] - 1.0) <= 1e-12
    np.testing.assert_allclose(table.metrics[0].captured_norm, _dense_crossing(params).captured_norm, rtol=0.0, atol=1e-10)


def test_the_n120_crossing_row_is_a_balanced_cat():
    """Where the two half levels agree to the last bit, the dense route wrote ratio 0.199 and ratio_analytic 24.3."""
    table = catscan(ModelParams(n=120, u=0.1), [0.0])
    assert abs(table.metrics[0].ratio - 1.0) <= 1e-12 and abs(table.ratio_analytic[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("dphi", [0.0, 1e-13, -1e-10, 1e-6, -0.02, 0.4])
def test_the_detuning_does_not_cancel_near_the_crossing(dphi):
    """eps = J N - 2 J N cos((pi + dphi) / 3) to 1e-14 relative of a 40-digit evaluation, and exactly 0 at dphi = 0."""
    params = ModelParams(n=36, j=0.7, u=0.1)
    with mpmath.workdps(40):
        exact = 0.7 * 36 * (1 - 2 * mpmath.cos((mpmath.pi + mpmath.mpf(dphi)) / 3))
    eps = effective_point(params, dphi).eps
    assert eps == 0.0 if dphi == 0.0 else abs(eps - float(exact)) <= 1e-14 * abs(float(exact))
