"""Tests for the layered elimination kernel of phase sweeps.

``effective._PairElimination`` lays a flow operator out once for
``solver._Layered``: H_QQ is block tridiagonal in breadth-first layers, and
``eliminate`` finds lam by Newton steps on g(x) = lambda_min(H_eff(x)) - x,
from a start the kernel proves, then x at lam and every proof by block
elimination.  The references here are
dense: a Rayleigh quotient in extended precision, LU solves, Cholesky
factorisations and ``eigvalsh`` of the assembled pair block, and a 30-digit
layered recursion in mpmath.  With unequal bonds each row also adds its weighted
hopping parts; the references are each offset's own operator and matrix.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ringcat import ModelParams, NearResonantIntermediateError, catscan, cli, flow_sweep, lowdin_coupling, solver
from ringcat.effective import RESONANCE_RTOL, _PairElimination, _sweep_eliminations
from ringcat.basis import enumerate_fock
from ringcat.hamiltonians import HermitianOperator
from ringcat.solver import _Layered

EPS = np.finfo(float).eps
_TRUE = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh", "cholesky", "solve")}

contact = st.builds(lambda n, u: ModelParams(n=n, u=u), st.integers(1, 36), st.floats(0.01, 1.0))
dipolar = st.builds(
    lambda n, u0, u1: ModelParams(n=n, u0=u0, u1=u1, dipolar=True),
    st.integers(1, 36),
    st.floats(0.01, 1.0),
    st.floats(-0.3, 0.3),
)


def _dense_passes(matrix: np.ndarray) -> bool:
    try:
        _TRUE["cholesky"](matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _ground_level(h: np.ndarray) -> float:
    """The lowest level of ``h``: the Rayleigh quotient of ``eigh``'s vector in extended
    precision, whose error is of order |residual|^2 / gap, far below eps |h|."""
    v = _TRUE["eigh"](h)[1][:, 0].astype(np.clongdouble if np.iscomplexobj(h) else np.longdouble)
    return float(np.real((v.conj() @ (h.astype(v.dtype) @ v)) / (v.conj() @ v)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(params=st.one_of(contact, dipolar), dphi=st.floats(-0.4, 0.4))
@example(params=ModelParams(n=17, u0=0.015625, u1=0.25, dipolar=True), dphi=0.28125)
def test_kernel_matches_the_dense_elimination(params, dphi):
    """Contact and dipolar operators up to N = 36 and U/J = 1, pairs in one block
    or split over two (N mod 3 != 0):

    - Newton's lam lies within 10 eps |H|_2 of the ground level of the pair block
      (at most 6.8 eps |H|_2 was seen over 400 random cases), with no ``eigvalsh``
      called, also where the proof at x0 fails and the row steps down to a proven
      start (the N = 17 example: ``eigvalsh``'s lam there was 15.9 eps |H|_2 off);
    - given the same lam, x and v01 agree with a dense LU solve to 1e-12
      relative, plus 10 eps |H|_2 / gap for an eliminated level a gap above lam;
    - the proof verdicts at shifts off the lowest level of H_QQ and of every
      other block match a dense Cholesky factorisation and the true levels.
    """
    operator = flow_sweep(params).at(math.pi + dphi)
    pair = _PairElimination(operator)
    h = pair.matrix
    norm = float(np.max(np.abs(_TRUE["eigvalsh"](h))))
    lam = _ground_level(h)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=_TRUE["eigvalsh"]) as eigvalsh:
        (result,) = pair.eliminate(pair.diagonal[None])
    h_qq, h_qp = h[2:, 2:], h[2:, :2]
    lowest_q = float(_TRUE["eigvalsh"](h_qq)[0]) if len(h_qq) else math.inf
    assert not eigvalsh.called
    if result is None:
        event("resonant")
        assert lowest_q - lam <= 2.0 * RESONANCE_RTOL * operator.scale
        return
    x0 = float(_TRUE["eigvalsh"](h[:2, :2])[0])
    event("lam from Newton at x0" if _dense_passes(h_qq - x0 * np.eye(len(h_qq))) else "lam after a step-down")
    assert abs(result.lam - lam) <= 10.0 * EPS * norm

    d = pair.diagonal[pair.indices][None]
    layered_x = pair.qq.solve(d[:, 2:] - lam, h_qp)[0]
    layered_v01 = pair._heff(d, layered_x)[0, 0, 1]
    x = _TRUE["solve"](h_qq - lam * np.eye(len(h_qq)), h_qp)
    v01 = (h[:2, :2] - h_qp.conj().T @ x)[0, 1]
    rtol = 1e-12 + 10.0 * EPS * norm / (lowest_q - lam)
    assert np.max(np.abs(layered_x[0] - x), initial=0.0) <= rtol * np.max(np.abs(x), initial=0.0)
    assert abs(layered_v01 - v01) <= rtol * abs(v01)

    blocks = [(h_qq, pair.indices[2:], pair.qq)] + [
        (next(h for m, h in zip(operator.sectors, operator.blocks) if np.array_equal(m, members)), members, layered)
        for members, layered in pair.others
    ]
    for matrix, members, layered in blocks:
        if not len(matrix):
            continue
        lowest = float(_TRUE["eigvalsh"](matrix)[0])
        for offset in (-1e-2, -1e-6, 1e-6, 1e-2):
            cut = lowest + offset * norm
            proven = layered.solve((pair.diagonal[members] - cut)[None], np.zeros((len(members), 0)), prove=True)[1]
            assert proven[0] == (offset < 0) == _dense_passes(matrix - cut * np.eye(len(matrix)))


@pytest.mark.parametrize("level, proven", [(1e-10, False), (1e-8, True)])
def test_a_row_whose_start_lies_within_the_margin_takes_the_explicit_resonance_proof(level, proven, monkeypatch):
    """The proof at x0 covers the resonance margin lam + RESONANCE_RTOL |H|_max (1e-9 here) only where x0 lies
    that far above lam.  Here a coupling of 1e-7 to a level at 10 puts lam 1e-15 below x0 = 0, so the row,
    Newton's at its first step, takes the explicit proof too, and an eliminated level at 1e-10 fails it."""
    h = np.diag([0.0, 5.0, level, 1.0, 10.0, 10.0])  # the flow states of N = 2; the targets are 0 and 3
    h[0, 4] = h[4, 0] = 1e-7
    pair = _PairElimination(HermitianOperator(h, enumerate_fock(2, "flow")))
    calls, solve = [], _Layered.solve

    def spy(self, diagonals, rhs, prove=False, weights=None):
        calls.append((len(diagonals), prove))
        return solve(self, diagonals, rhs, prove, weights)

    monkeypatch.setattr(_Layered, "solve", spy)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=_TRUE["eigvalsh"]) as eigvalsh:
        (result,) = pair.eliminate(pair.diagonal[None])
    assert not eigvalsh.called and calls[0] == (1, True) and calls[-1] == (2, True)
    assert (result is not None) == proven


def test_rows_whose_start_proof_covers_the_margin_take_no_explicit_proof(monkeypatch):
    calls, solve = [], _Layered.solve

    def spy(self, diagonals, rhs, prove=False, weights=None):
        calls.append((len(diagonals), prove))
        return solve(self, diagonals, rhs, prove, weights)

    monkeypatch.setattr(_Layered, "solve", spy)
    *_, eliminations = _sweep_eliminations(flow_sweep(ModelParams(n=36, u=0.1)), np.linspace(-0.2, 0.2, 21))
    assert calls[-1] == (21, True) and None not in eliminations


def test_batched_rows_equal_single_rows_bit_for_bit():
    """One batch of a sweep's offsets and each offset's operator on its own give the
    same eliminations, bit for bit."""
    params, dphis = ModelParams(n=21, u0=0.2, u1=0.05, dipolar=True), np.linspace(-0.3, 0.3, 7)
    sweep = flow_sweep(params)
    *_, batched = _sweep_eliminations(sweep, dphis)
    for dphi, row in zip(dphis, batched):
        single = lowdin_coupling(sweep.at(math.pi + dphi))
        assert (row.lam, row.v01) == (single.lam, single.v01)
        np.testing.assert_array_equal(row.x, single.x)
        np.testing.assert_array_equal(row.heff, single.heff)


bonds = st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5), st.floats(0.5, 1.5))
unequal = st.one_of(
    st.builds(lambda n, j, u: ModelParams(n=n, j=j, u=u), st.integers(1, 12), bonds, st.floats(0.01, 1.0)),
    st.builds(
        lambda n, j, u0, u1: ModelParams(n=n, j=j, u0=u0, u1=u1, dipolar=True),
        st.integers(1, 12),
        bonds,
        st.floats(0.01, 1.0),
        st.floats(-0.3, 0.3),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(params=unequal, dphis=st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=4))
def test_swept_unequal_bond_rows_match_each_offsets_own_elimination(params, dphis):
    """Each row of one batch, whose hopping parts the kernel weighs, against its offset's own complex
    operator: the resonance verdict of ``lowdin_coupling``, lam within 10 eps |H|_2 of the ground level
    of the pair block, and v01 at that lam within 1e-12 plus 10 eps |H|_2 / gap relative of a dense LU
    solve, the bounds of the equal-bond test above.  Two rows whose lam came from ``eigvalsh``, each within
    7 eps |H|_2 of the level, differed by 10.1 eps |H|_2, so lam is compared with the level, not with the
    other route."""
    sweep = flow_sweep(params)
    *_, batched = _sweep_eliminations(sweep, np.array(dphis))
    for dphi, row in zip(dphis, batched):
        operator = sweep.at(math.pi + dphi)
        try:
            lowdin_coupling(operator)
        except NearResonantIntermediateError:
            assert row is None
            event("resonant")
            continue
        h = _PairElimination(operator).matrix
        h_qq, h_qp = h[2:, 2:], h[2:, :2]
        norm = float(np.max(np.abs(_TRUE["eigvalsh"](h))))
        assert row is not None and abs(row.lam - _ground_level(h)) <= 10.0 * EPS * norm
        v01 = (h[:2, :2] - h_qp.conj().T @ _TRUE["solve"](h_qq - row.lam * np.eye(len(h_qq)), h_qp))[0, 1]
        lowest_q = float(_TRUE["eigvalsh"](h_qq)[0]) if len(h_qq) else math.inf
        assert abs(row.v01 - v01) <= (1e-12 + 10.0 * EPS * norm / (lowest_q - row.lam)) * abs(v01)


def test_weighed_parts_equal_each_rows_assembled_matrix():
    """A batch whose rows weigh two complex Hermitian parts onto a real matrix gives the y, bit for bit,
    and the proofs of ``_Layered`` of each row's assembled matrix, rows below and above its lowest level."""
    rng = np.random.default_rng(3)

    def sparse(density, scale):
        m = np.where(rng.random((50, 50)) < density, rng.normal(size=(50, 50)) * scale, 0.0)
        return np.triu(m, 1) + np.triu(m, 1).conj().T

    matrix, parts = sparse(0.04, 1.0), np.stack([sparse(0.03, 1.0 + 1.0j), sparse(0.03, 1.0 - 0.5j)])
    weights = rng.normal(size=(6, 2))
    assembled = [matrix + np.tensordot(w, parts, 1) for w in weights]
    below = np.array([_TRUE["eigvalsh"](a)[0] for a in assembled]) + np.array([-0.1, 0.1, -1.0, 1.0, -0.01, 3.0])
    diagonals, rhs = -below[:, None] + np.zeros(50), rng.normal(size=(50, 2))
    y, proven = _Layered(matrix, parts).solve(diagonals, rhs, prove=True, weights=weights)
    assert proven.tolist() == [True, False, True, False, True, False]
    for b, a in enumerate(assembled):
        single_y, single_proven = _Layered(a).solve(diagonals[b : b + 1], rhs, prove=True)
        assert proven[b] == single_proven[0]
        np.testing.assert_array_equal(y[b], single_y[0])
        if proven[b]:
            np.testing.assert_allclose((a - below[b] * np.eye(50)) @ y[b], rhs, atol=1e-10)


def test_failed_pivots_are_flagged_per_row_and_leave_finite_solutions():
    """Rows of one batch below, on and above the lowest level of a matrix: only the
    row below it is proven, and every solution stays finite."""
    rng = np.random.default_rng(5)
    m = np.where(rng.random((60, 60)) < 0.05, rng.normal(size=(60, 60)), 0.0)
    m = np.triu(m, 1) + np.triu(m, 1).T + np.diag(rng.normal(size=60))
    lowest = _TRUE["eigvalsh"](m)[0]
    shifts = np.array([lowest - 0.1, lowest + 0.1, lowest + 3.0])
    y, proven = _Layered(m).solve(np.diagonal(m) - shifts[:, None], np.ones((60, 1)), prove=True)
    assert proven.tolist() == [True, False, False]
    assert np.isfinite(y).all()
    np.testing.assert_allclose((m - shifts[0] * np.eye(60)) @ y[0], np.ones((60, 1)), atol=1e-10)


def _mp_layered_elimination(h: np.ndarray) -> tuple:
    """(lam, v01) of the matrix ``h`` on P (its first two states) and Q in 30 digits:
    Newton steps on lambda_min(H_eff(x)) - x, each H_eff by block elimination over the
    breadth-first layers of H_QQ, found here from its nonzero pattern."""
    H = [[mpmath.mpf(float(v)) for v in row] for row in h]
    q = range(2, len(h))
    seen, layers = set(), []
    for start in q:
        front = [start] if start not in seen else []
        seen.update(front)
        while front:
            layers.append(front)
            front = [j for j in q if j not in seen and any(H[i][j] != 0 for i in front)]
            seen.update(front)

    def solve(x):
        eliminated, solution = [], {}
        for k, rows in enumerate(layers):
            after = layers[k + 1] if k + 1 < len(layers) else []
            pivot = mpmath.matrix([[H[i][j] - (x if i == j else 0) for j in rows] for i in rows])
            known = mpmath.matrix([[H[i][j] for j in after] + [H[i][0], H[i][1]] for i in rows])
            if eliminated:
                before, solved = eliminated[-1]
                coupled = mpmath.matrix([[H[i][j] for j in before] for i in rows]) * solved
                for a in range(len(rows)):
                    for b in range(len(rows)):
                        pivot[a, b] -= coupled[a, b]
                    for b in range(2):
                        known[a, len(after) + b] -= coupled[a, len(rows) + b]
            eliminated.append((rows, mpmath.inverse(pivot) * known))
        for k in reversed(range(len(layers))):
            rows, solved = eliminated[k]
            after = layers[k + 1] if k + 1 < len(layers) else []
            for a, i in enumerate(rows):
                solution[i] = [solved[a, len(after) + b] - sum(solved[a, c] * solution[j][b] for c, j in enumerate(after))
                               for b in range(2)]
        return [[H[a][b] - sum(H[i][a] * solution[i][b] for i in q) for b in range(2)] for a in range(2)], solution

    x = (H[0][0] + H[1][1]) / 2 - mpmath.sqrt(((H[0][0] - H[1][1]) / 2) ** 2 + H[0][1] ** 2)
    for _ in range(30):
        heff, solution = solve(x)
        eps, v = (heff[0][0] - heff[1][1]) / 2, heff[0][1]
        r = mpmath.sqrt(eps**2 + v**2)
        c0, c1 = (-v, eps + r) if eps >= 0 else (eps - r, v)
        c0, c1 = c0 / mpmath.sqrt(c0**2 + c1**2), c1 / mpmath.sqrt(c0**2 + c1**2)
        slope = -1 - sum((solution[i][0] * c0 + solution[i][1] * c1) ** 2 for i in q)
        step = ((heff[0][0] + heff[1][1]) / 2 - r - x) / slope
        x -= step
        if abs(step) < mpmath.mpf(10) ** -27 * abs(x):
            break
    return x, solve(x)[0][0][1]


def test_v01_matches_a_30_digit_layered_recursion():
    """Contact N = 24, U/J = 0.01, dphi = 0.05: |v01| is about 1e-16, ten orders of
    magnitude below the entries it comes from.  The kernel's v01 matches 30-digit
    arithmetic on the same float matrix to 1e-13 relative; the dense route, lam by
    ``eigvalsh`` and x by LU, was off by 3.2e-13."""
    operator = flow_sweep(ModelParams(n=24, u=0.01)).at(math.pi + 0.05)
    pair = _PairElimination(operator)
    with mpmath.workdps(30):
        lam, v01 = _mp_layered_elimination(pair.matrix)
        result = lowdin_coupling(operator)
        assert abs(result.v01.imag) == 0.0
        assert abs((result.v01.real - v01) / v01) <= 1e-13
        assert abs(result.lam - lam) <= 4.0 * EPS * abs(lam)


def _recorded_linalg_sizes(monkeypatch) -> list[tuple[str, int]]:
    """Record the name and size of every matrix handed to ``numpy.linalg`` eigen,
    Cholesky or solve routines; the results are their own."""
    sizes: list[tuple[str, int]] = []
    for name, routine in _TRUE.items():
        def recorded(matrix, *args, _name=name, _routine=routine, **kwargs):
            sizes.append((_name, np.shape(matrix)[-1]))
            return _routine(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return sizes


@pytest.mark.parametrize("command", ["catscan", "effective"])
def test_off_crossing_sweeps_hand_no_matrix_larger_than_a_layer(command, tmp_path, monkeypatch):
    """``catscan`` and ``effective`` at N = 36 over 20 offsets off the crossing call
    no dense eigensolver, and factorise or solve nothing larger than one merged
    layer of the pair's H_QQ or of another block (the largest has 19 states of the
    233 and 234)."""
    sweep = flow_sweep(ModelParams(n=36, u=0.1))
    pair = _PairElimination(HermitianOperator._proven(sweep.base, sweep.basis, sweep.params, sweep.sectors))
    widest = max(len(rows) for layered in [pair.qq] + [l for _, l in pair.others] for rows, *_ in layered.layers)
    sizes = _recorded_linalg_sizes(monkeypatch)
    argv = [command, "--n", "36", "--dphi=-0.2:0.2:20", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert {name for name, _ in sizes} == {"cholesky", "solve"}
    assert max(size for _, size in sizes) <= widest < 20


def test_a_strongly_interacting_point_steps_down_to_a_proven_start(monkeypatch):
    """At U/J = 1, N = 36 the lower level of H_PP lies above the lowest level of
    H_QQ, so the proof at x0 fails; the row steps down to a start the kernel proves
    and stays in the kernel, with no dense eigensolver.  The row matches the one the
    dense route wrote before the kernel to 1e-12 relative."""
    sizes = _recorded_linalg_sizes(monkeypatch)
    row = next(catscan(ModelParams(n=36, u=1.0), [0.1]).rows())
    assert {name for name, _ in sizes} == {"cholesky", "solve"}
    dense_route = (36, 1.0, 0.1, 0.0031683771381186324, 0.0, 0.6994982928062539, 0.0,
                   0.004529499457972524, 0.48930790025255305, 0.0075388282372920645)
    np.testing.assert_allclose(row, dense_route, rtol=1e-12, atol=0)


def test_a_step_down_cut_off_at_minus_the_frobenius_norm_is_proven_before_it_ends_the_row(monkeypatch):
    """H_QQ = -10 lies far below the pair (5, 6), so no point of the step-down from
    x0 = 5 is proven until it is cut off at -|H|_F = -12.69.  The row is evaluated
    and proven there before it may end, and lam is the lowest level, not the cut."""
    h = np.array([[5.0, 0.0, 0.1], [0.0, 6.0, 0.0], [0.1, 0.0, -10.0]])
    evaluated, newton = [], _PairElimination._newton

    def spy(self, d, x, weights, prove, k=0, pins=None):
        evaluated.extend(x.tolist())
        return newton(self, d, x, weights, prove, k, pins)

    monkeypatch.setattr(_PairElimination, "_newton", spy)
    result = lowdin_coupling(HermitianOperator(h, basis=enumerate_fock(1, "flow")))
    assert min(evaluated) == pytest.approx(-np.linalg.norm(h), rel=1e-15)
    assert abs(result.lam - _TRUE["eigvalsh"](h)[0]) <= 10 * EPS * np.linalg.norm(h, 2)


@pytest.mark.parametrize("h", [np.zeros((3, 3)), np.diag([5.0, 6.0, -10.0])])
def test_a_row_that_proves_no_point_has_no_lam(h):
    """With H_QP = 0 and H_QQ at or below the pair the step-down cannot move from an
    unproven x0: the row proves no point, has no lam, and ``lowdin_coupling`` raises."""
    with pytest.raises(NearResonantIntermediateError):
        lowdin_coupling(HermitianOperator(h, basis=enumerate_fock(1, "flow")))


def test_a_pivot_with_a_nan_entry_is_not_proven():
    """Cholesky of a matrix that holds nan returns a nan factor without an error; the
    kernel's proof fails there instead of passing."""
    diagonals = np.array([[1.0, 1.0, 1.0], [1.0, np.nan, 1.0]])
    assert _Layered(np.eye(3)).solve(diagonals, np.ones((3, 1)), prove=True)[1].tolist() == [True, False]


def test_a_long_batch_is_solved_in_chunks_of_bounded_memory(monkeypatch):
    """With ``_BATCH_ENTRIES`` at 2**14, 400 rows of a 300-state banded matrix (about 5.4e3
    factor entries each, 17 MB at once) are eliminated three rows at a time: the traced peak
    stays within 1 MiB of the solution itself, and each row equals its own solve bit for bit."""
    rng = np.random.default_rng(11)
    band = sum(np.diag(rng.normal(size=300 - k), k) for k in (1, 2, 3))
    layered = _Layered(band + band.T)
    diagonals, rhs = rng.normal(size=(400, 300)) + 8.0, np.ones((300, 1))
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 1 << 14, raising=False)
    tracemalloc.start()
    try:
        y, proven = layered.solve(diagonals, rhs, prove=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - y.nbytes <= 1 << 20
    assert proven.all()
    for b in (0, 1, 2, 199, 399):
        single, _ = layered.solve(diagonals[b : b + 1], rhs, prove=True)
        np.testing.assert_array_equal(y[b], single[0])


def test_an_empty_batch_is_returned_at_once(monkeypatch):
    """A batch of no rows eliminates no layer: y has no rows and nothing is proven."""
    layered = _Layered(np.diag([2.0, 3.0, 4.0]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1))
    monkeypatch.setattr(np.linalg, "solve", None)
    monkeypatch.setattr(np.linalg, "cholesky", None)
    y, proven = layered.solve(np.zeros((0, 3)), np.ones((3, 2)), prove=True)
    assert y.shape == (0, 3, 2) and proven.shape == (0,)


def test_an_equal_bond_scan_factorises_no_empty_batch(tmp_path, monkeypatch):
    """``catscan --n 36 --dphi=-0.2:0.2:21`` has no fallback row, and the kernel factorises and
    solves no layer for a batch of no rows."""
    batches = []
    for name in ("cholesky", "solve"):
        def recorded(matrix, *args, _routine=_TRUE[name], **kwargs):
            batches.append(np.shape(matrix)[:-2])
            return _routine(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert cli.main(["catscan", "--n", "36", "--dphi=-0.2:0.2:21", "--out", str(tmp_path / "out.csv")]) == 0
    assert batches and all(0 not in batch for batch in batches)
