"""Tests for the energies-only solve that ``spectrum`` takes: ``eigvalsh`` for the
levels, one step of layered inverse iteration to check them, and ``eigh`` as the
fallback."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import ModelParams, NumericalContractError, cli, eigensolve, flow_sweep, spectrum_sweep
from ringcat.solver import _layers

_TRUE_EIGH = np.linalg.eigh
_TRUE_EIGVALSH = np.linalg.eigvalsh

KINDS = ("sparse", "disconnected", "diagonal", "degenerate")


def _sparse_hermitian(n: int, kind: str, is_complex: bool, seed: int) -> np.ndarray:
    """A random exactly Hermitian matrix with about three couplings per state, in a random order.

    ``disconnected`` cuts it into two components, ``diagonal`` has integer
    entries in [-3, 3] and so exactly degenerate levels, and ``degenerate``
    holds two copies of one matrix, so every level is exactly doubled."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return np.diag(rng.integers(-3, 4, n).astype(complex if is_complex else float))
    m = np.where(rng.random((n, n)) < 3.0 / n, rng.normal(size=(n, n)), 0.0)
    if is_complex:
        m = m + 1j * np.where(m != 0, rng.normal(size=(n, n)), 0.0)
    m = np.triu(m, 1)
    m = m + m.conj().T + np.diag(rng.normal(size=n))
    if kind == "disconnected":
        m[: n // 3, n // 3 :] = m[n // 3 :, : n // 3] = 0.0
    if kind == "degenerate":
        m = np.kron(np.eye(2), m[: n // 2, : n // 2])
    order = rng.permutation(len(m))
    return m[np.ix_(order, order)]


def _recorded_eigh():
    """Patch ``numpy.linalg.eigh`` so that its calls are counted; the results are its own."""
    return mock.patch.object(np.linalg, "eigh", wraps=_TRUE_EIGH)


def _assert_block_tridiagonal(matrix: np.ndarray, groups: list[np.ndarray]) -> None:
    assert sorted(np.concatenate(groups).tolist()) == list(range(len(matrix)))
    for i, rows in enumerate(groups):
        for cols in groups[i + 2 :]:
            assert not np.any(matrix[np.ix_(rows, cols)])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(64, 200),
    kind=st.sampled_from(KINDS),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_values_route_returns_the_levels_of_eigvalsh_or_of_eigh(n, kind, is_complex, seed, data):
    """The energies are ``eigvalsh``'s, or ``eigh``'s where the block fell back,
    and agree with ``eigh`` to 1e-12 |H|; the layers make the matrix block
    tridiagonal."""
    matrix = _sparse_hermitian(n, kind, is_complex, seed)
    n_levels = data.draw(st.integers(1, len(matrix) // 32), label="n_levels")
    _assert_block_tridiagonal(matrix, _layers(matrix))
    with _recorded_eigh() as eigh:
        energies = eigensolve(matrix, n_levels, _values_only=True).energies
    expected = _TRUE_EIGH(matrix)[0] if eigh.called else _TRUE_EIGVALSH(matrix)
    np.testing.assert_array_equal(energies, expected[:n_levels])
    norm = np.max(np.abs(_TRUE_EIGVALSH(matrix)))
    assert np.max(np.abs(energies - _TRUE_EIGH(matrix)[0][:n_levels])) <= 1e-12 * norm


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_values_route_needs_no_eigh_on_disconnected_diagonal_and_degenerate_blocks(kind, is_complex):
    matrix = _sparse_hermitian(150, kind, is_complex, 7)
    with _recorded_eigh() as eigh:
        energies = eigensolve(matrix, 4, _values_only=True).energies
    assert not eigh.called
    np.testing.assert_array_equal(energies, _TRUE_EIGVALSH(matrix)[:4])


def test_blocks_below_32_levels_per_state_keep_eigh():
    matrix = _sparse_hermitian(95, "sparse", True, 3)
    with _recorded_eigh() as eigh:
        energies = eigensolve(matrix, 3, _values_only=True).energies
    assert eigh.call_count == 1
    np.testing.assert_array_equal(energies, _TRUE_EIGH(matrix)[0][:3])


def _patched_eigvalsh(monkeypatch, corrupt):
    """Make ``numpy.linalg.eigvalsh`` return its true levels after ``corrupt``."""

    def eigvalsh(matrix):
        energies = _TRUE_EIGVALSH(matrix)
        corrupt(energies)
        return energies

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


def test_sum_rules_reject_a_wrong_discarded_level_of_eigvalsh(monkeypatch):
    matrix = _sparse_hermitian(128, "sparse", True, 1)
    top = _TRUE_EIGVALSH(matrix)[-1]

    def shift_top(energies):
        energies[-1] += 1e-6 * abs(top)

    _patched_eigvalsh(monkeypatch, shift_top)
    with pytest.raises(NumericalContractError, match="sum rules"):
        eigensolve(matrix, n_levels=2, _values_only=True)


def test_a_returned_level_off_by_1e_8_falls_back_to_eigh(monkeypatch):
    """A lowest level moved by 1e-8 of itself passes the sum rules but not the
    residual of its inverse-iteration vector, so the block is solved by ``eigh``."""
    matrix = _sparse_hermitian(200, "sparse", False, 2)

    def shift_lowest(energies):
        energies[0] *= 1.0 + 1e-8

    _patched_eigvalsh(monkeypatch, shift_lowest)
    with _recorded_eigh() as eigh:
        energies = eigensolve(matrix, n_levels=2, _values_only=True).energies
    assert eigh.call_count == 1
    np.testing.assert_array_equal(energies, _TRUE_EIGH(matrix)[0][:2])


ASYMMETRIC = ModelParams(n=24, j=(1.0, 0.9, 1.1), u0=0.1, u1=0.05, dipolar=True)


def test_unequal_bond_spectrum_calls_no_eigh():
    """The N = 24 unequal-bond dipolar sweep solves its 325-state operator for
    energies only; each row equals a one-phase sweep bit for bit and the
    ``eigh`` solve to 1e-12."""
    phis = np.linspace(0.0, 2.0 * math.pi, 9)
    with _recorded_eigh() as eigh:
        table = spectrum_sweep(ASYMMETRIC, phis, n_levels=6)
        single = [spectrum_sweep(ASYMMETRIC, [phi], n_levels=6).energies[0] for phi in phis]
    assert not eigh.called
    sweep = flow_sweep(ASYMMETRIC)
    for phi, row, alone in zip(phis, table.energies, single):
        np.testing.assert_array_equal(row, alone)
        np.testing.assert_allclose(row, eigensolve(sweep.at(phi), n_levels=6).energies, rtol=1e-12, atol=0.0)


def test_free_equal_bond_spectrum_calls_no_eigh():
    """At u = 0 every N = 48 block is diagonal with exactly degenerate levels;
    the shift below each level keeps every pivot off zero, so no block falls back."""
    params = ModelParams(n=48, u=0.0)
    phis = np.linspace(0.0, 2.0 * math.pi, 5)
    with _recorded_eigh() as eigh:
        table = spectrum_sweep(params, phis, n_levels=6)
    assert not eigh.called
    sweep = flow_sweep(params)
    for phi, row in zip(phis, table.energies):
        np.testing.assert_array_equal(row, eigensolve(sweep.at(phi), n_levels=6).energies)


def test_subcommands_import_neither_numpy_random_nor_scipy(tmp_path):
    """Either module adds to peak memory; each subcommand runs once in a new interpreter."""
    commands = [
        ["spectrum", "--n", "12", "--j", "1,0.9,1.1", "--levels", "2", "--phi", "0:1:3"],
        ["catscan", "--n", "6", "--dphi=-0.1:0.1:3"],
        ["effective", "--n", "6", "--dphi=-0.1:0.1:3"],
        ["paths", "--n", "6", "--max-order", "2"],
        ["loop", "--kmax", "8", "--phi", "0:1:3"],
    ]
    argvs = [command + ["--out", str(tmp_path / f"{command[0]}.csv")] for command in commands]
    script = (
        "import sys\n"
        "from ringcat.cli import main\n"
        f"assert [main(argv) for argv in {argvs!r}] == [0] * {len(argvs)}\n"
        "print([name for name in ('numpy.random', 'scipy') if name in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
