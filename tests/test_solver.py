"""Tests for the verified eigensolver and phase sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import (
    HermitianOperator,
    ModelParams,
    NumericalContractError,
    UnsupportedConfigurationError,
    build_site_hamiltonian,
    eigensolve,
    enumerate_fock,
    flow_hamiltonian_by_conjugation,
    flow_sweep,
    quasimomentum_labels,
    spectrum_sweep,
)
from ringcat.hamiltonians import _levels_above
from ringcat.solver import _checked_eigh


def test_eigensolve_known_two_level_matrix():
    result = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(result.energies, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(result.vectors), 1.0 / math.sqrt(2.0), atol=1e-14)


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(NumericalContractError):
        eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensolve_keeps_real_symmetric_input_real():
    result = eigensolve(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert result.energies.dtype == np.float64
    assert result.vectors.dtype == np.float64
    np.testing.assert_allclose(result.energies, [1.0, 3.0], atol=1e-14)
    with pytest.raises(NumericalContractError):
        eigensolve(np.array([[2.0, 1.0], [0.5, 2.0]]))


def test_eigensolve_level_slicing():
    matrix = np.diag([3.0, -1.0, 2.0, 0.5]).astype(complex)
    result = eigensolve(matrix, n_levels=2)
    np.testing.assert_allclose(result.energies, [-1.0, 0.5], atol=1e-14)
    assert result.vectors.shape == (4, 2)


def test_eigensolve_ground_state_satisfies_eigen_equation():
    params = ModelParams(n=3, j=1.0, u=0.1, phi=1.7)
    op = build_site_hamiltonian(params)
    result = eigensolve(op)
    assert result.basis is op.basis
    assert result.params is params
    residual = op.matrix @ result.ground_vector - result.ground_energy * result.ground_vector
    assert np.linalg.norm(residual) < 1e-10
    # eigenvectors orthonormal
    gram = result.vectors.conj().T @ result.vectors
    np.testing.assert_allclose(gram, np.eye(op.dimension), atol=1e-12)


def test_ground_energy_frozen_value():
    """Pinned end-to-end number for the default-style configuration."""
    op = build_site_hamiltonian(ModelParams(n=3, j=1.0, u=0.1, phi=0.0))
    result = eigensolve(op)
    np.testing.assert_allclose(result.ground_energy, -5.80430220001277, rtol=1e-13)


def test_sweep_shape_and_consistency():
    params = ModelParams(n=2, j=1.0, u=0.3)
    phis = np.linspace(0.0, 2 * math.pi, 7)
    table = spectrum_sweep(params, phis, n_levels=3)
    assert table.energies.shape == (7, 3)
    np.testing.assert_array_equal(table.phis, phis)
    for i, phi in enumerate(phis):
        direct = eigensolve(build_site_hamiltonian(params.with_phi(phi)), n_levels=3)
        np.testing.assert_allclose(table.energies[i], direct.energies, atol=1e-12)
        assert np.all(np.diff(table.energies[i]) >= -1e-12)


@pytest.mark.parametrize("n, u", [(2, 0.0), (3, 0.4)])
def test_spectrum_is_periodic_and_reflection_symmetric(n, u):
    params = ModelParams(n=n, j=1.0, u=u)
    for phi in (0.3, 1.2, 2.5):
        e_phi = eigensolve(build_site_hamiltonian(params.with_phi(phi))).energies
        e_shifted = eigensolve(build_site_hamiltonian(params.with_phi(phi + 2 * math.pi))).energies
        e_mirrored = eigensolve(build_site_hamiltonian(params.with_phi(2 * math.pi - phi))).energies
        np.testing.assert_allclose(e_shifted, e_phi, atol=1e-10)
        np.testing.assert_allclose(e_mirrored, e_phi, atol=1e-10)


def test_sweep_is_deterministic_across_thread_counts():
    """The output does not depend on the execution strategy: each row of a
    sweep built once equals the solve of an operator built for that point
    alone, for equal and unequal bonds."""
    phis = np.linspace(0.0, 2 * math.pi, 13)
    for params in (
        ModelParams(n=3, j=1.0, u=0.1),
        ModelParams(n=4, j=(1.0, 0.9, 1.1), u0=0.1, u1=0.05, dipolar=True),
    ):
        table = spectrum_sweep(params, phis, n_levels=4)
        for phi, row in zip(phis, table.energies):
            point = eigensolve(flow_sweep(params.with_phi(phi)).at(phi), n_levels=4)
            np.testing.assert_array_equal(row, point.energies)


def test_sweep_csv_layout(tmp_path):
    params = ModelParams(n=2, j=1.0, u=0.2)
    phis = np.linspace(0.0, 1.0, 3)
    table = spectrum_sweep(params, phis, n_levels=2)
    path = tmp_path / "spectrum.csv"
    table.to_csv(path, comment="n=2")
    lines = path.read_text().splitlines()
    assert lines[0] == "# n=2"
    assert lines[1] == "phi,level,energy"
    assert len(lines) == 2 + 3 * 2
    first = lines[2].split(",")
    assert first[0] == "0"
    assert first[1] == "0"
    assert float(first[2]) == pytest.approx(table.energies[0, 0])


def test_minimum_gap_sits_at_the_crossing_phase():
    params = ModelParams(n=3, u=0.1)
    phis = np.linspace(0.0, 2.0 * math.pi, 81)
    table = spectrum_sweep(params, phis, n_levels=2)
    gaps = table.energies[:, 1] - table.energies[:, 0]
    assert int(np.argmin(gaps)) == int(np.argmin(np.abs(phis - math.pi)))


def test_sector_solve_embeds_block_vectors_in_the_flow_basis():
    op = flow_sweep(ModelParams(n=6, u=0.3)).at(2.0)
    result = eigensolve(op, n_levels=4)
    assert result.vectors.dtype == np.float64
    assert result.basis is op.basis
    np.testing.assert_allclose(result.energies, np.linalg.eigvalsh(op.matrix)[:4], atol=1e-12)
    np.testing.assert_allclose(op.matrix @ result.vectors, result.vectors * result.energies, atol=1e-12)
    labels = quasimomentum_labels(op.basis)
    for column in result.vectors.T:
        assert len(set(labels[np.abs(column) > 0])) == 1


def test_sector_solve_breaks_ties_by_sector_then_block_index():
    basis = enumerate_fock(2, "flow")
    op = HermitianOperator(np.zeros((basis.dimension, basis.dimension)), basis, ModelParams(n=2))
    result = eigensolve(op, n_levels=3)
    np.testing.assert_array_equal(result.energies, 0.0)
    picked = [basis.states[int(np.argmax(np.abs(v)))] for v in result.vectors.T]
    assert picked == [(2, 0, 0), (0, 1, 1), (1, 1, 0)]  # k = 0, 0, 1


def test_sector_solve_rejects_operators_that_couple_sectors():
    """An operator declared to conserve quasi-momentum (equal bonds) whose
    matrix couples the sectors fails the leak scan."""
    unequal = flow_hamiltonian_by_conjugation(ModelParams(n=3, j=(1.0, 0.8, 1.2), u=0.1, phi=0.4))
    op = HermitianOperator(unequal.matrix, unequal.basis, ModelParams(n=3, u=0.1, phi=0.4))
    assert len(op.sectors) == 3
    with pytest.raises(NumericalContractError, match="couples its sectors"):
        eigensolve(op, n_levels=2)


def test_eigensolve_rejects_level_counts_outside_one_to_the_dimension():
    """A bare matrix and an operator solved by sector share one contract."""
    op = flow_sweep(ModelParams(n=3, u=0.1)).at(1.0)
    assert len(op.sectors) == 3
    for operator, dim in ((np.diag([3.0, -1.0, 2.0, 0.5]), 4), (op, op.dimension)):
        for n_levels in (0, -1, dim + 1):
            with pytest.raises(UnsupportedConfigurationError, match=rf"n_levels must be in \[1, {dim}\], got {n_levels}"):
                eigensolve(operator, n_levels=n_levels)
        assert eigensolve(operator, n_levels=dim).energies.size == dim


def _random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


_TRUE_EIGH = np.linalg.eigh


def _patched_eigh(monkeypatch, corrupt):
    """Make ``numpy.linalg.eigh`` return its true pairs after ``corrupt``."""

    def eigh(matrix):
        energies, vectors = _TRUE_EIGH(matrix)
        corrupt(energies, vectors)
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", eigh)


def test_sum_rules_reject_a_wrong_discarded_eigenvalue(monkeypatch):
    matrix = _random_hermitian(8, 1)
    top = np.linalg.eigvalsh(matrix)[-1]

    def shift_top(energies, vectors):
        energies[-1] += 1e-6 * abs(top)

    _patched_eigh(monkeypatch, shift_top)
    with pytest.raises(NumericalContractError, match="sum rules"):
        eigensolve(matrix, n_levels=2)


def test_returned_pairs_are_checked_and_discarded_vectors_are_not(monkeypatch):
    matrix = _random_hermitian(8, 2)

    def mix_returned(energies, vectors):
        vectors[:, [0, 1]] = vectors[:, [0, 1]] @ np.array([[0.8, -0.6], [0.6, 0.8]])

    def stretch_returned(energies, vectors):
        vectors[:, 1] *= 1.01

    def spoil_discarded(energies, vectors):
        vectors[:, -1] = vectors[:, 0]

    _patched_eigh(monkeypatch, mix_returned)
    with pytest.raises(NumericalContractError, match="residual"):
        eigensolve(matrix, n_levels=2)
    _patched_eigh(monkeypatch, stretch_returned)
    with pytest.raises(NumericalContractError, match="orthonormality"):
        eigensolve(matrix, n_levels=2)
    _patched_eigh(monkeypatch, spoil_discarded)
    result = eigensolve(matrix, n_levels=2)
    np.testing.assert_allclose(result.energies, np.linalg.eigvalsh(matrix)[:2], atol=1e-12)
    with pytest.raises(NumericalContractError):
        eigensolve(matrix)


def _every_block_solved(op: HermitianOperator, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for the sector route without the skip: every block of
    ``op.sectors`` goes through ``_checked_eigh``, and the levels are merged by
    (energy, block, index within the block)."""
    solved = [_checked_eigh(op.matrix[np.ix_(members, members)], n_levels) for members in op.sectors]
    levels = sorted((float(e), b, i) for b, (energies, _) in enumerate(solved) for i, e in enumerate(energies))
    vectors = np.zeros((op.dimension, n_levels), dtype=op.matrix.dtype)
    for column, (_, b, i) in enumerate(levels[:n_levels]):
        vectors[op.sectors[b], column] = solved[b][1][:, i]
    return np.array([e for e, _, _ in levels[:n_levels]]), vectors


equal_bond_params = st.one_of(
    st.builds(
        lambda n, j, u: ModelParams(n=n, j=j, u=u),
        st.integers(1, 12),
        st.floats(0.5, 1.5),
        st.floats(0.0, 2.0),
    ),
    st.builds(
        lambda n, j, u0, u1: ModelParams(n=n, j=j, u0=u0, u1=u1, dipolar=True),
        st.integers(1, 12),
        st.floats(0.5, 1.5),
        st.floats(0.0, 1.0),
        st.floats(-0.5, 0.5),
    ),
)
phases = st.one_of(
    st.sampled_from([0.0, math.pi, math.pi - 0.2, math.pi + 1e-12]),
    st.floats(-2.0 * math.pi, 4.0 * math.pi),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(params=equal_bond_params, phi=phases, data=st.data())
def test_skipped_blocks_leave_levels_and_vectors_unchanged(params, phi, data):
    """Skipping the blocks that provably hold no requested level returns
    exactly what solving every block returns, bit for bit."""
    op = flow_sweep(params).at(phi)
    assert len(op.sectors) == 3
    n_levels = data.draw(st.integers(1, op.dimension), label="n_levels")
    result = eigensolve(op, n_levels=n_levels)
    energies, vectors = _every_block_solved(op, n_levels)
    np.testing.assert_array_equal(result.energies, energies)
    np.testing.assert_array_equal(result.vectors, vectors)


def _solved_block_sizes(monkeypatch) -> list[int]:
    """Record the size of every matrix handed to ``numpy.linalg.eigh``."""
    sizes: list[int] = []

    def eigh(matrix):
        sizes.append(matrix.shape[0])
        return _TRUE_EIGH(matrix)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return sizes


def test_block_whose_diagonal_lies_above_the_cut_is_solved_if_it_holds_a_lower_level(monkeypatch):
    """The diagonal alone does not prove a block empty: the k = 1 block has
    diagonal 1 but the level -1, below the ground level 0 of the k = 0 block
    visited first.  Its Cholesky factorisation fails, so it is solved; the
    k = 2 block, diagonal 4 and levels 3.5 and 4.5, is proven empty and skipped."""
    basis = enumerate_fock(2, "flow")
    k0, k1, k2 = (np.flatnonzero(quasimomentum_labels(basis) == k) for k in range(3))
    matrix = np.zeros((basis.dimension, basis.dimension))
    matrix[np.ix_(k0, k0)] = [[0.0, 0.0], [0.0, 5.0]]
    matrix[np.ix_(k1, k1)] = [[1.0, 2.0], [2.0, 1.0]]
    matrix[np.ix_(k2, k2)] = [[4.0, 0.5], [0.5, 4.0]]
    op = HermitianOperator(matrix, basis, ModelParams(n=2))
    sizes = _solved_block_sizes(monkeypatch)
    result = eigensolve(op, n_levels=1)
    np.testing.assert_allclose(result.energies, [-1.0], atol=1e-14)
    assert np.all(result.vectors[k0] == 0) and np.all(result.vectors[k2] == 0)
    assert sizes == [2, 2]


def test_levels_above_needs_the_diagonal_and_the_factorisation():
    """``_levels_above`` proves that no level lies at or below the cut: a level
    on the cut, or below it under a diagonal above it, is not proven away."""
    matrix = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert _levels_above(matrix, 0.5)
    assert not _levels_above(matrix, 1.0)
    coupled = np.array([[1.0, 2.0], [2.0, 1.0]])  # levels -1 and 3, diagonal 1
    assert not _levels_above(coupled, 0.0)
    assert _levels_above(coupled, -1.5)
    assert _levels_above(np.array([[1.0, 0.5j], [-0.5j, 1.0]]), 0.25)
