"""Tests for the verified eigensolver and phase sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
    sector_eigensolve,
    spectrum_sweep,
)


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
            p = params.with_phi(phi)
            if p.equal_j:
                point = sector_eigensolve(flow_sweep(p).at(phi), n_levels=4)
            else:
                point = eigensolve(flow_sweep(p).at(phi), n_levels=4)
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
    result = sector_eigensolve(op, n_levels=4)
    assert result.vectors.dtype == np.float64
    assert result.basis is op.basis
    np.testing.assert_allclose(result.energies, np.linalg.eigvalsh(op.matrix)[:4], atol=1e-12)
    np.testing.assert_allclose(op.matrix @ result.vectors, result.vectors * result.energies, atol=1e-12)
    labels = quasimomentum_labels(op.basis)
    for column in result.vectors.T:
        assert len(set(labels[np.abs(column) > 0])) == 1


def test_sector_solve_breaks_ties_by_sector_then_block_index():
    basis = enumerate_fock(2, "flow")
    op = HermitianOperator(np.zeros((basis.dimension, basis.dimension)), basis)
    result = sector_eigensolve(op, n_levels=3)
    np.testing.assert_array_equal(result.energies, 0.0)
    picked = [basis.states[int(np.argmax(np.abs(v)))] for v in result.vectors.T]
    assert picked == [(2, 0, 0), (0, 1, 1), (1, 1, 0)]  # k = 0, 0, 1


def test_sector_solve_rejects_operators_that_couple_sectors():
    op = flow_hamiltonian_by_conjugation(ModelParams(n=3, j=(1.0, 0.8, 1.2), u=0.1, phi=0.4))
    with pytest.raises(NumericalContractError):
        sector_eigensolve(op, n_levels=2)
    with pytest.raises(UnsupportedConfigurationError):
        sector_eigensolve(build_site_hamiltonian(ModelParams(n=3, u=0.1)), n_levels=2)


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
