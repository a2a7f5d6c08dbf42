"""Tests for the Fock enumeration, flow-mode embedding and basis transform."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ringcat import (
    InvalidModeError,
    InvalidOccupationError,
    embed_single_flow,
    enumerate_fock,
    mode_transform_matrix,
    quasimomentum_sector,
)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_enumeration_dimension_and_ordering(n):
    basis = enumerate_fock(n)
    assert basis.dimension == (n + 1) * (n + 2) // 2
    assert all(sum(occ) == n for occ in basis.states)
    assert basis.states[0] == (n, 0, 0)
    assert basis.states[-1] == (0, 0, n)
    assert list(basis.states) == sorted(basis.states, reverse=True)
    # no duplicates
    assert len(set(basis.states)) == basis.dimension


@pytest.mark.parametrize("n", [1, 3, 6, 10, 25, 40])
def test_index_round_trip(n):
    basis = enumerate_fock(n)
    for i, occ in enumerate(basis.states):
        assert basis.index(occ) == i
        assert basis.index(list(occ)) == i


def test_index_rejects_bad_occupations():
    basis = enumerate_fock(3)
    with pytest.raises(InvalidOccupationError):
        basis.index((2, 1, 1))  # wrong total
    with pytest.raises(InvalidOccupationError):
        basis.index((4, -1, 0))  # negative entry
    with pytest.raises(InvalidOccupationError):
        basis.index((1, 2))  # wrong length


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(InvalidOccupationError):
        enumerate_fock(-1)
    with pytest.raises(InvalidOccupationError):
        enumerate_fock(2, "position")


@pytest.mark.parametrize(
    "occ, sector",
    [
        ((3, 0, 0), 0),
        ((0, 3, 0), 0),
        ((0, 0, 3), 0),
        ((1, 1, 1), 0),
        ((2, 1, 0), 1),
        ((2, 0, 1), 2),
        ((0, 2, 1), 1),
        ((4, 0, 0), 0),
        ((0, 4, 0), 1),
    ],
)
def test_quasimomentum_sector_values(occ, sector):
    assert quasimomentum_sector(occ) == sector


@pytest.mark.parametrize("n", [2, 4, 7])
def test_quasimomentum_sector_formula(n):
    for occ in enumerate_fock(n, "flow"):
        assert quasimomentum_sector(occ) == (occ[1] + 2 * occ[2]) % 3


def test_single_particle_embedding_is_fourier():
    basis = enumerate_fock(1)
    # states in order: (1,0,0), (0,1,0), (0,0,1)
    assert basis.states == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for k in range(3):
        vec = embed_single_flow(1, k)
        expected = np.exp(-2j * np.pi * k * np.arange(3) / 3.0) / math.sqrt(3.0)
        np.testing.assert_allclose(vec, expected, atol=1e-15)


def test_two_particle_zero_mode_amplitudes():
    basis = enumerate_fock(2)
    vec = embed_single_flow(2, 0)
    # (alpha^dag)^2 |vac> / sqrt(2!) has amplitude 1/3 on doubly occupied
    # sites and sqrt(2)/3 on singly occupied pairs, all real and positive.
    assert vec[basis.index((2, 0, 0))] == pytest.approx(1.0 / 3.0)
    assert vec[basis.index((0, 2, 0))] == pytest.approx(1.0 / 3.0)
    assert vec[basis.index((1, 1, 0))] == pytest.approx(math.sqrt(2.0) / 3.0)
    assert vec[basis.index((1, 0, 1))] == pytest.approx(math.sqrt(2.0) / 3.0)
    np.testing.assert_allclose(vec.imag, 0.0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_embeddings_are_orthonormal(n):
    vecs = [embed_single_flow(n, k) for k in range(3)]
    for k in range(3):
        for l in range(3):
            overlap = np.vdot(vecs[k], vecs[l])
            np.testing.assert_allclose(overlap, 1.0 if k == l else 0.0, atol=1e-12)


def test_embed_rejects_bad_arguments():
    with pytest.raises(InvalidOccupationError):
        embed_single_flow(0, 0)
    with pytest.raises(InvalidModeError):
        embed_single_flow(3, 5)
    with pytest.raises(InvalidModeError):
        embed_single_flow(3, -1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_mode_transform_is_unitary(n):
    w = mode_transform_matrix(n)
    dim = (n + 1) * (n + 2) // 2
    assert w.shape == (dim, dim)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mode_transform_columns_match_single_flow_embedding(n):
    w = mode_transform_matrix(n)
    flow = enumerate_fock(n, "flow")
    pure = {0: (n, 0, 0), 1: (0, n, 0), 2: (0, 0, n)}
    for k, occ in pure.items():
        np.testing.assert_allclose(
            w[:, flow.index(occ)], embed_single_flow(n, k), atol=1e-12
        )


def test_mode_transform_single_particle_matches_mode_phases():
    from ringcat.basis import MODE_PHASES

    w = mode_transform_matrix(1)
    np.testing.assert_allclose(w, MODE_PHASES, atol=1e-15)


def test_mode_transform_rejects_a_negative_particle_number():
    with pytest.raises(InvalidOccupationError, match="particle number must be non-negative, got -1"):
        mode_transform_matrix(-1)


def test_dimension_formula_up_to_forty_particles():
    for n in range(41):
        basis = enumerate_fock(n)
        expected = (n + 1) * (n + 2) // 2
        assert basis.dimension == expected
        assert len(list(basis)) == expected
