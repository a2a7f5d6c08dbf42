"""Tests for the site- and flow-basis ring Hamiltonians."""

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
    build_flow_hamiltonian,
    build_site_hamiltonian,
    enumerate_fock,
    flow_hamiltonian_by_conjugation,
    flow_sweep,
    mode_transform_matrix,
    quasimomentum_sector,
    site_sweep,
)
from ringcat.hamiltonians import _hermitian

BONDS = ((0, 1), (1, 2), (2, 0))


def test_params_broadcast_and_properties():
    p = ModelParams(n=3, j=0.7)
    assert p.j == (0.7, 0.7, 0.7)
    assert p.equal_j
    assert p.j1 == 0.7
    q = ModelParams(n=3, j=(1.0, 2.0, 3.0))
    assert not q.equal_j
    assert q.with_phi(1.5).phi == 1.5
    assert q.with_phi(1.5).j == q.j


def test_params_validation():
    with pytest.raises(UnsupportedConfigurationError):
        ModelParams(n=0)
    with pytest.raises(UnsupportedConfigurationError):
        ModelParams(n=2, j=(1.0, 2.0))
    with pytest.raises(UnsupportedConfigurationError):
        ModelParams(n=2, u=math.inf)
    with pytest.raises(UnsupportedConfigurationError):
        ModelParams(n=2, phi=math.nan)


def test_operator_rejects_non_hermitian_and_wrong_shape():
    basis = enumerate_fock(1)
    bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NumericalContractError):
        HermitianOperator(matrix=bad, basis=basis)
    with pytest.raises(NumericalContractError):
        HermitianOperator(matrix=np.zeros((2, 3)), basis=basis)
    with pytest.raises(NumericalContractError):
        HermitianOperator(matrix=np.zeros((4, 4)), basis=basis)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[1.0, -0.5, 0.0], [-0.5, 2.0, 0.25], [0.0, 0.25, -3.0]]),
        np.array([[1.0, 0.5 - 0.2j, 0.0], [0.5 + 0.2j, 2.0, -1j], [0.0, 1j, -3.0]]),
    ],
)
def test_exactly_hermitian_matrix_is_returned_as_it_is(matrix):
    out = _hermitian(matrix)
    assert out is matrix
    np.testing.assert_array_equal(out, 0.5 * (matrix + matrix.conj().T))


def test_nearly_hermitian_matrix_is_symmetrised_and_others_rejected():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    out = _hermitian(m)
    assert out is not m
    np.testing.assert_array_equal(out, out.conj().T)
    np.testing.assert_array_equal(out, 0.5 * (m + m.conj().T))
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert _hermitian(nan) is not nan  # NaN is never equal to itself: the tolerance path
    with pytest.raises(NumericalContractError, match="not hermitian"):
        _hermitian(np.array([[1.0, 0.5 + 1e-9j], [0.5, 2.0]]))
    with pytest.raises(NumericalContractError, match="square"):
        _hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("phi", [0.0, 1.3, math.pi])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"u": 0.5},
        {"j": (1.0, 0.8, 1.2), "u": 0.5},
        {"u0": 0.4, "u1": 0.1, "dipolar": True},
    ],
)
def test_site_hamiltonian_is_hermitian(n, phi, kwargs):
    op = build_site_hamiltonian(ModelParams(n=n, phi=phi, **kwargs))
    np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-14)


def kronecker_site_hamiltonian(params: ModelParams) -> np.ndarray:
    """The site Hamiltonian written with a_p as Kronecker products on the
    (N+1)^3 product space, projected onto the ``enumerate_fock`` order."""
    n = params.n
    lower = np.diag(np.sqrt(np.arange(1.0, n + 1)), k=1)
    eye = np.eye(n + 1)
    a = [np.kron(np.kron(lower, eye), eye), np.kron(np.kron(eye, lower), eye), np.kron(np.kron(eye, eye), lower)]
    hop = sum(-j * np.exp(1j * params.phi / 3.0) * a[p].T @ a[q] for j, (p, q) in zip(params.j, BONDS))
    onsite = params.u0 if params.dipolar else params.u
    h = hop + hop.conj().T + onsite * sum(a[p].T @ a[p].T @ a[p] @ a[p] for p in range(3))
    if params.dipolar:
        pair = sum(a[p].T @ a[p].T @ a[q] @ a[q] for p, q in BONDS)
        h = h + params.u1 * (pair + pair.T)
    keep = [(n1 * (n + 1) + n2) * (n + 1) + n3 for n1, n2, n3 in enumerate_fock(n).states]
    return h[np.ix_(keep, keep)]


ring_params = st.builds(
    lambda n, j, u, u1, dipolar, phi: ModelParams(
        n=n, j=j, u=u, u0=u, u1=u1, dipolar=dipolar, phi=phi
    ),
    st.integers(1, 4),
    st.tuples(*[st.floats(0.1, 2.0)] * 3),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.booleans(),
    st.floats(-2 * math.pi, 4 * math.pi),
)


@settings(max_examples=200, deadline=None)
@given(ring_params, st.floats(-2 * math.pi, 4 * math.pi))
def test_site_hamiltonian_matches_the_kronecker_oracle(params, other_phi):
    oracle = kronecker_site_hamiltonian(params)
    np.testing.assert_allclose(build_site_hamiltonian(params).matrix, oracle, rtol=0, atol=1e-14)
    swept = site_sweep(params.with_phi(other_phi)).at(params.phi)
    np.testing.assert_allclose(swept.matrix, oracle, rtol=0, atol=1e-14)


@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi, 4.0, 2 * math.pi])
def test_single_particle_spectrum(phi):
    """One atom on the ring: levels are -2J cos((phi - 2 pi k) / 3)."""
    j = 1.0
    op = build_site_hamiltonian(ModelParams(n=1, j=j, phi=phi))
    got = np.linalg.eigvalsh(op.matrix)
    expected = np.sort([-2 * j * math.cos((phi - 2 * math.pi * k) / 3.0) for k in range(3)])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_single_particle_matrix_with_unequal_bonds():
    j = (1.0, 2.0, 3.0)
    phi = 0.9
    op = build_site_hamiltonian(ModelParams(n=1, j=j, phi=phi))
    hop = np.exp(1j * phi / 3.0)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = -j[0] * hop  # a^dag b
    expected[1, 2] = -j[1] * hop  # b^dag c
    expected[2, 0] = -j[2] * hop  # c^dag a
    expected += expected.conj().T
    np.testing.assert_allclose(op.matrix, expected, atol=1e-14)


@pytest.mark.parametrize("n, u", [(2, 0.3), (3, 1.0), (4, 0.05)])
def test_contact_interaction_diagonal(n, u):
    """With tunnelling off, the energy is U * sum_j n_j (n_j - 1)."""
    op = build_site_hamiltonian(ModelParams(n=n, j=0.0, u=u))
    expected = [u * sum(m * (m - 1) for m in occ) for occ in op.basis.states]
    np.testing.assert_allclose(np.diag(op.matrix).real, expected, atol=1e-14)
    np.testing.assert_allclose(op.matrix, np.diag(np.diag(op.matrix)), atol=1e-14)


def test_dipolar_reduces_to_contact_without_pair_exchange():
    base = dict(n=3, j=0.9, phi=2.1)
    contact = build_site_hamiltonian(ModelParams(u=0.37, **base))
    dipolar = build_site_hamiltonian(ModelParams(u0=0.37, u1=0.0, dipolar=True, **base))
    np.testing.assert_allclose(dipolar.matrix, contact.matrix, atol=1e-14)


def test_dipolar_pair_exchange_element():
    """(a^dag)^2 b^2 moves a boson pair with amplitude U1 sqrt((na+1)(na+2) nb(nb-1))."""
    u1 = 0.25
    op = build_site_hamiltonian(ModelParams(n=2, j=0.0, u0=0.0, u1=u1, dipolar=True))
    b = op.basis
    elem = op.matrix[b.index((2, 0, 0)), b.index((0, 2, 0))]
    np.testing.assert_allclose(elem, u1 * math.sqrt(1 * 2 * 2 * 1), atol=1e-14)
    # and its mirror around the ring
    elem_cb = op.matrix[b.index((0, 0, 2)), b.index((0, 2, 0))]
    np.testing.assert_allclose(elem_cb, u1 * 2.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("phi", [0.0, 1.1, math.pi])
def test_flow_hamiltonian_diagonal(n, phi):
    j, u = 1.0, 0.4
    op = build_flow_hamiltonian(ModelParams(n=n, j=j, u=u, phi=phi))
    for i, (qa, qb, qc) in enumerate(op.basis.states):
        kinetic = -j * (2 * qa - qb - qc) * math.cos(phi / 3.0) - math.sqrt(3.0) * j * (
            qb - qc
        ) * math.sin(phi / 3.0)
        pairs = qa * (qa - 1) + qb * (qb - 1) + qc * (qc - 1)
        cross = qa * qb + qa * qc + qb * qc
        interaction = (u / 3.0) * pairs + (4.0 * u / 3.0) * cross
        np.testing.assert_allclose(op.matrix[i, i].real, kinetic + interaction, atol=1e-12)


def test_flow_hamiltonian_exchange_element():
    """alpha alpha -> beta^dag gamma^dag carries 2U/3 sqrt(na(na-1)(nb+1)(nc+1))."""
    u = 0.9
    op = build_flow_hamiltonian(ModelParams(n=2, j=1.0, u=u, phi=0.3))
    b = op.basis
    elem = op.matrix[b.index((0, 1, 1)), b.index((2, 0, 0))]
    np.testing.assert_allclose(elem, (2.0 * u / 3.0) * math.sqrt(2.0), atol=1e-13)


def test_flow_hamiltonian_requires_equal_tunnelling():
    with pytest.raises(UnsupportedConfigurationError):
        build_flow_hamiltonian(ModelParams(n=2, j=(1.0, 1.1, 1.0)))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi])
def test_conjugation_matches_analytic_flow_form(n, phi):
    params = ModelParams(n=n, j=1.0, u=0.3, phi=phi)
    analytic = build_flow_hamiltonian(params)
    conjugated = flow_hamiltonian_by_conjugation(params)
    np.testing.assert_allclose(conjugated.matrix, analytic.matrix, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
@pytest.mark.parametrize(
    "interaction",
    [{"u": 0.3}, {"u0": 0.3, "u1": 0.08, "dipolar": True}, {"u0": 0.0, "u1": -0.2, "dipolar": True}],
)
def test_flow_sweep_is_the_conjugated_site_hamiltonian(n, interaction):
    for bonds in (0.9, (1.0, 0.8, 1.2), (0.3, 1.7, 0.8)):
        params = ModelParams(n=n, j=bonds, **interaction)
        sweep = flow_sweep(params)
        for phi in (0.0, 1.7, math.pi):
            op = sweep.at(phi)
            assert op.matrix.dtype == (np.float64 if params.equal_j else np.complex128)
            assert op.params == params.with_phi(phi)
            conjugated = flow_hamiltonian_by_conjugation(params.with_phi(phi))
            np.testing.assert_allclose(op.matrix, conjugated.matrix, atol=1e-12)


def test_flow_sweep_matches_the_analytic_contact_form():
    params = ModelParams(n=5, j=1.1, u=0.4, phi=2.3)
    np.testing.assert_array_equal(flow_sweep(params).at(2.3).matrix, build_flow_hamiltonian(params).matrix)


@pytest.mark.parametrize("dipolar_kwargs", [{}, {"u0": 0.3, "u1": 0.08, "dipolar": True}])
def test_conjugation_preserves_spectrum(dipolar_kwargs):
    params = ModelParams(n=4, j=(1.0, 0.7, 1.3), u=0.2, phi=1.9, **dipolar_kwargs)
    site = build_site_hamiltonian(params)
    flow = flow_hamiltonian_by_conjugation(params)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(flow.matrix), np.linalg.eigvalsh(site.matrix), atol=1e-10
    )


def test_conjugation_is_the_basis_change():
    params = ModelParams(n=3, j=1.0, u=0.5, phi=2.2)
    site = build_site_hamiltonian(params)
    flow = flow_hamiltonian_by_conjugation(params)
    w = mode_transform_matrix(3)
    np.testing.assert_allclose(flow.matrix, w.conj().T @ site.matrix @ w, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_flow_hamiltonian_conserves_quasimomentum(n):
    op = build_flow_hamiltonian(ModelParams(n=n, j=1.0, u=0.8, phi=1.4))
    sectors = [quasimomentum_sector(occ) for occ in op.basis.states]
    for i in range(op.dimension):
        for j in range(op.dimension):
            if sectors[i] != sectors[j]:
                assert abs(op.matrix[i, j]) < 1e-14


@pytest.mark.parametrize("n", [2, 4])
def test_noninteracting_flow_operator_is_diagonal(n):
    matrix = build_flow_hamiltonian(ModelParams(n=n, u=0.0, phi=1.3)).matrix
    off = matrix - np.diag(np.diag(matrix))
    assert np.max(np.abs(off)) == 0.0


def test_unequal_tunnelling_couples_quasimomentum_sectors():
    params = ModelParams(n=2, j=(1.0, 0.8, 1.2), u=0.1, phi=0.7)
    op = flow_hamiltonian_by_conjugation(params)
    occupations = list(op.basis)
    cross = max(
        abs(op.matrix[i, j])
        for i in range(op.basis.dimension)
        for j in range(op.basis.dimension)
        if quasimomentum_sector(occupations[i]) != quasimomentum_sector(occupations[j])
    )
    assert cross > 1e-2
