"""Differential test: the flow route against the dense site oracle.

Ground states and spectra come from the flow Hamiltonian (``flow_sweep``),
solved by quasi-momentum block (``sector_eigensolve``) with equal tunnelling
and whole with unequal bonds.  The oracle is a dense solve of the whole site
Hamiltonian, ``eigensolve(build_site_hamiltonian)``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import (
    ModelParams,
    build_site_hamiltonian,
    eigensolve,
    embed_single_flow,
    ground_cat_metrics,
    spectrum_sweep,
)
from ringcat.catmetrics import CROSSING_DPHI_ATOL

TOL = 1e-10

DPHIS = [0.0, CROSSING_DPHI_ATOL, -CROSSING_DPHI_ATOL, 0.05, -0.05, 0.3, -0.3]

bond = st.floats(0.5, 1.5)
bonds = st.one_of(bond, st.tuples(bond, bond, bond))
contact = st.builds(
    lambda n, j, u: ModelParams(n=n, j=j, u=u),
    st.integers(1, 12),
    bonds,
    st.floats(0.01, 0.5),
)
dipolar = st.builds(
    lambda n, j, u0, u1: ModelParams(n=n, j=j, u0=u0, u1=u1, dipolar=True),
    st.integers(1, 12),
    bonds,
    st.floats(0.01, 0.5),
    st.floats(-0.2, 0.2),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(params=st.one_of(contact, dipolar), dphi=st.sampled_from(DPHIS))
def test_sector_route_matches_dense_site_oracle(params, dphi):
    phi = math.pi + dphi
    site = build_site_hamiltonian(params.with_phi(phi))

    levels = min(6, site.dimension)
    np.testing.assert_allclose(
        spectrum_sweep(params, [phi], n_levels=levels).energies[0],
        eigensolve(site, n_levels=levels).energies,
        rtol=TOL,
        atol=TOL,
    )

    fast = ground_cat_metrics(params, dphi)
    oracle = ground_cat_metrics(params, dphi, operator=site)
    np.testing.assert_allclose(fast.captured_norm, oracle.captured_norm, rtol=TOL, atol=TOL)
    atol = amplitude_tol(params, dphi, site)
    np.testing.assert_allclose(abs(fast.a0), abs(oracle.a0), rtol=TOL, atol=atol)
    np.testing.assert_allclose(abs(fast.a1), abs(oracle.a1), rtol=TOL, atol=atol)


def amplitude_tol(params: ModelParams, dphi: float, site) -> float:
    """Tolerance on |a0| and |a1|, widened on the crossing by its conditioning.

    On the crossing the metrics use the top eigenvector of the 2x2 Gram
    matrix of the pair projections of the two lowest levels.  Rounding of
    order 1e-15 moves that vector by about 1e-15 / (Gram eigenvalue gap) in
    either route.  The gap is tiny where the dressed flow states barely
    overlap the other pair member (N = 12 at U/J = 0.01: 9e-8), and it
    vanishes where the pair sits in two uncoupled, degenerate sectors
    (contact interaction, N mod 3 != 0), so that any split between |a0| and
    |a1| is a ground state.  Measured |Delta| * gap stayed below 2.3e-15.
    """
    if abs(dphi) > CROSSING_DPHI_ATOL:
        return TOL
    vectors = eigensolve(site, n_levels=2).vectors
    pair = np.vstack([embed_single_flow(params.n, 0), embed_single_flow(params.n, 1)]).conj() @ vectors
    low, high = np.linalg.eigvalsh(pair.conj().T @ pair)
    return TOL + 1e-13 / max(high - low, 1e-300)
