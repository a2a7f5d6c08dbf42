"""Differential test: the flow route against the dense site oracle.

Ground states and spectra come from the flow Hamiltonian (``flow_sweep``),
solved by ``eigensolve`` one quasi-momentum block at a time with equal tunnelling
and whole with unequal bonds.  The oracle is a dense solve of the whole site
Hamiltonian, ``eigensolve(build_site_hamiltonian)``; on the crossing it decides
from the flow blocks whether the two lowest levels are the flow doublet.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import (
    ModelParams,
    build_site_hamiltonian,
    cat_amplitudes,
    eigensolve,
    embed_single_flow,
    flow_sweep,
    ground_cat_metrics,
    spectrum_sweep,
)
from ringcat.effective import default_flow_targets

TOL = 1e-10

#: Offsets next to the crossing, whose ground state can be nearly degenerate with the next level.
NEAR = [1e-12, -1e-12]
DPHIS = [0.0, *NEAR, 0.05, -0.05, 0.3, -0.3]

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
    oracle, atol = crossing_oracle(params, site) if dphi == 0.0 else (ground_oracle(site), amplitude_tol(dphi, site))
    np.testing.assert_allclose(fast.captured_norm, oracle.captured_norm, rtol=TOL, atol=atol if dphi in NEAR else TOL)
    np.testing.assert_allclose(abs(fast.a0), abs(oracle.a0), rtol=TOL, atol=atol)
    np.testing.assert_allclose(abs(fast.a1), abs(oracle.a1), rtol=TOL, atol=atol)


def ground_oracle(site):
    return cat_amplitudes(eigensolve(site, n_levels=1).vectors[:, 0], site.basis)


def crossing_oracle(params: ModelParams, site):
    """(metrics, tolerance on |a0| and |a1|) of the crossing row from the two lowest dense levels.

    Where the flow H_QQ (the blocks that hold a pair state, without the pair) and every other flow block lie
    above level 1 plus 1e-9 |H|_F, the two levels are the flow doublet, and the row is the one with the larger
    pair weight (the lower on a tie to 8 eps); otherwise it is level 0.  A split pair with P symmetry (the
    contact interaction, N mod 3 != 0) has a degenerate doublet, in which ``eigensolve`` returns any basis: its
    row is the doublet's state with a1 = 0, the |N,0,0> level.  A dense eigenvector carries an error of about
    eps |H|_2 / gap, the gap to the nearest other level, outside the doublet for the split pair.
    """
    levels = eigensolve(site, n_levels=min(3, site.dimension))
    energies, vectors = levels.energies, levels.vectors
    flow = flow_sweep(params).at(math.pi)
    targets = default_flow_targets(flow.basis)
    rest = [np.linalg.eigvalsh(h[np.ix_(keep, keep)])[0] for m, h in zip(flow.sectors, flow.blocks)
            for keep in [[i for i, state in enumerate(m.tolist()) if state not in targets]] if keep]
    doublet = len(energies) > 1 and min(rest, default=math.inf) > energies[1] + 1e-9 * np.linalg.norm(site.matrix)
    pair = np.vstack([embed_single_flow(params.n, 0), embed_single_flow(params.n, 1)]).conj() @ vectors
    weights, gaps = np.sum(np.abs(pair) ** 2, axis=0), np.r_[np.diff(energies), math.inf]
    if doublet and params.n % 3 and params.equal_j and not (params.dipolar and params.u1 != 0.0):
        state, gap = vectors[:, :2] @ np.array([pair[1, 1], -pair[1, 0]]), gaps[1]
    elif doublet and weights[1] > weights[0] + 8.0 * np.finfo(float).eps:
        state, gap = vectors[:, 1], min(gaps[:2])
    else:
        state, gap = vectors[:, 0], gaps[0]
    return cat_amplitudes(state, site.basis), TOL + 10.0 * np.finfo(float).eps * np.linalg.norm(site.matrix, 2) / gap


def amplitude_tol(dphi: float, site) -> float:
    """Tolerance on |a0| and |a1|, widened next to the crossing by its conditioning: there the metrics are those
    of the ground state, whose dense eigenvector carries an error of about eps |H|_2 / gap, the gap to the next
    level; so does the captured norm.  Dipolar N = 2 at U0 = U1 = 0.125 has a gap of 1.2e-12 there, and the dense
    captured norm is 2e-7 off the 40-digit one, which the elimination route matches."""
    if dphi in NEAR:
        energies = eigensolve(site, n_levels=2).energies
        return TOL + 10.0 * np.finfo(float).eps * np.linalg.norm(site.matrix, 2) / (energies[1] - energies[0])
    return TOL
