"""The equal-bond flow operator held as its quasi-momentum blocks.

``flow_sweep(params).at(phi)`` holds one dense block per quasi-momentum
sector and builds no matrix of the whole basis; ``HermitianOperator.matrix``
assembles that matrix only when it is read.  The oracle is
``flow_hamiltonian_by_conjugation``, the site Hamiltonian conjugated into the
flow basis.  Every dense matrix an operator holds or assembles stays under
``hamiltonians.MAX_DENSE_ENTRIES``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import (
    HermitianOperator,
    ModelParams,
    UnsupportedConfigurationError,
    cli,
    flow_hamiltonian_by_conjugation,
    flow_sweep,
    quasimomentum_labels,
)
from ringcat import hamiltonians

contact = st.builds(lambda n, j, u: ModelParams(n=n, j=j, u=u), st.integers(1, 12), st.floats(0.5, 1.5), st.floats(0.0, 2.0))
dipolar = st.builds(
    lambda n, j, u0, u1: ModelParams(n=n, j=j, u0=u0, u1=u1, dipolar=True),
    st.integers(1, 12),
    st.floats(0.5, 1.5),
    st.floats(0.0, 1.0),
    st.floats(-0.5, 0.5),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=st.one_of(contact, dipolar), phi=st.floats(-2.0 * math.pi, 4.0 * math.pi))
def test_blocks_are_the_conjugated_site_hamiltonian_on_each_sector(params, phi):
    op = flow_sweep(params).at(phi)
    oracle = flow_hamiltonian_by_conjugation(params.with_phi(phi))
    labels = quasimomentum_labels(op.basis)
    assert len(op.blocks) == len(op.sectors) == 3
    for k, (members, block) in enumerate(zip(op.sectors, op.blocks)):
        np.testing.assert_array_equal(members, np.flatnonzero(labels == k))
        assert block.dtype == np.float64
        reference = oracle.blocks[k]
        np.testing.assert_allclose(block, reference, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(reference))))
    matrix = op.matrix
    assert np.all(matrix[labels[:, None] != labels] == 0.0)
    for members, block in zip(op.sectors, op.blocks):
        np.testing.assert_array_equal(matrix[np.ix_(members, members)], block)


def test_a_dense_matrix_is_split_into_the_same_blocks():
    op = flow_sweep(ModelParams(n=9, u0=0.2, u1=-0.1, dipolar=True)).at(2.0)
    split = HermitianOperator(op.matrix, op.basis, op.params)
    for k in range(3):
        np.testing.assert_array_equal(split.sectors[k], op.sectors[k])
        np.testing.assert_array_equal(split.blocks[k], op.blocks[k])


@pytest.mark.parametrize(
    "command",
    [
        "catscan --n 12",
        "catscan --n 7 --u0 0.1 --u1 0.05",
        "effective --n 12 --u 0.01",
        "effective --n 5 --u -0.3",
        "spectrum --n 12 --levels 8",
        "spectrum --n 10 --u0 0.1 --u1 0.05",
        "paths --n 12 --max-order 11",
        "paths --n 9 --u0 0.1 --u1 0.05 --max-order 6",
    ],
)
def test_equal_bond_commands_build_no_matrix_of_the_whole_basis(command, tmp_path, monkeypatch):
    """With the dense assembly patched to raise, and no dense matrix of the
    whole basis allowed, each command still runs and writes the same CSV."""
    expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
    assert cli.main([*command.split(), "--out", str(expected)]) == 0

    def assemble(self):
        raise AssertionError("the dense matrix of the whole basis was assembled")

    n = int(command.split()[2])
    monkeypatch.setattr(HermitianOperator, "matrix", property(assemble))
    monkeypatch.setattr(hamiltonians, "MAX_DENSE_ENTRIES", ((n + 1) * (n + 2) // 2) ** 2 - 1)
    assert cli.main([*command.split(), "--out", str(got)]) == 0
    assert got.read_text().splitlines()[1:] == expected.read_text().splitlines()[1:]


def test_the_assembled_matrix_stays_under_the_bound(monkeypatch):
    """N = 12 has blocks of 31, 30 and 30 states and 91 states in all."""
    op = flow_sweep(ModelParams(n=12, u=0.1)).at(math.pi)
    monkeypatch.setattr(hamiltonians, "MAX_DENSE_ENTRIES", 31**2)
    flow_sweep(ModelParams(n=12, u=0.1)).at(math.pi)
    with pytest.raises(UnsupportedConfigurationError, match="91 x 91 matrix exceeds 961 entries"):
        op.matrix
    monkeypatch.setattr(hamiltonians, "MAX_DENSE_ENTRIES", 31**2 - 1)
    with pytest.raises(UnsupportedConfigurationError, match="31 x 31 matrix exceeds 960 entries"):
        flow_sweep(ModelParams(n=12, u=0.1))


@pytest.mark.parametrize("command", ["spectrum --n 400 --j 1,0.9,1.1", "catscan --n 400", "effective --n 400"])
def test_dense_matrices_above_the_bound_exit_2_before_they_are_allocated(command, tmp_path, monkeypatch, capsys):
    """N = 400 has 80601 states: the unequal-bond matrix would hold 6.5e9
    entries and each equal-bond block about 7.2e8, both above the bound.
    Every numpy allocation of more than 1e7 entries fails the test, so a
    missing bound cannot exhaust the memory."""
    true_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        assert math.prod(np.atleast_1d(shape)) <= 10**7, f"allocation of shape {shape}"
        return true_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    assert cli.main([*command.split(), "--out", str(tmp_path / "out.csv")]) == 2
    assert f"matrix exceeds {hamiltonians.MAX_DENSE_ENTRIES} entries" in capsys.readouterr().err
