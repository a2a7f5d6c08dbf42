"""Ring Hamiltonians for N bosons on a phase-twisted three-site ring.

Site basis (operators a, b, c on sites 0, 1, 2):

    H = -[J1 e^{i phi/3} a^b + J2 e^{i phi/3} b^c + J3 e^{i phi/3} c^a + h.c.]
        + interactions

with contact interactions U (a^2 a^2 + b^2 b^2 + c^2 c^2) (number convention
n(n-1), no 1/2), or dipolar interactions
U0 sum_j n_j(n_j-1) + U1 [(a^+)^2 b^2 + (b^+)^2 c^2 + (c^+)^2 a^2 + h.c.].

Flow basis: with equal tunnelling J the kinetic part is diagonal,

    -J (2 n_alpha - n_beta - n_gamma) cos(phi/3)
    - sqrt(3) J (n_beta - n_gamma) sin(phi/3),

and the contact interaction becomes

    (U/3) [ sum_k m_k^2 m_k^2 + 4 (n_a n_b + n_a n_g + n_b n_g)
            + 2 (alpha^2 beta^+ gamma^+ + beta^2 alpha^+ gamma^+
                 + gamma^2 alpha^+ beta^+ + h.c.) ].

Unequal bonds put their mean on that diagonal and their asymmetry into
hopping between the flow modes, which couples the quasi-momentum sectors.

Both bases are assembled the same way: every off-diagonal term is one
normal-ordered product of ladder operators applied to all basis states at
once (``basis._ladder``), and the diagonal terms are sums over the
occupation array.  The hopping is one routine for both bases, fed the bond
matrix in the site modes or in the flow modes.  Both are returned as a
``PhaseSweep``, H(phi) = H_0 + e^{i phi/3} A + h.c., with the real
phase-independent part H_0 built once and A the hopping.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .basis import _UNIT, FockBasis, _ladder, enumerate_fock, mode_transform_matrix, quasimomentum_labels
from .errors import NumericalContractError, UnsupportedConfigurationError

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the ring model.

    ``j`` holds the three bond tunnelling strengths (a-b, b-c, c-a); a scalar
    is broadcast to all three bonds.  ``u`` is the contact interaction, used
    when ``dipolar`` is False; ``u0``/``u1`` are the on-site and
    pair-exchange strengths of the dipolar variant, used when ``dipolar`` is
    True.  ``phi`` is the applied phase twist threading the ring.
    """

    n: int
    j: tuple[float, float, float] = (1.0, 1.0, 1.0)
    u: float = 0.0
    u0: float = 0.0
    u1: float = 0.0
    phi: float = 0.0
    dipolar: bool = False

    def __post_init__(self):
        j = (self.j,) * 3 if isinstance(self.j, (int, float)) else tuple(self.j)
        if len(j) != 3:
            raise UnsupportedConfigurationError(f"need 3 tunnelling strengths, got {self.j!r}")
        object.__setattr__(self, "j", tuple(float(v) for v in j))
        if self.n < 1:
            raise UnsupportedConfigurationError(f"particle number must be >= 1, got {self.n}")
        for name in ("u", "u0", "u1", "phi"):
            value = getattr(self, name)
            object.__setattr__(self, name, float(value))
            if not math.isfinite(getattr(self, name)):
                raise UnsupportedConfigurationError(f"parameter {name} must be finite, got {value!r}")
        if any(not math.isfinite(v) for v in self.j):
            raise UnsupportedConfigurationError(f"tunnelling strengths must be finite, got {self.j!r}")

    @property
    def equal_j(self) -> bool:
        return self.j[0] == self.j[1] == self.j[2]

    @property
    def j1(self) -> float:
        return self.j[0]

    def with_phi(self, phi: float) -> "ModelParams":
        if float(phi) == self.phi:
            return self
        return dataclasses.replace(self, phi=float(phi))


def _hermitian(matrix, atol: float = 1e-12) -> np.ndarray:
    """(H + H^dagger) / 2 of a square ``matrix`` with max |H - H^dagger| <= ``atol``.

    An exactly Hermitian ``matrix`` of float or complex dtype is returned as
    it is, not copied.
    """
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalContractError(f"operator matrix must be square, got shape {m.shape}")
    adjoint = m.conj().T
    if np.array_equal(m, adjoint):
        return m
    deviation = np.max(np.abs(m - adjoint))
    if deviation > atol:
        raise NumericalContractError(f"operator is not hermitian: max |H - H^dagger| = {deviation:.3e}")
    return 0.5 * (m + adjoint)


def _levels_above(matrix: np.ndarray, cut: float) -> bool:
    """Whether the Hermitian ``matrix`` provably has no level at or below ``cut``:
    its diagonal lies above the cut and a Cholesky factorisation of matrix - cut
    succeeds, which proves it up to rounding of order n eps |H|."""
    if np.min(np.diagonal(matrix).real, initial=np.inf) <= cut:
        return False
    shifted = matrix.copy()
    shifted.flat[:: len(matrix) + 1] -= cut
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass
class HermitianOperator:
    """A dense Hermitian matrix together with its basis and parameters.

    Hermiticity is verified entrywise at construction (tolerance
    ``hermitian_atol``) and the matrix is then symmetrised exactly so that
    downstream solvers see H == H^dagger to machine precision; a float or
    complex matrix that is already exactly Hermitian is kept, not copied, so
    it must not be changed afterwards.  A real matrix is kept real, so that it
    is solved as a real symmetric one.
    """

    matrix: np.ndarray
    basis: FockBasis
    params: ModelParams | None = None
    hermitian_atol: float = 1e-12

    def __post_init__(self):
        self.matrix = _hermitian(self.matrix, self.hermitian_atol)
        if self.dimension != self.basis.dimension:
            raise NumericalContractError(
                f"matrix dimension {self.dimension} does not match basis dimension {self.basis.dimension}"
            )

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Index sets of the basis that the operator does not couple, each ascending.

        A flow operator with equal tunnelling conserves the quasi-momentum
        k = (n_beta + 2 n_gamma) mod 3, which gives its sectors k = 0, 1, 2;
        any other operator is one block, the whole basis.
        """
        if self.basis.interpretation != "flow" or self.params is None or not self.params.equal_j:
            return (np.arange(self.dimension),)
        labels = quasimomentum_labels(self.basis)
        return tuple(np.flatnonzero(labels == k) for k in range(3))


#: For each flow mode, the other two modes.
_OTHER_MODES = ((1, 2), (0, 2), (0, 1))


def _flow_interaction_coefficients(params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """(self, density-density, pair-exchange) coefficients of each flow mode.

    Entry m of each triple multiplies a term built on flow mode m: m^+2 m^2,
    the density product of the other two modes, and m^2 lowered into the
    other two (+ h.c.).  With equal bonds the interaction is

        (1/3) sum_m G_m [m^+2 m^2 + 4 n_m' n_m'' + 2 (m^2 m'^+ m''^+ + h.c.)],

    with G_m = U for the contact interaction.  The dipolar pair exchange adds
    2 U1 cos(2 pi K / 3) to the pairs of total quasi-momentum K, and the
    terms built on mode m hold the pairs with K = -m mod 3, so
    G = (U0 + 2 U1, U0 - U1, U0 - U1).
    """
    if params.dipolar:
        strengths = (params.u0 + 2.0 * params.u1, params.u0 - params.u1, params.u0 - params.u1)
    else:
        strengths = (params.u,) * 3
    return (
        tuple(g / 3.0 for g in strengths),
        tuple(4.0 * g / 3.0 for g in strengths),
        tuple(2.0 * g / 3.0 for g in strengths),
    )


def _printed_dipolar_coefficients(params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """Printed dipolar flow form, kept verbatim as a comparison target.

    The tests record its relation to the conjugated site operator: at U1 = 0
    it is half of it.
    """
    return (
        ((params.u0 + params.u1) / 6.0,) * 3,
        ((4.0 * params.u0 + params.u1) / 6.0,) * 3,
        ((2.0 * params.u0 - params.u1) / 6.0,) * 3,
    )


#: The directed bonds (p, q) of the ring, in the order of ModelParams.j.
_BONDS = ((0, 1), (1, 2), (2, 0))


def _add_exchange(h: np.ndarray, occ: np.ndarray, create, annihilate, coefficient: float) -> None:
    """h += coefficient * (term + h.c.) for a real, phase-independent ladder term."""
    targets, sources, amplitudes = _ladder(occ, create, annihilate)
    h[targets, sources] += coefficient * amplitudes
    h[sources, targets] += coefficient * amplitudes


def _hopping(occ: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets (rows, cols, values) of sum_pq t[p, q] a_p^+ a_q for a ``t`` with zero diagonal.

    No two triplets share an entry, and zero entries of ``t`` add none.
    """
    rows, cols, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0, complex)]
    for p, q in zip(*np.nonzero(t)):
        targets, sources, amplitudes = _ladder(occ, _UNIT[p], _UNIT[q])
        rows.append(targets)
        cols.append(sources)
        values.append(t[p, q] * amplitudes)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


@dataclass(frozen=True)
class PhaseSweep:
    """Ring Hamiltonian over a sweep of phase twists, built once.

    H(phi) = base + e^{i phi/3} A + h.c., where ``base`` is the real
    phase-independent part and A is the hopping, held as triplets:
    A[rows, cols] = values.  In the flow basis A has the diagonal
    -J sum_k n_k e^{-2 pi i k/3}, with J the mean bond, so that A + h.c. is
    the kinetic diagonal in cos(phi/3) and sin(phi/3).  With equal tunnelling
    that diagonal is all of A and H(phi) stays real.
    """

    params: ModelParams
    basis: FockBasis
    base: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def at(self, phi: float) -> HermitianOperator:
        """The Hamiltonian at phase twist ``phi``."""
        c, s = math.cos(phi / 3.0), math.sin(phi / 3.0)
        if np.array_equal(self.rows, self.cols):
            h = self.base.copy()
            h[self.rows, self.rows] += 2.0 * (c * self.values.real - s * self.values.imag)
        else:
            hop = complex(c, s) * self.values
            h = self.base.astype(complex)
            h[self.rows, self.cols] += hop
            h[self.cols, self.rows] += hop.conj()
        return HermitianOperator(h, self.basis, self.params.with_phi(phi))


def site_sweep(params: ModelParams) -> PhaseSweep:
    """Site Hamiltonian of ``params`` at any phase, with every term built once."""
    basis = enumerate_fock(params.n, "site")
    occ = basis.occupations
    base = np.zeros((basis.dimension, basis.dimension))
    onsite = params.u0 if params.dipolar else params.u
    base[np.diag_indices_from(base)] = onsite * (occ * (occ - 1)).sum(axis=1)
    if params.dipolar:
        for p, q in _BONDS:
            _add_exchange(base, occ, 2 * _UNIT[p], 2 * _UNIT[q], params.u1)
    bonds = np.zeros((3, 3), dtype=complex)
    for (p, q), j_pq in zip(_BONDS, params.j):
        bonds[p, q] = -j_pq
    rows, cols, values = _hopping(occ, bonds)
    return PhaseSweep(params=params, basis=basis, base=base, rows=rows, cols=cols, values=values)


def build_site_hamiltonian(params: ModelParams) -> HermitianOperator:
    """Dense site-basis Hamiltonian for the given parameters."""
    return site_sweep(params).at(params.phi)


def _flow_sweep(params: ModelParams, coefficients: tuple[tuple[float, ...], ...]) -> PhaseSweep:
    basis = enumerate_fock(params.n, "flow")
    occ = basis.occupations
    base = np.zeros((basis.dimension, basis.dimension))
    diagonal = np.zeros(basis.dimension)
    c_self, c_dens, c_exch = coefficients
    # Each exchange term annihilates two quanta of one mode and creates one in
    # each of the other two; total quasi-momentum is conserved mod 3.
    for m, (o1, o2) in enumerate(_OTHER_MODES):
        diagonal += c_self[m] * occ[:, m] * (occ[:, m] - 1) + c_dens[m] * occ[:, o1] * occ[:, o2]
        _add_exchange(base, occ, _UNIT[o1] + _UNIT[o2], 2 * _UNIT[m], c_exch[m])
    base[np.diag_indices_from(base)] = diagonal
    # The bonds in the flow modes, t_kk' = -e^{-2 pi i k'/3} Jhat_{k-k'} / 3 with
    # Jhat_m = sum_j J_j e^{2 pi i j m/3}.  The diagonal (Jhat_0 / 3 is the mean
    # bond) is written below with exact integer combinations, and Jhat_1 so
    # that equal bonds give exactly J1 there and exactly 0 off the diagonal.
    j1, j2, j3 = params.j
    mean = j1 + ((j2 - j1) + (j3 - j1)) / 3.0
    jhat1 = complex(j1 - 0.5 * (j2 + j3), 0.5 * _SQRT3 * (j2 - j3))
    jhat = (0.0, jhat1, jhat1.conjugate())
    twiddles = np.exp(-2j * np.pi * np.arange(3) / 3)
    flow_bonds = np.array([[-twiddles[q] * jhat[(p - q) % 3] / 3 for q in range(3)] for p in range(3)])
    rows, cols, values = _hopping(occ, flow_bonds)
    kinetic_cos = -mean * (2 * occ[:, 0] - occ[:, 1] - occ[:, 2])
    kinetic_sin = -_SQRT3 * mean * (occ[:, 1] - occ[:, 2])
    states = np.arange(basis.dimension)
    return PhaseSweep(
        params=params,
        basis=basis,
        base=base,
        rows=np.concatenate([states, rows]),
        cols=np.concatenate([states, cols]),
        values=np.concatenate([0.5 * (kinetic_cos - 1j * kinetic_sin), values]),
    )


def flow_sweep(params: ModelParams) -> PhaseSweep:
    """Flow Hamiltonian of ``params`` at any phase, with the interaction built once.

    Contact and dipolar interactions are both exact, for any bonds:
    ``sweep.at(phi)`` is the site Hamiltonian conjugated into the flow basis.
    With equal tunnelling it is real and conserves quasi-momentum; unequal
    bonds add hopping between the flow modes and make it complex.
    """
    return _flow_sweep(params, _flow_interaction_coefficients(params))


def build_flow_hamiltonian(params: ModelParams) -> HermitianOperator:
    """Dense flow-basis Hamiltonian from the analytic flow-form expressions.

    The dipolar interaction uses the printed flow coefficients, a comparison
    target only (``flow_sweep`` holds the exact dipolar form).  Requires
    equal tunnelling on all bonds, where the kinetic part is diagonal in the
    flow basis; ``flow_sweep`` takes any bonds.
    """
    if not params.equal_j:
        raise UnsupportedConfigurationError(
            "analytic flow Hamiltonian requires equal tunnelling; use flow_sweep for unequal bonds"
        )
    coefficients = (
        _printed_dipolar_coefficients(params) if params.dipolar else _flow_interaction_coefficients(params)
    )
    return _flow_sweep(params, coefficients).at(params.phi)


def flow_hamiltonian_by_conjugation(params: ModelParams) -> HermitianOperator:
    """Flow-basis Hamiltonian by unitary conjugation of the site Hamiltonian.

    Valid for any tunnelling pattern; the dense reference that ``flow_sweep``
    is tested against.
    """
    site = build_site_hamiltonian(params)
    w = mode_transform_matrix(params.n)
    flow_matrix = w.conj().T @ site.matrix @ w
    basis = enumerate_fock(params.n, "flow")
    return HermitianOperator(flow_matrix, basis, params, hermitian_atol=1e-10)
