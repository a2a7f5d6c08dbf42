"""Ring Hamiltonians for N bosons on a phase-twisted three-site ring.

Site basis (operators a, b, c on sites 0, 1, 2):

    H = -[J1 e^{i phi/3} a^b + J2 e^{i phi/3} b^c + J3 e^{i phi/3} c^a + h.c.]
        + interactions

with contact interactions U (a^2 a^2 + b^2 b^2 + c^2 c^2) (number convention
n(n-1), no 1/2), or dipolar interactions
U0 sum_j n_j(n_j-1) + U1 [(a^+)^2 b^2 + (b^+)^2 c^2 + (c^+)^2 a^2 + h.c.].
The pair exchange carries no twist phase, so with U1 != 0 the spectrum is not
2pi-periodic in phi (N = 6, U0 = 0.1, U1 = 0.05, equal bonds: E0 = -10.0949 at
phi = 0 and -11.5047 at 2pi): a 2pi flux is a gauge transformation only without it.

Flow basis: with equal tunnelling J the kinetic part is diagonal,

    -J (2 n_alpha - n_beta - n_gamma) cos(phi/3)
    - sqrt(3) J (n_beta - n_gamma) sin(phi/3),

and the contact interaction becomes

    (U/3) [ sum_k m_k^2 m_k^2 + 4 (n_a n_b + n_a n_g + n_b n_g)
            + 2 (alpha^2 beta^+ gamma^+ + beta^2 alpha^+ gamma^+
                 + gamma^2 alpha^+ beta^+ + h.c.) ].

Unequal bonds put their mean on that diagonal and their asymmetry into
hopping between the flow modes, which couples the quasi-momentum sectors.

Both bases are assembled from ladder terms applied to all states at once
(``basis._ladder``), with one hopping routine fed the bonds in either basis,
and returned as a ``PhaseSweep`` H(phi) = H_0 + e^{i phi/3} A + h.c.
"""

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .basis import _UNIT, FockBasis, _ladder, enumerate_fock, mode_transform_matrix, quasimomentum_labels
from .errors import NumericalContractError, UnsupportedConfigurationError

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the ring model.

    ``j`` holds the three bond tunnelling strengths (a-b, b-c, c-a); a scalar is broadcast to all three bonds.
    ``u`` is the contact interaction, used when ``dipolar`` is False; ``u0``/``u1`` are the on-site and
    pair-exchange strengths of the dipolar variant, used when ``dipolar`` is True.  ``phi`` is the applied phase
    twist threading the ring.
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
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise UnsupportedConfigurationError(f"particle number must be an integer >= 1, got {self.n!r}")
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
        return replace(self, phi=float(phi))


def _hermitian(matrix, atol: float = 1e-12) -> np.ndarray:
    """(H + H^dagger) / 2 of a square, finite ``matrix`` with max |H - H^dagger| <= ``atol``.

    An exactly Hermitian ``matrix`` of float or complex dtype is returned as it is, not copied.
    """
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalContractError(f"operator matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0].tolist()
        raise NumericalContractError(f"operator matrix has the non-finite entry {m[i, j]} at [{i}, {j}]")
    adjoint = m.conj().T
    if np.array_equal(m, adjoint):
        return m
    deviation = np.max(np.abs(m - adjoint))
    if deviation > atol:
        raise NumericalContractError(f"operator is not hermitian: max |H - H^dagger| = {deviation:.3e}")
    return 0.5 * (m + adjoint)


#: Most entries of any dense matrix an operator holds or assembles (a sector block, a site or
#: unequal-bond operator, ``HermitianOperator.matrix``): 512 MiB real, 1 GiB complex.
MAX_DENSE_ENTRIES = 1 << 26


def _dense_zeros(side: int, dtype=float) -> np.ndarray:
    """A zero ``side`` x ``side`` matrix; above ``MAX_DENSE_ENTRIES`` a configuration error, before allocating."""
    if side * side > MAX_DENSE_ENTRIES:
        raise UnsupportedConfigurationError(f"a dense {side} x {side} matrix exceeds {MAX_DENSE_ENTRIES} entries")
    return np.zeros((side, side), dtype)


def _sectors(basis: FockBasis, params: ModelParams | None) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(labels, sectors): each state's sector, its quasi-momentum in a flow basis with
    equal tunnelling and else 0, and the states of each sector, ascending."""
    equal_flow = basis.interpretation == "flow" and params is not None and params.equal_j
    labels = quasimomentum_labels(basis) if equal_flow else np.zeros(basis.dimension, np.intp)
    return labels, tuple(np.flatnonzero(labels == k) for k in range(3 if equal_flow else 1))


class HermitianOperator:
    """A Hermitian operator, held as ``blocks[b]`` on ``sectors[b]``.

    The sectors, each ascending, are the quasi-momentum sectors k = 0, 1, 2 of a flow operator with equal
    tunnelling and else the whole basis.  ``matrix`` is the whole dense matrix, split into blocks after checking
    that it does not couple the sectors.  Without a ``basis`` it is one block on ``np.arange(n)`` (an explicit
    few-state model), and ``basis`` and ``params`` stay None.  Each block is checked finite and Hermitian to
    ``hermitian_atol`` and symmetrised exactly (``_proven`` takes blocks that a ``PhaseSweep`` has proven so); one
    already exactly Hermitian is kept, not copied, so it must not be changed afterwards, and a real one stays real.
    ``matrix`` assembles the dense matrix on demand.
    """

    def __init__(self, matrix, basis: FockBasis | None = None, params: ModelParams | None = None,
                 hermitian_atol: float = 1e-12):
        self.basis, self.params, blocks, sectors = basis, params, [matrix], None
        if basis is not None:
            (labels, sectors), matrix = _sectors(basis, params), np.asarray(matrix)
            if matrix.shape != (basis.dimension,) * 2:
                raise NumericalContractError(f"matrix of shape {matrix.shape} does not fit {basis.dimension} states")
            leak = np.max(np.abs(matrix[labels[:, None] != labels]), initial=0.0)
            if not leak <= hermitian_atol:
                raise NumericalContractError(f"operator couples its sectors: max |H_kk'| = {leak:.3e}")
            blocks = [matrix[np.ix_(m, m)] for m in sectors] if len(sectors) > 1 else [matrix]
        self.blocks = tuple(_hermitian(block, hermitian_atol) for block in blocks)
        self.sectors = (np.arange(len(self.blocks[0])),) if sectors is None else sectors
        self.dimension = sum(map(len, self.sectors))

    @classmethod
    def _proven(cls, blocks, basis: FockBasis, params: ModelParams, sectors: tuple) -> "HermitianOperator":
        """``blocks`` on ``sectors``, proven finite and exactly Hermitian by the caller: not checked, not copied."""
        operator = cls.__new__(cls)
        operator.__dict__.update(basis=basis, params=params, blocks=tuple(blocks), sectors=sectors,
                                 dimension=sum(map(len, sectors)))
        return operator

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix; a one-block operator returns its block, any other assembles it."""
        if len(self.blocks) == 1:
            return self.blocks[0]
        h = _dense_zeros(self.dimension, np.result_type(*self.blocks))
        for members, block in zip(self.sectors, self.blocks):
            h[np.ix_(members, members)] = block
        return h

    @functools.cached_property
    def scale(self) -> float:
        """max |H_ij| over the blocks."""
        return max(float(np.max(np.abs(block), initial=0.0)) for block in self.blocks)

    @functools.cached_property
    def frobenius(self) -> float:
        """|H|_F, taken in units of ``scale`` so that it overflows only where it is out of range."""
        unit = self.scale or 1.0
        return unit * math.hypot(*(np.linalg.norm(block / unit) for block in self.blocks))


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
    u0, u1 = params.u0, params.u1
    strengths = (u0 + 2.0 * u1, u0 - u1, u0 - u1) if params.dipolar else (params.u,) * 3
    return tuple(tuple(factor * g / 3.0 for g in strengths) for factor in (1.0, 4.0, 2.0))


def _printed_dipolar_coefficients(params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """Printed dipolar flow form, kept verbatim as a comparison target.

    The tests record its relation to the conjugated site operator: at U1 = 0 it is half of it.
    """
    u0, u1 = params.u0, params.u1
    return tuple((c / 6.0,) * 3 for c in (u0 + u1, 4.0 * u0 + u1, 2.0 * u0 - u1))


#: The directed bonds (p, q) of the ring, in the order of ModelParams.j.
_BONDS = ((0, 1), (1, 2), (2, 0))


def _add_exchange(base, sectors, occ: np.ndarray, create, annihilate, coefficient: float) -> None:
    """base += coefficient * (term + h.c.) for a real, phase-independent ladder term
    that joins no two sectors, where block ``base[b]`` holds ``sectors[b]``."""
    targets, sources, amplitudes = _ladder(occ, create, annihilate)
    for members, h in zip(sectors, base):
        inside = np.isin(sources, members)
        rows, cols = np.searchsorted(members, targets[inside]), np.searchsorted(members, sources[inside])
        h[rows, cols] += coefficient * amplitudes[inside]
        h[cols, rows] += coefficient * amplitudes[inside]


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

    H(phi) = H_0 + e^{i phi/3} A + h.c., with the real H_0 held as ``base``, one dense block per sector of
    ``sectors`` (see ``HermitianOperator``), and the hopping A as triplets A[rows, cols] = values.  In the flow
    basis A has the diagonal -J sum_k n_k e^{-2 pi i k/3} (``_kinetic``), J the mean bond.  With equal tunnelling
    that is all of A: H(phi) is real and conserves quasi-momentum.  Otherwise there is one sector, the whole
    basis, and the rest of A enters as cos(phi/3) (A + A^dagger) + sin(phi/3) i (A - A^dagger).

    It is checked once, when built: H_0 by ``_hermitian``, and that no off-diagonal triplet lands on an
    off-diagonal entry of H_0 (hopping moves occupations by (+1, -1), H_0's exchange by two quanta).  Then
    [r, c] and [c, r] of H(phi) receive exactly conjugate sums and its diagonal v + conj(v), and no entry exceeds
    max |H_0| + 2 max |A| beyond rounding, checked finite four times over: H(phi) is finite and exactly Hermitian.
    """

    params: ModelParams
    basis: FockBasis
    sectors: tuple[np.ndarray, ...]
    base: tuple[np.ndarray, ...]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(map(_hermitian, self.base)))
        off = self.rows != self.cols
        if np.any(self.base[0][self.rows[off], self.cols[off]]):
            raise NumericalContractError("the hopping lands on an off-diagonal entry of H_0")
        bound = 8.0 * sum(float(np.max(np.abs(m), initial=0.0)) for m in (*self.base, self.values))
        if not math.isfinite(bound):
            raise NumericalContractError(f"the hopping is not finite, or overflows: 8 (|H_0| + |A|) = {bound}")

    def _kinetic(self, phi: float) -> np.ndarray:
        """The diagonal of e^{i phi/3} A + h.c. over the whole basis, from the diagonal triplets of A."""
        diagonal, on = np.zeros(self.basis.dimension), self.rows == self.cols
        diagonal[self.rows[on]] = 2.0 * (math.cos(phi / 3.0) * self.values[on].real - math.sin(phi / 3.0) * self.values[on].imag)
        return diagonal

    def at(self, phi: float) -> HermitianOperator:
        """The Hamiltonian at phase twist ``phi``."""
        return next(self.over((phi,)))

    def over(self, phis: Iterable[float]) -> Iterator[HermitianOperator]:
        """The Hamiltonian at each of ``phis`` in turn, assembled straight from H_0 into one set of blocks: the next
        operator overwrites the one before."""
        diagonal_only = np.array_equal(self.rows, self.cols)
        blocks = tuple(np.empty(h0.shape, h0.dtype if diagonal_only else complex) for h0 in self.base)
        for phi in phis:
            for h, h0 in zip(blocks, self.base):
                h[...] = h0
            if diagonal_only:
                diagonal = self._kinetic(phi)
                for members, h in zip(self.sectors, blocks):
                    h.flat[:: len(h) + 1] += diagonal[members]
            else:
                hop = complex(math.cos(phi / 3.0), math.sin(phi / 3.0)) * self.values
                blocks[0][self.rows, self.cols] += hop
                blocks[0][self.cols, self.rows] += hop.conj()
            yield HermitianOperator._proven(blocks, self.basis, self.params.with_phi(phi), self.sectors)


def site_sweep(params: ModelParams) -> PhaseSweep:
    """Site Hamiltonian of ``params`` at any phase, with every term built once."""
    basis = enumerate_fock(params.n, "site")
    occ = basis.occupations
    sectors, base = (np.arange(basis.dimension),), (_dense_zeros(basis.dimension),)
    onsite = params.u0 if params.dipolar else params.u
    base[0][np.diag_indices_from(base[0])] = onsite * (occ * (occ - 1)).sum(axis=1)
    if params.dipolar:
        for p, q in _BONDS:
            _add_exchange(base, sectors, occ, 2 * _UNIT[p], 2 * _UNIT[q], params.u1)
    bonds = np.zeros((3, 3), dtype=complex)
    bonds[tuple(np.transpose(_BONDS))] = np.negative(params.j)
    return PhaseSweep(params, basis, sectors, base, *_hopping(occ, bonds))


def build_site_hamiltonian(params: ModelParams) -> HermitianOperator:
    """Dense site-basis Hamiltonian for the given parameters."""
    return site_sweep(params).at(params.phi)


def _flow_sweep(params: ModelParams, coefficients: tuple[tuple[float, ...], ...]) -> PhaseSweep:
    # The bonds in the flow modes, t_kk' = -e^{-2 pi i k'/3} Jhat_{k-k'} / 3 with
    # Jhat_m = sum_j J_j e^{2 pi i j m/3}.  The diagonal (Jhat_0 / 3 is the mean
    # bond) is written below with exact integer combinations, and Jhat_1 so
    # that equal bonds give exactly J1 there and exactly 0 off the diagonal.
    j1, j2, j3 = params.j
    mean = j1 + ((j2 - j1) + (j3 - j1)) / 3.0
    jhat1 = complex(j1 - 0.5 * (j2 + j3), 0.5 * _SQRT3 * (j2 - j3))
    # Every kinetic and hopping term below stays within 4 N (|mean| + |Jhat_1|),
    # and every interaction term within N^2 times its coefficient.
    if not math.isfinite(4.0 * params.n * (abs(mean) + abs(jhat1))):
        raise NumericalContractError(f"the bonds {params.j} overflow in the flow modes at N = {params.n}")
    if not math.isfinite(params.n**2 * max(abs(c) for row in coefficients for c in row)):
        raise NumericalContractError(f"the interaction terms overflow in the flow modes at N = {params.n}")
    basis = enumerate_fock(params.n, "flow")
    occ = basis.occupations
    _, sectors = _sectors(basis, params)
    base = tuple(_dense_zeros(len(members)) for members in sectors)
    diagonal = np.zeros(basis.dimension)
    c_self, c_dens, c_exch = coefficients
    # Each exchange term annihilates two quanta of one mode and creates one in
    # each of the other two; total quasi-momentum is conserved mod 3.
    for m, (o1, o2) in enumerate(_OTHER_MODES):
        diagonal += c_self[m] * occ[:, m] * (occ[:, m] - 1) + c_dens[m] * occ[:, o1] * occ[:, o2]
        _add_exchange(base, sectors, occ, _UNIT[o1] + _UNIT[o2], 2 * _UNIT[m], c_exch[m])
    for members, h in zip(sectors, base):
        h[np.diag_indices_from(h)] = diagonal[members]
    jhat = (0.0, jhat1, jhat1.conjugate())
    twiddles = np.exp(-2j * np.pi * np.arange(3) / 3)
    flow_bonds = np.array([[-twiddles[q] * jhat[(p - q) % 3] / 3 for q in range(3)] for p in range(3)])
    rows, cols, values = _hopping(occ, flow_bonds)
    kinetic_cos = -mean * (2 * occ[:, 0] - occ[:, 1] - occ[:, 2])
    kinetic_sin = -_SQRT3 * mean * (occ[:, 1] - occ[:, 2])
    states = np.arange(basis.dimension)
    values = np.concatenate([0.5 * (kinetic_cos - 1j * kinetic_sin), values])
    return PhaseSweep(params, basis, sectors, base, np.concatenate([states, rows]), np.concatenate([states, cols]), values)


def flow_sweep(params: ModelParams) -> PhaseSweep:
    """Flow Hamiltonian of ``params`` at any phase, with the interaction built once.

    Contact and dipolar interactions are both exact, for any bonds: ``sweep.at(phi)`` is the site Hamiltonian
    conjugated into the flow basis.  With equal tunnelling it is real and conserves quasi-momentum; unequal bonds
    add hopping between the flow modes and make it complex.
    """
    return _flow_sweep(params, _flow_interaction_coefficients(params))


def build_flow_hamiltonian(params: ModelParams) -> HermitianOperator:
    """Dense flow-basis Hamiltonian from the analytic flow-form expressions.

    The dipolar interaction uses the printed flow coefficients, a comparison target only (``flow_sweep`` holds
    the exact dipolar form).  Requires equal tunnelling on all bonds, where the kinetic part is diagonal in the
    flow basis; ``flow_sweep`` takes any bonds.
    """
    if not params.equal_j:
        raise UnsupportedConfigurationError("analytic flow Hamiltonian requires equal tunnelling; "
                                            "use flow_sweep for unequal bonds")
    coefficients = _printed_dipolar_coefficients(params) if params.dipolar else _flow_interaction_coefficients(params)
    return _flow_sweep(params, coefficients).at(params.phi)


def flow_hamiltonian_by_conjugation(params: ModelParams) -> HermitianOperator:
    """Flow-basis Hamiltonian by unitary conjugation of the site Hamiltonian.

    Valid for any tunnelling pattern; the dense reference that ``flow_sweep`` is tested against.
    """
    site = build_site_hamiltonian(params)
    w = mode_transform_matrix(params.n)
    flow_matrix = w.conj().T @ site.matrix @ w
    basis = enumerate_fock(params.n, "flow")
    return HermitianOperator(flow_matrix, basis, params, hermitian_atol=1e-10)
