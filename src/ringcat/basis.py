"""Fock bases for three bosonic modes, in the site and flow interpretations.

The three ring sites carry bosonic operators (a, b, c).  The flow (quasi-
momentum) modes are the discrete Fourier combinations

    alpha = (a + b + c) / sqrt(3)                     zero flow
    beta  = (a + b e^{+i 2pi/3} + c e^{+i 4pi/3}) / sqrt(3)   one clockwise quantum
    gamma = (a + b e^{-i 2pi/3} + c e^{-i 4pi/3}) / sqrt(3)   one anticlockwise quantum

Both interpretations share the same enumeration of occupation triples, so a
single index convention serves site and flow operators alike.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidModeError, InvalidOccupationError

Occupation = tuple[int, int, int]

#: Creation-operator coefficients of the flow modes on the sites:
#: mode_k^dagger = sum_j MODE_PHASES[j, k] a_j^dagger / sqrt(3).
#: The annihilation operators carry e^{+i 2pi j k / 3}; creation conjugates.
MODE_PHASES = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0) / math.sqrt(3.0)

#: Row m is the occupation triple of one quantum in mode m.
_UNIT = np.eye(3, dtype=np.intp)


def _as_occupation(occupation: Sequence[int]) -> Occupation:
    occ = tuple(int(n) for n in occupation)
    if len(occ) != 3:
        raise InvalidOccupationError(f"expected 3 occupation numbers, got {occupation!r}")
    if any(n != m for n, m in zip(occ, occupation)) or any(n < 0 for n in occ):
        raise InvalidOccupationError(f"occupation numbers must be non-negative integers: {occupation!r}")
    return occ


@dataclass(frozen=True)
class FockBasis:
    """Ordered basis of 3-mode occupation triples at fixed particle number.

    States are ordered lexicographically descending, so ``(N, 0, 0)`` is index 0 and ``(0, 0, N)`` is last.
    ``interpretation`` records whether the triple means site occupations (n_a, n_b, n_c) or flow occupations
    (n_alpha, n_beta, n_gamma).
    """

    n: int
    interpretation: str
    states: tuple[Occupation, ...]

    @property
    def dimension(self) -> int:
        return len(self.states)

    @property
    def occupations(self) -> np.ndarray:
        """The states as a (dimension, 3) integer array, in basis order."""
        return np.array(self.states, dtype=np.intp).reshape(-1, 3)

    def index(self, occupation: Sequence[int]) -> int:
        occ = _as_occupation(occupation)
        if sum(occ) != self.n:
            raise InvalidOccupationError(f"occupation {occ} has {sum(occ)} particles, basis holds {self.n}")
        return int(_ranks(np.array(occ)))

    def __iter__(self) -> Iterable[Occupation]:
        return iter(self.states)


def _ranks(occupations: np.ndarray) -> np.ndarray:
    """Basis index of valid occupation rows (n1, n2, n3), without checks.

    In the descending order the states with n2 + n3 = t start at t(t+1)/2 and are ordered by increasing n3, so
    the rank does not depend on the particle number.
    """
    tail = occupations[..., 1] + occupations[..., 2]
    return tail * (tail + 1) // 2 + occupations[..., 2]


def _ladder(
    occupations: np.ndarray, create: Sequence[int], annihilate: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply prod_m (a_m^dagger)^create[m] prod_m a_m^annihilate[m] to every state.

    ``occupations`` holds one state per row.  Returns (targets, sources, amplitudes): the term maps row
    ``sources[i]`` to the state of rank ``targets[i]`` with amplitude ``amplitudes[i]``, the square root of the
    falling factorials; rows the term annihilates are left out.
    """
    lowered = occupations - np.asarray(annihilate)
    sources = np.flatnonzero(np.all(lowered >= 0, axis=1))
    lowered = lowered[sources]
    product = np.ones(len(sources), dtype=np.int64)
    # a^l |n> = sqrt(n!/(n-l)!) |n-l> and (a^+)^r |k> = sqrt((k+r)!/k!) |k+r>:
    # both factorial ratios count up from the lowered occupation k = n - l.
    for m in range(3):
        for step in (*range(annihilate[m]), *range(create[m])):
            product *= lowered[:, m] + 1 + step
    raised = lowered + np.asarray(create)
    return _ranks(raised), sources, np.sqrt(product.astype(float))


def enumerate_fock(n: int, interpretation: str = "site") -> FockBasis:
    """Enumerate all occupation triples with ``n`` particles.

    The dimension is (n+1)(n+2)/2.  Ordering is lexicographic descending on (n1, n2, n3).
    """
    if n < 0:
        raise InvalidOccupationError(f"particle number must be non-negative, got {n}")
    if interpretation not in ("site", "flow"):
        raise InvalidOccupationError(f"interpretation must be 'site' or 'flow', got {interpretation!r}")
    states = tuple((n1, n2, n - n1 - n2) for n1 in range(n, -1, -1) for n2 in range(n - n1, -1, -1))
    return FockBasis(n=n, interpretation=interpretation, states=states)


def quasimomentum_sector(occupation: Sequence[int]) -> int:
    """Total quasi-momentum label k = (n_beta + 2 n_gamma) mod 3 of a flow triple.

    With equal tunnelling the Hamiltonian conserves this label, so it blocks
    the flow basis into three decoupled sectors.
    """
    occ = _as_occupation(occupation)
    return (occ[1] + 2 * occ[2]) % 3


def quasimomentum_labels(basis: FockBasis) -> np.ndarray:
    """``quasimomentum_sector`` of every state of ``basis``, in basis order."""
    occ = basis.occupations
    return (occ[:, 1] + 2 * occ[:, 2]) % 3


def embed_single_flow(n: int, k: int) -> np.ndarray:
    """Site-basis amplitudes of the state with all ``n`` atoms in flow mode ``k``.

    The coefficient on site occupation (n_a, n_b, n_c) is

        sqrt(n! / (n_a! n_b! n_c!)) * 3^(-n/2) * exp(-i 2pi k (n_b + 2 n_c) / 3),

    i.e. the multinomial expansion of (mode_k^dagger)^n |vac> / sqrt(n!).
    """
    if n < 1:
        raise InvalidOccupationError(f"need at least one particle, got n={n}")
    if k not in (0, 1, 2):
        raise InvalidModeError(f"flow mode index must be 0, 1 or 2, got {k}")
    occ = enumerate_fock(n, "site").occupations
    multinomial = np.array([math.comb(n, na) * math.comb(n - na, nb) for na, nb, _ in occ.tolist()], dtype=float)
    return np.sqrt(multinomial / 3.0**n) * np.exp(-2j * np.pi * k * (occ[:, 1] + 2 * occ[:, 2]) / 3.0)


def mode_transform_matrix(n: int) -> np.ndarray:
    """Unitary W mapping flow-basis amplitudes to site-basis amplitudes.

    Column f of W is the site-basis expansion of the flow Fock state at flow-basis index f.  The columns are grown
    one particle at a time: a state with m + 1 particles is mode_k^dagger / sqrt(n_k) applied to the m-particle
    state it contains, for one occupied flow mode k, and mode_k^dagger = sum_j MODE_PHASES[j, k] a_j^dagger.  For
    n = 1 this is the 3x3 discrete-Fourier-type matrix of the mode definitions.
    """
    if n < 0:
        raise InvalidOccupationError(f"particle number must be non-negative, got {n}")
    w = np.ones((1, 1), dtype=complex)
    for m in range(n):
        site = enumerate_fock(m).occupations
        flow = enumerate_fock(m + 1, "flow").occupations
        mode = np.argmax(flow > 0, axis=1)
        parents = w[:, _ranks(flow - _UNIT[mode])] / np.sqrt(flow[np.arange(len(flow)), mode])
        w = np.zeros((len(flow), len(flow)), dtype=complex)
        for j in range(3):
            targets, sources, amplitudes = _ladder(site, create=_UNIT[j], annihilate=(0, 0, 0))
            w[targets] += amplitudes[:, None] * parents[sources] * MODE_PHASES[j, mode]
    return w
