"""Fock bases for three bosonic modes, in the site and flow interpretations.

The three ring sites carry bosonic operators (a, b, c).  The flow (quasi-
momentum) modes are the discrete Fourier combinations

    alpha = (a + b + c) / sqrt(3)                     zero flow
    beta  = (a + b e^{+i 2pi/3} + c e^{+i 4pi/3}) / sqrt(3)   one clockwise quantum
    gamma = (a + b e^{-i 2pi/3} + c e^{-i 4pi/3}) / sqrt(3)   one anticlockwise quantum

Both interpretations share the same enumeration of occupation triples, so a
single index convention serves site and flow operators alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidModeError, InvalidOccupationError

Occupation = tuple[int, int, int]

#: Creation-operator coefficients of the flow modes on the sites:
#: mode_k^dagger = sum_j MODE_PHASES[j, k] a_j^dagger / sqrt(3).
#: The annihilation operators carry e^{+i 2pi j k / 3}; creation conjugates.
MODE_PHASES = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0) / math.sqrt(3.0)


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

    States are ordered lexicographically descending, so ``(N, 0, 0)`` is
    index 0 and ``(0, 0, N)`` is last.  ``interpretation`` records whether
    the triple means site occupations (n_a, n_b, n_c) or flow occupations
    (n_alpha, n_beta, n_gamma).
    """

    n: int
    interpretation: str
    states: tuple[Occupation, ...]
    _index: dict[Occupation, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self._index:
            object.__setattr__(self, "_index", {occ: i for i, occ in enumerate(self.states)})

    @property
    def dimension(self) -> int:
        return len(self.states)

    def index(self, occupation: Sequence[int]) -> int:
        occ = _as_occupation(occupation)
        if sum(occ) != self.n:
            raise InvalidOccupationError(
                f"occupation {occ} has {sum(occ)} particles, basis holds {self.n}"
            )
        return self._index[occ]

    def __iter__(self) -> Iterable[Occupation]:
        return iter(self.states)


def enumerate_fock(n: int, interpretation: str = "site") -> FockBasis:
    """Enumerate all occupation triples with ``n`` particles.

    The dimension is (n+1)(n+2)/2.  Ordering is lexicographic descending on
    (n1, n2, n3).
    """
    if n < 0:
        raise InvalidOccupationError(f"particle number must be non-negative, got {n}")
    if interpretation not in ("site", "flow"):
        raise InvalidOccupationError(f"interpretation must be 'site' or 'flow', got {interpretation!r}")
    states = tuple(
        (n1, n2, n - n1 - n2)
        for n1 in range(n, -1, -1)
        for n2 in range(n - n1, -1, -1)
    )
    return FockBasis(n=n, interpretation=interpretation, states=states)


def state_index(basis: FockBasis, occupation: Sequence[int]) -> int:
    """Index of ``occupation`` in ``basis`` (round-trips with ``basis.states``)."""
    return basis.index(occupation)


def quasimomentum_sector(occupation: Sequence[int]) -> int:
    """Total quasi-momentum label k = (n_beta + 2 n_gamma) mod 3 of a flow triple.

    With equal tunnelling the Hamiltonian conserves this label, so it blocks
    the flow basis into three decoupled sectors.
    """
    occ = _as_occupation(occupation)
    return (occ[1] + 2 * occ[2]) % 3


def quasimomentum_labels(basis: FockBasis) -> np.ndarray:
    """``quasimomentum_sector`` of every state of ``basis``, in basis order."""
    occ = np.array(basis.states, dtype=np.intp).reshape(-1, 3)
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
    basis = enumerate_fock(n, "site")
    vec = np.zeros(basis.dimension, dtype=complex)
    for i, (na, nb, nc) in enumerate(basis.states):
        multinomial = math.comb(n, na) * math.comb(n - na, nb)
        vec[i] = math.sqrt(multinomial / 3.0**n) * np.exp(-2j * np.pi * k * (nb + 2 * nc) / 3.0)
    return vec


def _creation_maps(n_max: int) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Index maps for a_j^dagger from the m-particle to the (m+1)-particle basis.

    maps[m][j] = (targets, factors): applying a_j^dagger to amplitude vec at
    particle number m gives new[targets] += factors * vec.
    """
    bases = [enumerate_fock(m) for m in range(n_max + 1)]
    maps = []
    for m in range(n_max):
        per_site = []
        for j in range(3):
            targets = np.empty(bases[m].dimension, dtype=np.intp)
            factors = np.empty(bases[m].dimension, dtype=float)
            for i, occ in enumerate(bases[m].states):
                raised = list(occ)
                raised[j] += 1
                targets[i] = bases[m + 1].index(raised)
                factors[i] = math.sqrt(occ[j] + 1.0)
            per_site.append((targets, factors))
        maps.append(per_site)
    return maps


def mode_transform_matrix(n: int) -> np.ndarray:
    """Unitary W mapping flow-basis amplitudes to site-basis amplitudes.

    Column f of W is the site-basis expansion of the flow Fock state at
    flow-basis index f, built by repeated application of the flow creation
    operators to the vacuum.  For n = 1 this is the 3x3 discrete-Fourier-type
    matrix of the mode definitions.
    """
    if n < 0:
        raise InvalidOccupationError(f"particle number must be non-negative, got {n}")
    maps = _creation_maps(n)
    flow = enumerate_fock(n, "flow")
    dim = flow.dimension
    dims = [(m + 1) * (m + 2) // 2 for m in range(n + 1)]
    w = np.zeros((dim, dim), dtype=complex)

    def raise_mode(vec: np.ndarray, m: int, k: int) -> np.ndarray:
        out = np.zeros(dims[m + 1], dtype=complex)
        for j in range(3):
            targets, factors = maps[m][j]
            out[targets] += MODE_PHASES[j, k] * factors * vec
        return out

    # Grow prefix states (n_alpha, n_beta, *) incrementally; normalisation by
    # sqrt(n_alpha! n_beta! n_gamma!) is applied when each column is stored.
    vac = np.ones(1, dtype=complex)
    for n_alpha in range(n + 1):
        if n_alpha > 0:
            vac_a = raise_mode(vac_a, n_alpha - 1, 0)
        else:
            vac_a = vac
        vec_ab = vac_a
        for n_beta in range(n - n_alpha + 1):
            if n_beta > 0:
                vec_ab = raise_mode(vec_ab, n_alpha + n_beta - 1, 1)
            vec_abc = vec_ab
            n_gamma = n - n_alpha - n_beta
            for step in range(n_gamma):
                vec_abc = raise_mode(vec_abc, n_alpha + n_beta + step, 2)
            norm = math.sqrt(
                math.factorial(n_alpha) * math.factorial(n_beta) * math.factorial(n_gamma)
            )
            w[:, flow.index((n_alpha, n_beta, n_gamma))] = vec_abc / norm
    return w
