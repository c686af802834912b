"""Truncated composite Hilbert space: atom ⊗ atom ⊗ photon ⊗ phonon.

Basis ordering is fixed once and for all: phonon index fastest, then
photon, then atom 2, then atom 1.  This keeps the optomechanical coupling
block diagonal in the atomic sector and makes operator construction
reproducible bit for bit.

An optional excitation cap restricts the space to states with at most one
optical excitation (atom1 + atom2 + photon <= 1), which is exact for the
single-photon problem: the Hamiltonian conserves the optical excitation
number and every dissipation channel only lowers or preserves it.
Operators are dense d x d arrays: every consumer multiplies them densely.

The atoms are identical, so exchanging them is a symmetry of the model.
A correlation run works in the exchange basis instead (to_exchange): the
state at the index of |eg,n,m> becomes the bright combination
(|eg,n,m> + |ge,n,m>)/sqrt(2), that at |ge,n,m> the dark one
(|eg,n,m> - |ge,n,m>)/sqrt(2), and every other state stays (Dicke, Phys.
Rev. 93, 99, 1954).  BasisIndex labels, ladder_operators and every other
function here keep the product basis.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

GROUND, EXCITED = 0, 1


@dataclass(frozen=True)
class BasisIndex:
    """One product basis state |atom1, atom2, n photons, m phonons>."""

    atom1: int
    atom2: int
    photon: int
    phonon: int

    @property
    def optical_excitations(self) -> int:
        return self.atom1 + self.atom2 + self.photon

    def label(self) -> str:
        a = "ge"
        return f"|{a[self.atom1]}{a[self.atom2]},{self.photon},{self.phonon}>"


class HilbertSpace:
    """Truncated product space with bijective flat-index maps.

    Attributes
    ----------
    N_c, N_m : photon / phonon cutoffs (inclusive)
    excitation_cap : None for the full product space, or 1 for the
        single-optical-excitation sector
    dim : number of retained basis states
    """

    def __init__(self, N_c: int, N_m: int, excitation_cap: int | None = None):
        if N_c < 1:
            raise ConfigurationError(f"photon cutoff N_c must be >= 1, got {N_c}")
        if N_m < 0:
            raise ConfigurationError(f"phonon cutoff N_m must be >= 0, got {N_m}")
        if excitation_cap is not None and excitation_cap != 1:
            raise ConfigurationError(
                f"excitation_cap must be None or 1, got {excitation_cap}"
            )
        self.N_c = N_c
        self.N_m = N_m
        self.excitation_cap = excitation_cap

        states = []
        for a1 in (GROUND, EXCITED):
            for a2 in (GROUND, EXCITED):
                for n in range(N_c + 1):
                    if excitation_cap is not None and a1 + a2 + n > excitation_cap:
                        continue
                    for m in range(N_m + 1):
                        states.append(BasisIndex(a1, a2, n, m))
        self.basis: tuple[BasisIndex, ...] = tuple(states)
        self._index = {s: i for i, s in enumerate(self.basis)}
        self.dim = len(self.basis)

    def index(self, state: BasisIndex) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ConfigurationError(f"state {state.label()} outside the space") from None

    def state(self, i: int) -> BasisIndex:
        return self.basis[i]

    def contains(self, state: BasisIndex) -> bool:
        return state in self._index

    def ket(self, a1: int, a2: int, n: int, m: int) -> np.ndarray:
        """Unit column vector for a product basis state."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(BasisIndex(a1, a2, n, m))] = 1.0
        return v

    @cached_property
    def ladder(self) -> dict[str, np.ndarray]:
        """a, b, sigma1, sigma2 (see ladder_operators), built once per space.

        Each lowers one quantum number of every basis state that has one to
        lower, looked up in a table of the retained states, so targets
        outside a capped space are dropped: the operator is the projection
        onto the retained sector.
        """
        q = np.array([(s.atom1, s.atom2, s.photon, s.phonon) for s in self.basis]).T
        pos = np.full((2, 2, self.N_c + 1, self.N_m + 1), -1)
        pos[tuple(q)] = np.arange(self.dim)
        ops = {}
        for name, axis in (("a", 2), ("b", 3), ("sigma1", 0), ("sigma2", 1)):
            j = np.flatnonzero(q[axis] > 0)
            target = q[:, j]
            target[axis] -= 1
            i = pos[tuple(target)]
            j, i = j[i >= 0], i[i >= 0]
            ops[name] = op = np.zeros((self.dim, self.dim), dtype=complex)
            op[i, j] = np.sqrt(q[axis, j])
        return ops

    @cached_property
    def exchange_pairs(self) -> tuple[slice, slice]:
        """(eg, ge): the states |eg,n,m> and their exchange partners |ge,n,m>, in the same order.

        The basis runs atom 1, atom 2, photon, phonon, and a cap keeps or
        drops both states of a pair (it counts a1 + a2), so each is one run.
        """
        k = sum(1 for s in self.basis if (s.atom1, s.atom2) == (EXCITED, GROUND))
        eg, ge = (self._index[BasisIndex(a1, a2, 0, 0)] for a1, a2 in ((EXCITED, GROUND), (GROUND, EXCITED)))
        return slice(eg, eg + k), slice(ge, ge + k)

    @cached_property
    def exchange_ladder(self) -> dict[str, np.ndarray]:
        """a, b, sigma1 and sigma2 in the exchange basis (to_exchange): a and b do not change."""
        return {name: to_exchange(self, op) if name.startswith("sigma") else op
                for name, op in self.ladder.items()}


def to_exchange(space: HilbertSpace, X: np.ndarray) -> np.ndarray:
    """A copy of X (a vector or a d x d matrix) in the atoms' exchange basis.

    Along every axis each pair (x_i, x_j) of space.exchange_pairs becomes
    (c (x_i + x_j), c (x_i - x_j)), c = sqrt(1/2): X -> R X R with the
    real orthogonal R = R^T.  Pairwise sums and differences, not a dense
    product, so that the entries of an exchange-symmetric X that pair bright
    with dark, differences of bitwise-equal numbers, are exact zeros, which
    the sparsity-based sectors of a correlation run rely on.
    """
    eg, ge = space.exchange_pairs
    c = np.sqrt(0.5)
    out = np.array(X, dtype=complex)
    for view in (out, out.T)[: out.ndim]:  # rows, then columns
        x, y = view[eg].copy(), view[ge]
        view[eg] = c * (x + y)
        view[ge] = c * (x - y)
    return out


def build_space(N_c: int, N_m: int, excitation_cap: int | None = None) -> HilbertSpace:
    """Build the truncated space; see HilbertSpace for the index convention."""
    return HilbertSpace(N_c, N_m, excitation_cap)


def ladder_operators(space: HilbertSpace) -> dict[str, np.ndarray]:
    """Photon/phonon annihilation and atomic lowering operators.

    Returns {'a', 'b', 'sigma1', 'sigma2'} with the standard matrix
    elements: a|n> = sqrt(n)|n-1>, b|m> = sqrt(m)|m-1>, sigma_i maps the
    excited state of atom i to its ground state.  Copies of space.ladder.
    """
    return {name: op.copy() for name, op in space.ladder.items()}


def optical_excitation_operator(space: HilbertSpace) -> np.ndarray:
    """Diagonal operator counting optical excitations sigma1'sigma1 + sigma2'sigma2 + a'a."""
    return np.diag(np.array([s.optical_excitations for s in space.basis], dtype=complex))


def expectation(op, rho: np.ndarray) -> complex:
    """Tr(op @ rho) for an operator and a density matrix, both d x d."""
    if op.shape[1] != rho.shape[0] or rho.shape[0] != rho.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: operator {op.shape}, state {rho.shape}"
        )
    return complex(np.trace(op @ rho))
