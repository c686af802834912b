"""Physical model: Hamiltonian, dissipation channels, and initial states.

All rates and couplings are expressed in units of the mechanical frequency
(omega_M = 1); times are in 1/omega_M.

The Hamiltonian, in a frame rotating at the cavity frequency and under the
rotating-wave approximation, is

    H = -delta_ac (s1's1 + s2's2) + g_a (a's1 + a s1' + a's2 + a s2')
        + J (s1's2 + s2's1) + b'b - g_M a'a (b' + b)

with s_i the atomic lowering operators.  delta_ac = omega_eg - omega_c.

Dissipation is non-local: besides the two atomic channels (rate gamma_a),
their cooperative cross channels (gamma_a_coop) and the cavity channel
(kappa), strong optomechanical coupling displaces the mechanical jump
operators to b - beta a'a / b' - beta a'a (beta = g_M) and adds a photon
number dephasing channel whose strength depends on the thermal occupancy.
Every channel is one Channel record (op1, op2, rate, label): a local
channel has op2 is op1, a cross channel pairs the two atoms' operators.
It stores the numerator rate r of its r/2 prefactor, and the generator
applies the form r/2 (2 O1 rho O2' - O1'O2 rho - rho O1'O2) (' the
adjoint) verbatim, so no factor-of-two drift can creep in.

Generator is the right-hand side of the master equation,

    L(rho) = -i [H, rho] + sum_c (r_c/2) (2 O1 rho O2' - O1'O2 rho - rho O1'O2),

with the products (r/2, O1, O2', O1'O2) derived once from the records
with a nonzero rate, all dense d x d arrays.  apply and apply_adjoint act
on d x d matrices; superoperator() assembles the SparseMatrix (CSR in
numpy arrays) of L on row-major vectorized matrices from the factors.

Every function here works in the basis of the ladder operators it is
given, the product basis of hilbert.HilbertSpace by default.  A
correlation run (spectrum.correlation_grid) builds H and the channels from
space.exchange_ladder and rotates rho0 (hilbert.to_exchange), so it works
in the atoms' exchange (bright/dark) basis.  Both atoms share g_a, gamma_a
and delta_ac, and the cross channels pair them symmetrically, so the
exchange is a symmetry of L.  Only sigma1, sigma2 and rho0 are rotated, and
each channel sums with its image under the exchange (atom 1 with atom 2
decay, 12 with 21) in that order, so every entry of H, of
K = sum_c (r_c/2) O1'O2 and of the superoperator that pairs a bright with
a dark state cancels to an exact 0, which the sectors of
dynamics.two_time_correlation drop.  a, b and the optical excitation
number are exchange-invariant and keep their matrices.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .hilbert import EXCITED, GROUND, HilbertSpace

OMEGA_M = 1.0

#: minimum thermal weight the truncated phonon space must capture
THERMAL_COVERAGE = 0.999


@dataclass(frozen=True)
class ModelParams:
    """All physical rates and couplings in units of omega_M."""

    g_a: float = 2.4
    g_M: float = 1.2
    delta_ac: float = 0.0
    J: float = 0.0
    kappa: float = 0.2
    gamma_a: float = 0.05
    gamma_a_coop: float = 0.0
    gamma_M: float = 0.0
    Mbar: float = 0.0

    def __post_init__(self):
        for name in ("g_a", "g_M", "kappa", "gamma_a", "gamma_M", "Mbar"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
        for name in ("delta_ac", "J", "gamma_a_coop"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if abs(self.gamma_a_coop) > self.gamma_a + 1e-15:
            raise ConfigurationError(
                "cooperative decay |gamma_a_coop| must not exceed gamma_a "
                f"(got {self.gamma_a_coop} vs {self.gamma_a}): the atomic "
                "dissipator block would not be positive semidefinite"
            )

    @property
    def beta(self) -> float:
        """Optomechanical displacement parameter g_M / omega_M."""
        return self.g_M / OMEGA_M


@dataclass(frozen=True)
class DipoleGeometry:
    """Free-space quantities fixing the dipole-dipole strength (one unit system)."""

    gamma_0: float
    c_0: float
    omega_eg: float
    r: float

    def __post_init__(self):
        for name in ("gamma_0", "c_0", "omega_eg", "r"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ConfigurationError(f"{name} must be finite and > 0, got {v}")


def ddi_strength(geom: DipoleGeometry) -> float:
    """Dipole-dipole coupling J = (3/4) gamma_0 c_0^3 / (omega_eg^3 r^3)."""
    return 0.75 * geom.gamma_0 * geom.c_0**3 / (geom.omega_eg**3 * geom.r**3)


def thermal_weight(Mbar: float, m0: int) -> float:
    """Boltzmann occupancy of phonon level m0 for mean number Mbar."""
    if Mbar < 0:
        raise ConfigurationError(f"Mbar must be >= 0, got {Mbar}")
    if m0 < 0:
        raise ConfigurationError(f"m0 must be >= 0, got {m0}")
    if Mbar == 0.0:
        return 1.0 if m0 == 0 else 0.0
    return Mbar**m0 / (1.0 + Mbar) ** (m0 + 1)


@dataclass(frozen=True)
class Channel:
    """Jump pair contributing (rate/2)(2 op1 rho op2' - op1'op2 rho - rho op1'op2).

    A local channel has op2 is op1; a cross channel pairs two operators.
    The operators are dense d x d arrays.
    """

    op1: np.ndarray
    op2: np.ndarray
    rate: float
    label: str


def build_hamiltonian(params: ModelParams, space: HilbertSpace, ladder=None) -> np.ndarray:
    """Assemble H on the given space as a dense array; Hermitian by construction.

    From the ladder operators given (space.ladder, the product basis, by
    default).  Each coupling is built in the direction whose intermediate
    state stays inside a capped sector (lower first, then raise) and
    completed by its exact conjugate transpose, so the capped Hamiltonian
    equals the projection of the uncapped one.
    """
    a, b, s1, s2 = (ladder or space.ladder).values()
    ad, bd = a.conj().T, b.conj().T

    atom_coupling = ad @ (s1 + s2)  # a' sigma_i: lowers the atom, then refills the cavity
    exchange = s1.conj().T @ s2

    H = (
        -params.delta_ac * (s1.conj().T @ s1 + s2.conj().T @ s2)
        + params.g_a * (atom_coupling + atom_coupling.conj().T)
        + params.J * (exchange + exchange.conj().T)
        + OMEGA_M * (bd @ b)
        - params.g_M * (ad @ a) @ (bd + b)
    )
    return H


def dephasing_rate(params: ModelParams) -> float:
    """Numerator rate of the photon-number dephasing channel.

    The channel contributes (rate/2) L[a'a] with
    rate/2 = (2 beta)^2 gamma_M / ln(1 + 1/Mbar); the Mbar -> 0 limit is 0
    by continuity (the log diverges).
    """
    if params.Mbar == 0.0 or params.gamma_M == 0.0:
        return 0.0
    return 2.0 * (2.0 * params.beta) ** 2 * params.gamma_M / math.log1p(1.0 / params.Mbar)


def build_dissipators(params: ModelParams, space: HilbertSpace, ladder=None) -> tuple[Channel, ...]:
    """The channels of the master equation, dense, from the ladder operators given (see build_hamiltonian).

    Zero-rate channels are kept in the list (with rate 0) so the channel
    structure is independent of the parameter point.
    """
    a, b, s1, s2 = (ladder or space.ladder).values()
    n_c = a.conj().T @ a
    down, up = b - params.beta * n_c, b.conj().T - params.beta * n_c
    return (
        Channel(s1, s1, params.gamma_a, "atom1 decay"),
        Channel(s2, s2, params.gamma_a, "atom2 decay"),
        Channel(s1, s2, params.gamma_a_coop, "cooperative decay 12"),
        Channel(s2, s1, params.gamma_a_coop, "cooperative decay 21"),
        Channel(a, a, params.kappa, "cavity decay"),
        Channel(n_c, n_c, dephasing_rate(params), "photon-number dephasing"),
        Channel(down, down, params.gamma_M * (params.Mbar + 1.0), "mechanical damping"),
        Channel(up, up, params.gamma_M * params.Mbar, "mechanical heating"),
    )


def _thermal_populations(Mbar: float, N_m: int) -> np.ndarray:
    w = np.array([thermal_weight(Mbar, m) for m in range(N_m + 1)])
    total = w.sum()
    if total < THERMAL_COVERAGE:
        raise ConfigurationError(
            f"phonon cutoff N_m={N_m} captures only {total:.4f} of the thermal "
            f"weight at Mbar={Mbar}; increase N_m"
        )
    return w / total


def initial_state(
    params: ModelParams, space: HilbertSpace, excited_atom: int | str = 1
) -> np.ndarray:
    """Density matrix at t=0: one atomic excitation, empty cavity, thermal phonons.

    excited_atom selects which atom carries the excitation (1 or 2), or an
    equal-weight superposition: 'symmetric' for (|eg> + |ge>)/sqrt(2),
    'antisymmetric' for (|eg> - |ge>)/sqrt(2).
    """
    pops = _thermal_populations(params.Mbar, space.N_m)

    if excited_atom == 1:
        amps = {(EXCITED, GROUND): 1.0}
    elif excited_atom == 2:
        amps = {(GROUND, EXCITED): 1.0}
    elif excited_atom == "symmetric":
        amps = {(EXCITED, GROUND): 1 / np.sqrt(2), (GROUND, EXCITED): 1 / np.sqrt(2)}
    elif excited_atom == "antisymmetric":
        amps = {(EXCITED, GROUND): 1 / np.sqrt(2), (GROUND, EXCITED): -1 / np.sqrt(2)}
    else:
        raise ConfigurationError(
            f"excited_atom must be 1, 2, 'symmetric' or 'antisymmetric', got {excited_atom!r}"
        )

    rho = np.zeros((space.dim, space.dim), dtype=complex)
    for m in range(space.N_m + 1):
        psi = sum(amp * space.ket(a1, a2, 0, m) for (a1, a2), amp in amps.items())
        rho += np.outer(pops[m] * psi, psi.conj())
    return rho


class SparseMatrix:
    """A matrix in compressed sparse rows: row i holds data[indptr[i]:indptr[i + 1]].

    Its columns, indices[indptr[i]:indptr[i + 1]], are sorted and distinct,
    with no explicit zeros; rows holds the row of every entry.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape
        self.rows = np.repeat(np.arange(shape[0]), np.diff(indptr))

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "SparseMatrix":
        """The matrix of a list of entries: duplicates summed in list order, zeros dropped.

        bincount sums one by one in list order, so equal and opposite
        entries in a row cancel to an exact zero (np.add.reduceat does not
        sum sequentially: it leaves about 1e-18 of x - x - y + y).
        """
        key = rows.astype(np.int64) * shape[1] + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        new = np.diff(key, prepend=-1) != 0
        first, at = np.flatnonzero(new), np.cumsum(new) - 1
        data = np.bincount(at, vals.real) + 1j * np.bincount(at, vals.imag)
        keep = data != 0
        rows, cols = np.divmod(key[first[keep]], shape[1])
        return cls(np.searchsorted(rows, np.arange(shape[0] + 1)), cols, data[keep], shape)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """S x for a vector x."""
        out = np.zeros(self.shape[0], dtype=complex)
        np.add.at(out, self.rows, self.data * x[self.indices])
        return out

    def adjoint_dot(self, x: np.ndarray) -> np.ndarray:
        """S^H x for a vector x."""
        out = np.zeros(self.shape[1], dtype=complex)
        np.add.at(out, self.indices, self.data.conj() * x[self.rows])
        return out

    def block(self, index: np.ndarray) -> "SparseMatrix":
        """S[index][:, index] for sorted indices."""
        at = np.full(self.shape[1], -1)
        at[index] = np.arange(len(index))
        r, c = at[self.rows], at[self.indices]
        keep = (r >= 0) & (c >= 0)
        return SparseMatrix(np.searchsorted(r[keep], np.arange(len(index) + 1)), c[keep], self.data[keep],
                            (len(index),) * 2)

    @cached_property
    def successors(self) -> tuple[np.ndarray, np.ndarray]:
        """(ptr, rows): column j reaches the rows rows[ptr[j]:ptr[j + 1]], where S[row, j] != 0."""
        order = np.argsort(self.indices)
        return np.searchsorted(self.indices[order], np.arange(self.shape[1] + 1)), self.rows[order]


class Generator:
    """Master-equation generator with Schroedinger and Heisenberg actions."""

    def __init__(self, H: np.ndarray, channels):
        self._H = np.asarray(H, dtype=complex)
        self.dim = len(self._H)
        # (r/2, O1, O2', O1'O2) of every channel with a nonzero rate
        self._terms = [
            (0.5 * c.rate, c.op1, c.op2.conj().T, c.op1.conj().T @ c.op2)
            for c in channels
            if c.rate != 0.0
        ]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a dense matrix rho."""
        H = self._H
        out = -1j * (H @ rho - rho @ H)
        for r, O1, O2d, K in self._terms:
            out += r * (2.0 * (O1 @ rho @ O2d) - K @ rho - rho @ K)
        return out

    def apply_adjoint(self, A: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action, the Hilbert-Schmidt adjoint of apply.

        Satisfies Tr[M(A)^+ X] = Tr[A^+ L(X)] for all X.
        """
        H = self._H
        out = 1j * (H @ A - A @ H)
        for r, O1, O2d, K in self._terms:
            Kd = K.conj().T
            out += r * (2.0 * (O1.conj().T @ A @ O2d.conj().T) - Kd @ A - A @ Kd)
        return out

    def no_jump(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of the no-jump part rho -> A rho + rho B of L.

        A = -iH - K and B = iH - K with K = sum_c (r_c/2) k_c: the jump
        terms 2 O rho O'^+ left out, L is this map on any part of rho that
        no jump lands in.
        """
        K = sum((r * K for r, _, _, K in self._terms), np.zeros_like(self._H))
        return -1j * self._H - K, 1j * self._H - K

    def superoperator(self) -> SparseMatrix:
        """The matrix of L on row-major vectorized density matrices.

        vec(X rho Y) = (X (x) Y^T) vec(rho), so L = A (x) I + I (x) B^T (the
        no-jump part) + sum_c r_c O (x) O'^T; SparseMatrix.from_entries sums
        the terms' entries, from the nonzeros of their dense factors.
        """
        d = self.dim
        eye = np.eye(d)
        A, B = self.no_jump()
        terms = [(A, eye), (eye, B.T)] + [(2.0 * r * O1, O2d.T) for r, O1, O2d, _ in self._terms]
        rows, cols, vals = [], [], []
        for X, Y in terms:
            (i, j), (p, q) = (np.nonzero(M) for M in (X, Y))
            rows.append(np.add.outer(i * d, p).ravel())
            cols.append(np.add.outer(j * d, q).ravel())
            vals.append(np.multiply.outer(X[i, j], Y[p, q]).ravel())
        return SparseMatrix.from_entries(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (d * d, d * d)
        )

