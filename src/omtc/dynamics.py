"""Open-system time evolution and two-time correlations.

The dynamics is that of the master-equation generator L of
model.Generator (re-exported here with its one-shot wrappers);
Generator.superoperator() is its sparse matrix S on row-major vectorized
d x d matrices.

Propagation runs only on invariant sectors of S, index sets R with
S[~R, R] = 0 found from its sparsity pattern (no conservation law is
assumed): the forward sector, the closure of supp vec(rho0), and the
operand sector, that of supp vec(a rho).  Of the forward sector a
correlation run steps only the readout sector, the ancestors of what a
and the monitor read (rho_11 for one optical excitation), plus the sum p
of the dropped diagonal; evolve keeps the whole sector.  rho(t) stays
Hermitian and is stepped in real coordinates (_ForwardSector); the
operand sector carries a rho and stays complex.

Two backends step a sector: RK4 with four sparse matvecs per step (the
default) and expm with the dense E = exp(B dt).  Both passes run in row
blocks of b nodes; an expm block after the first is one product with E^b.
Every correlation run first checks S against apply and apply_adjoint, then
its passes and powers against Taylor references built from S
(_smoke_check).

The two-time correlation C[j][k] = <a'(t_j) a(t_k)> (j >= k) follows
from the quantum regression theorem: C[j][k] = Tr[a' Phi_{t_j-t_k}(a rho(t_k))].
It is kept in one of two forms (CorrelationGrid, grid.py), never as the
O(n_t^2) triangle:

- D form, every expm run without mechanical losses.  The readout sector
  is P x P and the operand sector Q0 x P, products that no jump lands in,
  so L acts there as X -> A X + X B (_kronecker_factors).  With B = A^H
  on P and A[Q0, Q0] anti-Hermitian (no channel acts on the optical
  ground manifold, so the no-jump evolution there is unitary) and
  rho0[P, P] = W W^H positive semidefinite, rho(t_k)[P, P] = W_k W_k^H
  with W_k = K_L^k W, K_L = exp(A dt), and C[j][k] = tr(D_j^H D_k) with
  D_k = K_0^{-k} a[Q0, P] W_k, K_0 = exp(A[Q0, Q0] dt) (_separable).  The
  forward pass steps the |P| x s factor W alone (_FactoredStepper), and
  K_0^{-k} is a phase in the eigenbasis of i A[Q0, Q0] (_SeparableKernel);
  there is no adjoint pass.  The filter's lag sums are FFT
  autocorrelations of D.
- U/X form, every other run.  The trace is folded into a single adjoint
  (Heisenberg) propagation of a', so C[k+tau][k] = <U_tau, X_k> pairs two
  stacks on the operand sector: X_k = a rho(t_k) from the forward pass and
  U_tau from the adjoint pass, both stepped by _SectorStepper.  They agree
  to roundoff with one propagation per column because the adjoint of the
  RK4 step polynomial is the RK4 step of the adjoint generator.
"""

import hashlib
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, NumericalError
from .grid import CorrelationGrid, _block_size
from .model import Generator, _dense, heisenberg_apply, liouvillian_apply  # noqa: F401 (re-exported)

#: abort threshold for trace drift along a trajectory
TRACE_DRIFT_LIMIT = 1e-4


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration settings (times in 1/omega_M)."""

    dt: float = 0.02
    t_max: float = 400.0
    method: str = "rk4"
    leak_tolerance: float = 1e-4
    max_grid_bytes: int = 2 * 1024**3
    smoke_check: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if self.t_max < self.dt:
            raise ConfigurationError("t_max must be at least one step")
        if self.method not in ("rk4", "expm"):
            raise ConfigurationError(f"method must be 'rk4' or 'expm', got {self.method!r}")
        if self.leak_tolerance < 0:
            raise ConfigurationError("leak_tolerance must be >= 0")

    @property
    def n_max(self) -> int:
        """Number of grid nodes t_k = k dt up to t_max."""
        return int(np.floor(self.t_max / self.dt + 0.5)) + 1


def check_step_size(dt: float, params) -> None:
    """Guard dt against the fastest coherent scale of the model."""
    scale = max(1.0, params.g_a, params.g_M, abs(params.delta_ac), abs(params.J))
    limit = 0.1 / scale
    if dt > limit + 1e-15:
        raise ConfigurationError(
            f"dt={dt} too coarse for couplings (need dt <= {limit:.4g})"
        )


def _block(S, index: np.ndarray):
    """S[index][:, index] as COO in row order (S CSR, index sorted)."""
    rows = S[index]
    at = np.full(S.shape[1], -1)
    at[index] = np.arange(len(index))
    c = at[rows.indices]
    r = np.repeat(np.arange(len(index)), np.diff(rows.indptr))
    keep = c >= 0
    return sparse.coo_matrix((rows.data[keep], (r[keep], c[keep])), shape=(len(index),) * 2)


def _closure(S, seed: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from the seed under the sparsity pattern of S.

    The result R is the smallest superset of the seed with S[~R, R] = 0, so
    S maps vectors supported on R into vectors supported on R and the
    restriction to R is exact.
    """
    pattern = abs(S)
    reach = np.zeros(S.shape[0], dtype=bool)
    reach[seed] = True
    while True:
        grown = reach | (pattern @ reach.astype(float) > 0)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _transposed(index: np.ndarray, d: int) -> np.ndarray:
    """Row-major vec indices of the transposed entries."""
    i, j = np.divmod(index, d)
    return j * d + i


class _ForwardSector:
    """Real coordinates (y, p) of the Hermitian matrices on the readout sector.

    Of the forward sector, the closure of supp vec(rho0) (with its
    transpose), index keeps the ancestors under L of the entries in reads
    and their transposes (all of it when reads is None).  Nothing flows in
    from the dropped rest, L[index, dropped] = 0, so the kept dynamics are
    exact; the dropped entries enter only through the sum p of their
    diagonal, the last coordinate, with dp/dt = f y for the flux row
    f = 1' L[dropped diagonal, index] V, exact when the columns of
    L[dropped diagonal, dropped] sum to zero, as trace preservation makes
    them.  V maps y to vec(rho)[index]: its first n columns are unitary
    (the n_diag diagonal entries, then (e_ij + e_ji)/sqrt(2) and
    i (e_ij - e_ji)/sqrt(2) per pair i < j), its last, p's, is zero.
    M = [L[index, index]; f] is kept as CSR; the real block
    [[V^H L[index, index] V, 0], [f, 0]], which only the dense and rk4
    steppers step, is built from it on first use.  NumericalError if index
    is not closed under L or transposition, if L does not keep rho Hermitian
    there (the block would not be real) or if the column sums do not
    vanish; ConfigurationError unless rho0 is Hermitian to 1e-12.
    """

    def __init__(self, S, rho0: np.ndarray, reads=None):
        asym = float(np.max(np.abs(rho0 - rho0.conj().T), initial=0.0))
        if asym > 1e-12:
            raise ConfigurationError(
                f"rho0 must be Hermitian (max |rho0 - rho0'| = {asym:.3e})"
            )
        d = rho0.shape[0]
        self.dim = d
        sector = _closure(S, np.flatnonzero((rho0 != 0) | (rho0.T != 0)))
        L = _block(S, sector)
        kept = np.ones(len(sector), dtype=bool)
        if reads is not None:
            seed = np.isin(sector, np.concatenate([reads, _transposed(reads, d)]))
            kept[:] = False
            kept[_closure(L.T, np.flatnonzero(seed))] = True
        for name, index in (("forward", sector), ("readout", sector[kept])):
            if not np.array_equal(np.sort(_transposed(index, d)), index):
                raise NumericalError(
                    f"generator does not preserve Hermiticity ({name} sector is not "
                    "closed under transposition)"
                )
        i, j = np.divmod(sector, d)
        dd = ~kept & (i == j)
        self.index, self.dropped, self.dropped_diag = sector[kept], sector[~kept], sector[dd]
        r, c, v = L.row, L.col, L.data  # one COO copy of the sector block, split by masks
        if np.max(np.abs(v[kept[r] & ~kept[c]]), initial=0.0) > 0:
            raise NumericalError("readout sector is not closed: dropped entries flow into it")

        n = len(self.index)
        i, j = np.divmod(self.index, d)
        self.sides = np.unique(i), np.unique(j)  # (P, Q) if index is a product P x Q
        diag, upper = np.flatnonzero(i == j), np.flatnonzero(i < j)
        lower = np.searchsorted(self.index, _transposed(self.index[upper], d))
        self.n_diag = n_diag = len(diag)
        n_up = len(upper)
        rt = np.sqrt(0.5)
        pairs = n_diag + np.arange(n_up)
        values = np.concatenate([np.ones(n_diag), np.full(2 * n_up, rt), np.full(n_up, 1j * rt), np.full(n_up, -1j * rt)])
        rows = np.concatenate([diag, upper, lower, upper, lower])
        cols = np.concatenate([np.arange(n_diag), pairs, pairs, pairs + n_up, pairs + n_up])
        self.V = sparse.csr_matrix((values, (rows, cols)), shape=(n, n + 1))
        # M = [L[index, index]; f]; the block is W M V with W = [V^H | e_n]
        to = np.where(kept, np.cumsum(kept) - 1, n)
        m = kept[c] & (kept[r] | dd[r])
        self.M = sparse.csr_matrix((v[m], (to[r[m]], to[c[m]])), shape=(n + 1, n))
        self._W = (np.append(values.conj(), 1.0), (np.append(cols, n), np.append(rows, n)))
        # L keeps rho Hermitian on the sector iff M[T r, T c] = conj(M[r, c])
        # for the transposition T (p's row its own image), so the block is real
        M, T = self.M, np.append(np.searchsorted(self.index, _transposed(self.index, d)), n)
        mr = np.repeat(np.arange(n + 1), np.diff(M.indptr))
        key, twin = mr * n + M.indices, T[mr] * n + T[M.indices]
        at = np.minimum(np.searchsorted(key, twin), len(key) - 1)
        err = np.abs(np.where(key[at] == twin, M.data[at], 0.0) - M.data.conj())
        if np.max(err, initial=0.0) > 1e-12 * np.max(np.abs(v[m & kept[r]]), initial=0.0):
            raise NumericalError("generator does not preserve Hermiticity")
        out = dd[r] & ~kept[c]  # column sums of L[dropped diagonal, dropped]
        leak = np.abs(np.bincount(c[out], v[out].real, len(sector)) + 1j * np.bincount(c[out], v[out].imag, len(sector)))
        if np.max(leak, initial=0.0) > 1e-12 * np.max(np.abs(v), initial=0.0):
            raise NumericalError(
                "generator does not preserve the trace of the dropped entries "
                f"(max column sum {np.max(leak):.3e})"
            )

    @cached_property
    def block(self):
        """The real block W M V, CSR, contiguous with sorted indices for fast matvecs."""
        n = self.M.shape[1]
        block = (sparse.csr_matrix(self._W, shape=(n + 1, n + 1)) @ self.M @ self.V).real.copy()
        block.eliminate_zeros()
        block.sort_indices()
        return block

    def check_trace_rows(self) -> None:
        """NumericalError unless the trace rows of M sum to zero over every column.

        The trace rows are the diagonal entries' and the flux row f; to
        1e-12 max|M|.  Then the sector's trace plus p is conserved, so a
        pass that carries no p has p = tr rho0 - tr X exactly and no trace
        to guard.
        """
        rows = np.append(self.index % (self.dim + 1) == 0, True).astype(float)
        loss = np.abs(self.M.T @ rows)
        if np.max(loss, initial=0.0) > 1e-12 * np.max(np.abs(self.M.data), initial=0.0):
            raise NumericalError(
                "generator does not preserve the trace of the readout sector "
                f"(max column sum {np.max(loss):.3e})"
            )

    def coords(self, rho: np.ndarray) -> np.ndarray:
        """Coordinates (y, p) of a Hermitian d x d matrix supported on the forward sector."""
        x = rho.reshape(-1)
        y = (self.V.conj().T @ x[self.index]).real
        y[-1] = x[self.dropped_diag].real.sum()
        return y

    def matrix(self, y: np.ndarray) -> np.ndarray:
        """The d x d matrix with coordinates y on the readout sector, zero elsewhere."""
        full = np.zeros(self.dim**2, dtype=complex)
        full[self.index] = self.V @ y
        return full.reshape(self.dim, self.dim)


def _power(E: np.ndarray, b: int) -> np.ndarray:
    """E^b for b a power of two, by log2 b squarings into two ping-pong buffers."""
    if b == 1:
        return E
    buffers = (np.empty_like(E), np.empty_like(E))
    for i in range(b.bit_length() - 1):
        E = np.matmul(E, E, out=buffers[i % 2])
    return E


class _SectorStepper:
    """Steps of size dt on an invariant sector: x -> exp(B dt) x.

    B is the real readout block (Hermitian coordinates and p) or, for the
    Heisenberg pass, the adjoint of the complex operand block.  rk4 takes
    four sparse matvecs per step; expm builds the dense E = exp(B dt) once
    and E^b by log2 b squarings.  blocks() runs a pass b nodes at a time:
    b sequential rk4 steps or, after the first expm block, one product with
    E^b.  This steps any sector, for the U/X form of the grid.
    """

    def __init__(self, block, dt: float, method: str, adjoint: bool = False, b: int = 1):
        if adjoint:
            block = block.conj().T.tocsr()
        self.dt = dt
        self.b = b
        self.kind = "dense" if method == "expm" else "rk4"
        if method == "expm":
            from scipy import linalg  # imported here: rk4 runs never need it

            self._B = linalg.expm(block.toarray() * dt)
            self.power = _power(self._B, b)
        else:
            self._B, self.power = block, None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        B = self._B
        if self.power is not None:
            return B @ x
        h = self.dt
        k1 = B @ x
        k2 = B @ (x + 0.5 * h * k1)
        k3 = B @ (x + 0.5 * h * k2)
        k4 = B @ (x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def blocks(self, x0: np.ndarray, n: int):
        """Yield x_0 .. x_{n-1}, x_{k+1} = step(x_k), as row blocks of b nodes.

        The last block may be shorter.  The first block, and every rk4
        block, is stepped node by node; a later expm block is
        Y_j = Y_{j-1} (E^b)^T, each row b steps on from the same row of the
        block before.
        """
        prev = None
        for start in range(0, n, self.b):
            rows = min(self.b, n - start)
            if prev is not None and self.power is not None:
                Y = prev[:rows] @ self.power.T
            else:
                Y = np.empty((rows, len(x0)), dtype=x0.dtype)
                Y[0] = x = x0 if prev is None else self(prev[-1])
                for i in range(1, rows):
                    Y[i] = x = self(x)
            yield Y
            prev = Y


def _phases(p: int, q: int) -> np.ndarray:
    """p x q test matrix exp(2 pi i g k), g = 0.618.., k the flat index: no two phases alike."""
    return np.exp(2j * np.pi * 0.6180339887498949 * np.arange(p * q)).reshape(p, q)


def _kronecker_factors(gen, S, index: np.ndarray):
    """(A[P, P], B[Q, Q]) of gen.no_jump() if L[index, index] is their Kronecker sum, else None.

    That holds when index is a product P x Q of Hilbert-space indices and
    no jump lands inside the sector, so L acts there as X -> A X + X B on
    the P x Q matrix X: the sector block must equal A (x) I + I (x) B^T to
    1e-12 max|L[index, index]|, checked as L vec(Z) = vec(A Z + Z B) for
    Z = _phases(|P|, |Q|).
    """
    i, j = np.divmod(index, gen.dim)
    P, Q = np.unique(i), np.unique(j)
    if len(index) != len(P) * len(Q):
        return None
    A, B = gen.no_jump()
    A, B = A[np.ix_(P, P)], B[np.ix_(Q, Q)]
    L, Z = _block(S, index), _phases(len(P), len(Q))
    err = np.max(np.abs(L @ Z.reshape(-1) - (A @ Z + Z @ B).reshape(-1)), initial=0.0)
    return None if err > 1e-12 * np.max(np.abs(L.data), initial=0.0) else (A, B)


def _separable(factors, fwd: _ForwardSector, adj: np.ndarray, rho0: np.ndarray):
    """(A[P, P], A[Q0, Q0], W) for the D form, or None where it does not hold.

    factors are the Kronecker factors of the readout sector P x P and of the
    operand sector, which must be Q0 x P.  Checked, each to 1e-12 of the
    largest entry: A[Q0, Q0] is anti-Hermitian, so K_0 is unitary;
    B[P, P] = A[P, P]^H, so K_R = K_L^H; rho0[P, P] is positive
    semidefinite.  W = V sqrt(e) over the eigenpairs (e, V) of rho0[P, P]
    above 1e-14 of the largest, s columns.
    """
    (A, B), (A0, _) = factors
    P = fwd.sides[0]
    if not np.array_equal(np.unique(adj % fwd.dim), P):
        return None
    if np.max(np.abs(A0 + A0.conj().T), initial=0.0) > 1e-12 * np.max(np.abs(A0), initial=0.0):
        return None
    if np.max(np.abs(B - A.conj().T), initial=0.0) > 1e-12 * np.max(np.abs(A), initial=0.0):
        return None
    e, V = np.linalg.eigh(rho0[np.ix_(P, P)])
    if not len(e) or e[-1] <= 0 or e[0] < -1e-12 * e[-1]:
        return None
    keep = e > 1e-14 * e[-1]
    return A, A0, V[:, keep] * np.sqrt(e[keep])


class _FactoredStepper:
    """The expm steps W -> K_L W of the forward factor of the D form.

    On the readout sector P x P, with Kronecker factors A and B = A^H, a
    step of rho[P, P] = W W^H is K_L W W^H K_L^H, K_L = exp(A dt) (A the
    no-jump part, the effective non-Hermitian Hamiltonian), so the pass
    steps the |P| x s factor W alone.  power holds K_L^b.
    """

    kind = "factored"

    def __init__(self, A: np.ndarray, dt: float, b: int = 1):
        from scipy import linalg  # imported here: rk4 runs never need it

        self.dt = dt
        self.b = b
        self.step = linalg.expm(A * dt)
        self.power = _power(self.step, b)

    def __call__(self, W: np.ndarray) -> np.ndarray:
        return self.step @ W

    def blocks(self, W0: np.ndarray, n: int):
        """Yield W_0 .. W_{n-1} as (|P|, rows, s) stacks of b nodes.

        The first block is stepped node by node; a later one is one
        product of K_L^b with the block before, each node b steps on.
        """
        p = len(W0)
        for start in range(0, n, self.b):
            rows = min(self.b, n - start)
            if start == 0:
                Ws = [W0]
                for _ in range(1, rows):
                    Ws.append(self(Ws[-1]))
                F = np.stack(Ws, axis=1)
            else:
                F = (self.power @ F[:, :rows].reshape(p, -1)).reshape(p, rows, -1)
            yield F


def _eigenphases(A0: np.ndarray):
    """(lam, V) with i A0 = V diag(lam) V^H, so exp(-A0 t) = V diag(exp(i lam t)) V^H."""
    return np.linalg.eigh(1j * A0)


class _SeparableKernel:
    """The rows of D, C[j][k] = tr(D_j^H D_k), from the forward factors W_k.

    D_k = K_0^{-k} a[Q0, P] W_k, rotated by V^H, the eigenbasis of
    i A[Q0, Q0] (_eigenphases): there K_0^{-k} is the phase exp(i lam t_k),
    computed from t_k = k dt, and the rotation leaves every trace
    tr(D_j^H D_k) unchanged.  W0 is the start factor of _separable.
    """

    kind = "separable"

    def __init__(self, A0: np.ndarray, a0: np.ndarray, W0: np.ndarray, dt: float):
        self.lam, V = _eigenphases(A0)
        self.a0 = V.conj().T @ a0
        self.W0 = W0
        self.dt = dt

    def rows(self, F: np.ndarray, start: int) -> np.ndarray:
        """D_k flattened (|Q0| s) for the nodes k = start, start + 1, .. of the W stack F."""
        p, rows, s = F.shape
        O = (self.a0 @ F.reshape(p, -1)).reshape(-1, rows, s)
        O *= np.exp(1j * np.outer(self.lam, np.arange(start, start + rows) * self.dt))[:, :, None]
        return O.transpose(1, 0, 2).reshape(rows, -1)

    def readout(self, step: _FactoredStepper, n: int, N):
        """Yield what _dense_readout does per block: D rows, monitor values, traces None.

        The monitor value is Re tr(N W W^H) = Re sum(conj(W) * (N W)) for the
        dense N = monitor[P, P] (None without a monitor).
        """
        start = 0
        for F in step.blocks(self.W0, n):
            p, rows, s = F.shape
            m = None
            if N is not None:  # Re(conj(w) v) = w.re v.re + w.im v.im, summed over the float views
                flat = F.reshape(p, -1)
                m = np.einsum("ij,ij->j", flat.view(float), (N @ flat).view(float)).reshape(rows, -1).sum(axis=1)
            yield self.rows(F, start), m, None
            start += rows


def _taylor_step(f, x: np.ndarray, h: float, tol=1e-16) -> np.ndarray:
    """Reference exp(F h) x of the linear map f by plain Taylor summation (small h only)."""
    out = x.copy()
    term = x
    scale = max(np.max(np.abs(x)), 1e-300)
    for k in range(1, 60):
        term = (h / k) * f(term)
        out = out + term
        if np.max(np.abs(term)) < tol * scale:
            break
    return out


def _smoke_check(gen, S, fwd: _ForwardSector, adj, steppers, rho0, a_mat,
                 config: EvolutionConfig):
    """Cross-validate S and the run's steppers; return the largest step difference.

    S, which the sectors and steppers are built from, must match the
    generator's actions to 1e-12 max|S| on the full matrix Z = _phases(d, d):
    S vec(Z) = vec(apply(Z)) and S^H vec(Z) = vec(apply_adjoint(Z)), the
    adjoint duality.  The references are Taylor steps of sparse matvecs
    with S and S^H.  The forward pass steps rho0 (its coordinates, or its
    factor W in the D form) and is compared on every readout entry, and p
    (y's, or tr rho0 - tr W W^H) with the reference's dropped diagonal sum,
    so the closure of the readout sector, its block or factors and the
    carried dropped population are checked at runtime.  The U/X form's
    adjoint pass steps a on the operand sector; the D form's separable
    kernel gives C[1][0], C[1][1], C[b][0] and C[b][1] as traces of D rows,
    compared with Tr[a' exp(S dt)^(j-k) vec(a rho(t_k))] (C[b][1] because a
    photonless start has a rho0 = 0, and C[j][0] = 0 checks no phase).  RK4
    takes four steps of dt/16 (h = dt/4, its truncation far below the 1e-8
    threshold), expm one (h = dt), and each power E^b or K_L^b, which steps
    the blocked passes, is compared with b steps.
    """
    Z = _phases(gen.dim, gen.dim)
    z = Z.reshape(-1)

    def SH(x):  # S^H x without a copy of S
        return (S.T @ x.conj()).conj()

    for name, M, action in (("forward", S.dot, gen.apply), ("adjoint", SH, gen.apply_adjoint)):
        err = float(np.max(np.abs(M(z) - action(Z).reshape(-1))))
        if err > 1e-12 * np.max(np.abs(S.data), initial=0.0):
            raise NumericalError(
                f"superoperator and generator disagree on the {name} smoke test "
                f"(max diff {err:.3e} > 1e-12 max|L|); the generator is unsound"
            )
    if config.method == "expm":
        n_steps = 1
    else:
        # an rk4 stepper keeps its (already adjoint) block in _B
        steppers = [_SectorStepper(s._B, config.dt / 16.0, "rk4") for s in steppers]
        n_steps = 4
    h = n_steps * steppers[0].dt
    ref_f = _taylor_step(S.dot, rho0.reshape(-1), h)
    step, second = steppers
    if second.kind == "separable":
        P = fwd.sides[0]
        F = np.concatenate(list(step.blocks(second.W0, step.b + 1)), axis=1)  # W_0 .. W_b
        rho = np.zeros_like(rho0)
        rho[np.ix_(P, P)] = F[:, 1] @ F[:, 1].conj().T
        p = np.trace(rho0 - rho).real
        D = second.rows(F, 0)
        # on the operand sector: Y = exp(S dt)^j vec(a rho(t_k)) for k = 0, 1
        # at j = 1, 0, then j = b, b - 1, after (b - 1) dt in substeps of at
        # most 4 / ||S_a||_1 (e^4 bounds the Taylor sum's cancellation)
        a, Sa = a_mat.reshape(-1)[adj], _block(S, adj).tocsr()
        Y = np.stack([(a_mat @ r.reshape(rho0.shape)).reshape(-1)[adj] for r in (rho0, ref_f)], axis=1)
        Y[:, 0] = _taylor_step(Sa.dot, Y[:, 0], h)
        C = [np.vdot(a, Y[:, 0]), np.vdot(a, Y[:, 1])]
        m = int(np.ceil((step.b - 1) * h * abs(Sa).sum(axis=0).max() / 4))
        for _ in range(m):
            Y = _taylor_step(Sa.dot, Y, (step.b - 1) * h / m)
        C += [np.vdot(a, Y[:, 0]), np.vdot(a, Y[:, 1])]
        kernel = [np.vdot(D[j], D[k]) - ref for (j, k), ref in zip(((1, 0), (1, 1), (step.b, 0), (step.b, 1)), C)]
        head, tail = [], [("separable kernel", np.array(kernel))]
        powers = [("forward", step, F[:, -2], F[:, -1])]
    else:
        ref_a = _taylor_step(SH, a_mat.reshape(-1), h)
        x0, u0 = fwd.coords(rho0), a_mat.reshape(-1)[adj]
        y, u = (np.concatenate(list(s.blocks(x, n_steps + 1)))[-1] for s, x in zip(steppers, (x0, u0)))
        rho, p = fwd.matrix(y), y[-1]
        head, tail = [("adjoint", u - ref_a[adj])], []
        powers = []
        for name, s, x in (("forward", step, x0), ("adjoint", second, u0)):
            if s.power is not None:
                X = np.concatenate(list(s.blocks(x, s.b + 1)))
                powers.append((name, s, X[-2], X[-1]))
    diff_f = rho.reshape(-1) - ref_f
    diff_f[fwd.dropped] = 0.0
    # node b of a pass is E^b x, node b - 1 stepped once more
    diffs = [
        ("forward", diff_f),
        ("forward dropped-population", p - ref_f[fwd.dropped_diag].real.sum()),
        *head,
        *((f"{name} E^b", last - s(before)) for name, s, before, last in powers),
        *tail,
    ]
    worst = 0.0
    for name, diff in diffs:
        err = float(np.max(np.abs(diff), initial=0.0))
        if err > 1e-8:
            raise NumericalError(
                f"integrator backends disagree on the {name} smoke test "
                f"(max diff {err:.3e}); the generator or step size is unsound"
            )
        worst = max(worst, err)
    return worst


def _dense_readout(step, fwd: _ForwardSector, rho0: np.ndarray, n: int, monitor=None, a_map=None):
    """Yield (rows, monitor values, traces) per block of the forward pass from rho0.

    Rows are the coordinates y of rho(t_k), or the operands a_map y; monitor
    values Re tr(N rho) = Re(N' V) y; traces the sum of the diagonal
    coordinates and p, exact as diagonal entries outside the sector stay 0.
    """
    mon = None
    if monitor is not None:
        mon = (fwd.V.T @ _dense(monitor).T.reshape(-1)[fwd.index]).real
    for Y in step.blocks(fwd.coords(rho0), n):
        yield ((Y if a_map is None else (a_map @ Y.T).T), None if mon is None else Y @ mon,
               Y[:, : fwd.n_diag].sum(axis=1) + Y[:, -1])


def _forward(values, config: EvolutionConfig):
    """Yield (rows, monitor values) per block of a forward pass, cut and guarded.

    values yields (rows, monitor values, traces) per row block of the nodes
    k = 0, 1, ... (_dense_readout or _SeparableKernel.readout).  The pass
    stops after t_max, or after the first node k > 0 whose monitor value
    (None without a monitor) is below leak_tolerance, cutting its block
    there.  It aborts at the first node up to the stop whose trace drifts
    from node 0's by more than TRACE_DRIFT_LIMIT; the D form has no
    traces, and its set-up check (check_trace_rows) stands in for the guard.
    """
    start = trace0 = 0
    for rows, residuals, traces in values:
        stop = None
        if residuals is not None:
            below = np.flatnonzero(residuals < config.leak_tolerance)
            below = below[below + start > 0]
            if below.size:
                stop = below[0] + 1
                rows, residuals = rows[:stop], residuals[:stop]
        if traces is not None:
            trace0 = traces[0] if start == 0 else trace0
            drift = np.abs(traces[: len(rows)] - trace0)
            bad = np.flatnonzero(drift > TRACE_DRIFT_LIMIT)
            if bad.size:
                raise NumericalError(
                    f"trace drift {drift[bad[0]]:.3e} at step {start + bad[0]} exceeds "
                    f"{TRACE_DRIFT_LIMIT}; reduce dt or enlarge the truncated space"
                )
        yield rows, residuals
        if stop is not None:
            return
        start += len(rows)
        del rows  # released before the next block is computed


def _check_budget(config: EvolutionConfig, node_bytes: int, dense=(), factored=()) -> None:
    """NumericalError, before anything large is allocated, above max_grid_bytes.

    Counts the stacks over the full t_max, node_bytes per node (32 |R_a|
    for U and X, 16 |Q0| s for D), and for expm the propagators and their
    b-th powers: 2 itemsize n^2 bytes per dense block, given as (n, itemsize)
    (8 for the real forward block, n = |R_f| + 1 with p; 16 for the complex
    adjoint one), and 2 (16 n^2) per n x n Hilbert-space propagator in
    factored (K_L, n = |P|).  Row blocks are not counted: b |R| entries
    dense, b |P| s factored.
    """
    stack_bytes = config.n_max * node_bytes
    dense_bytes = factor_bytes = 0
    if config.method == "expm":
        dense_bytes = sum(2 * itemsize * n**2 for n, itemsize in dense)
        factor_bytes = sum(2 * 16 * n**2 for n in factored)
    total = stack_bytes + dense_bytes + factor_bytes
    if total > config.max_grid_bytes:
        terms = [f"factor stacks {stack_bytes / 2**20:.1f} MiB for n_t <= {config.n_max}"]
        if dense_bytes:
            terms.append(f"dense expm blocks and their powers {dense_bytes / 2**20:.1f} MiB")
        if factor_bytes:
            terms.append(
                f"Hilbert-space propagators and their powers {factor_bytes / 2**20:.1f} MiB"
            )
        raise NumericalError(
            f"run would need {total / 2**20:.1f} MiB ({', '.join(terms)}), above the "
            f"{config.max_grid_bytes / 2**20:.1f} MiB budget; "
            "use a coarser dt, a shorter t_max or method rk4"
        )


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    monitor_values: np.ndarray | None = None
    stopped_early: bool = False

    @property
    def final_residual(self):
        if self.monitor_values is None:
            return None
        return float(self.monitor_values[-1])


def evolve(
    rho0: np.ndarray,
    gen: Generator,
    config: EvolutionConfig,
    monitor=None,
) -> Trajectory:
    """Propagate rho0 on the uniform grid t_k = k dt up to t_max.

    If a monitor operator is given, stops early once its expectation drops
    below leak_tolerance.  Aborts when the trace drifts by more than 1e-4
    (step-size instability or a leaking truncation).  The states are
    whole, so the whole forward sector is propagated.  rho0 must be Hermitian; for expm the dense forward
    propagator and its b-th power are checked against max_grid_bytes
    before they are built.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    fwd = _ForwardSector(sparse.csr_matrix(gen.superoperator()), rho0)
    _check_budget(config, 0, dense=((len(fwd.index) + 1, 8),))
    step = _SectorStepper(fwd.block, config.dt, config.method, b=_block_size(config.n_max))
    states, mvals = [], []
    for Y, residuals in _forward(_dense_readout(step, fwd, rho0, config.n_max, monitor), config):
        states.extend(fwd.matrix(y) for y in Y)
        if residuals is not None:
            mvals.extend(residuals)
    stopped = monitor is not None and len(states) > 1 and mvals[-1] < config.leak_tolerance
    return Trajectory(
        times=np.arange(len(states)) * config.dt,
        states=states,
        monitor_values=None if monitor is None else np.asarray(mvals),
        stopped_early=stopped,
    )


def config_hash(payload: str) -> bytes:
    """Stable 32-byte digest of a canonical parameter string."""
    return hashlib.sha256(payload.encode("utf-8")).digest()


def two_time_correlation(
    rho0: np.ndarray,
    gen: Generator,
    config: EvolutionConfig,
    a_op,
    monitor=None,
    kappa: float = 0.0,
    param_hash: bytes = b"\0" * 32,
) -> CorrelationGrid:
    """Quantum-regression grid of <a'(t_j) a(t_k)> over the adaptive horizon.

    The horizon is t_max, cut at the first node where the monitor
    expectation (if given) falls below leak_tolerance.  Of the forward
    sector only the readout sector and p are propagated.  For expm, where
    both sectors are Kronecker sums (_kronecker_factors) and _separable
    holds, the grid takes the D form: _FactoredStepper steps W and
    _SeparableKernel forms D, with no adjoint pass.  Any other run takes
    the U/X form, both passes stepped by _SectorStepper.  The grid reports
    sector_sizes, propagators (forward, operand: "factored"/"separable",
    "dense"/"dense" or "rk4"/"rk4"), columns ((s, width of D) for the D
    form, else (None, None)), smoke_max_diff (None without the check) and
    stage_s, the seconds of set-up, smoke check, forward and, for U/X,
    adjoint pass.  rho0 must be Hermitian.  The stacks over the full t_max
    and, for expm, the propagators and their b-th powers are checked
    against max_grid_bytes before anything large is allocated.
    """
    marks = [time.perf_counter()]  # stage boundaries
    rho0 = np.asarray(rho0, dtype=complex)
    d = gen.dim
    S = sparse.csr_matrix(gen.superoperator())
    a_mat = _dense(a_op)

    # (a x I) vec(rho) = vec(a rho): row i d + q reads column j d + q if
    # a[i, j] != 0.  The operand sector is the closure of the rows that
    # a x I reaches from the readout sector.
    reads = (np.unique(np.nonzero(a_mat)[1])[:, None] * d + np.arange(d)).reshape(-1)
    if monitor is not None:
        reads = np.union1d(reads, np.flatnonzero(_dense(monitor).T))
    fwd = _ForwardSector(S, rho0, reads)
    i, j = np.divmod(fwd.index, d)
    rows, at = np.nonzero(a_mat[:, i])
    adj = _closure(S, rows * d + j[at])
    separable = None
    if config.method == "expm":
        factors = (_kronecker_factors(gen, S, fwd.index), _kronecker_factors(gen, S, adj))
        if None not in factors:
            separable = _separable(factors, fwd, adj, rho0)

    b = _block_size(config.n_max)
    if separable is not None:
        A, A0, W0 = separable
        width = len(A0) * W0.shape[1]
        _check_budget(config, 16 * width, factored=(len(A),))
        fwd.check_trace_rows()
        P, Q0 = fwd.sides[0], np.unique(adj // d)
        step = _FactoredStepper(A, config.dt, b=b)
        second = _SeparableKernel(A0, a_mat[np.ix_(Q0, P)], W0, config.dt)
        N = None if monitor is None else _dense(monitor)[np.ix_(P, P)]
        values = second.readout(step, config.n_max, N)
        columns = (W0.shape[1], width)
    else:
        width, columns = len(adj), (None, None)
        _check_budget(config, 32 * width, dense=((len(fwd.index) + 1, 8), (width, 16)))
        step = _SectorStepper(fwd.block, config.dt, config.method, b=b)
        a_map = sparse.kron(sparse.csr_matrix(a_mat), sparse.identity(d), format="csr")
        values = _dense_readout(step, fwd, rho0, config.n_max, monitor,
                                (a_map[adj][:, fwd.index] @ fwd.V).tocsr())
        second = _SectorStepper(_block(S, adj), config.dt, config.method, adjoint=True, b=b)
    propagators = (step.kind, second.kind)
    marks.append(time.perf_counter())
    smoke = None
    if config.smoke_check:
        smoke = _smoke_check(gen, S, fwd, adj, (step, second), rho0, a_mat, config)
    marks.append(time.perf_counter())

    # forward pass: the rows of D, or the regression operands a rho(t_k)
    # on the operand sector, one block at a time into the stack over the
    # full t_max; rows past the realized horizon are never written, so
    # never resident
    X = np.empty((config.n_max, width), dtype=complex)
    n_t, residual = 0, None
    for operands, residuals in _forward(values, config):
        X[n_t : n_t + len(operands)] = operands
        n_t += len(operands)
        if residuals is not None:
            residual = residuals[-1]
        del operands  # released before the next block is computed
    del step, values  # the forward propagators are not needed by the adjoint pass
    X = X[:n_t]
    marks.append(time.perf_counter())

    form = {"D": X}
    if second.kind != "separable":
        # adjoint pass: U_0 = a evolved under the Hilbert-Schmidt adjoint;
        # the dagger of the observable lives inside the inner product
        # Tr[U' X], so the stack holds conj(U).  The operand sector is
        # invariant under L, so the adjoint restricted to it is exact on
        # the pairing.
        Uc = np.empty((n_t, width), dtype=complex)
        start = 0
        for U in second.blocks(a_mat.reshape(-1)[adj], n_t):
            np.conjugate(U, out=Uc[start : start + len(U)])
            start += len(U)
        marks.append(time.perf_counter())
        form = {"U": Uc, "X": X}

    return CorrelationGrid(
        dt=config.dt,
        kappa=kappa,
        param_hash=param_hash,
        residual_excitation=residual,
        sector_sizes=(len(fwd.index), len(adj)),
        propagators=propagators,
        smoke_max_diff=smoke,
        columns=columns,
        stage_s=dict(zip(("setup", "smoke", "forward", "adjoint"), np.diff(marks).tolist())),
        **form,
    )
