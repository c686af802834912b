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
default) and expm.  Both passes run in row blocks of b nodes; an expm
block after the first is one product with E^b.  E = exp(B dt) is dense
unless the sector is a product P x Q that no jump lands in, as both are
without mechanical losses: there a step is X -> K_L X K_R, carried as
thin column factors (_FactoredStepper).  Every correlation run first
checks S against apply and apply_adjoint, then both passes, and for expm
both powers, against Taylor references built from S (_smoke_check).

The two-time correlation C[j][k] = <a'(t_j) a(t_k)> (j >= k) follows
from the quantum regression theorem: C[j][k] = Tr[a' Phi_{t_j-t_k}(a rho(t_k))].
The trace is folded into a single adjoint (Heisenberg) propagation of a',
so C[k+tau][k] = <U_tau, X_k> pairs two stacks on the operand sector:
X_k = a rho(t_k) from the forward pass and U_tau from the adjoint pass.
They agree to roundoff with one propagation per column because the
adjoint of the RK4 step polynomial is the RK4 step of the adjoint
generator.  CorrelationGrid (grid.py) keeps only these two stacks,
O(n_t |R_a|) values; the O(n_t^2) triangle is never formed.
"""

import hashlib
import time
from dataclasses import dataclass

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
    block = [[V^H L[index, index] V, 0], [f, 0]] is real.  NumericalError if
    index is not closed under L or transposition, if the block has an
    imaginary part or if the column sums do not vanish; ConfigurationError
    unless rho0 is Hermitian to 1e-12.
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
        # M = [L[index, index]; f], W = [V^H | e_n]: block = W M V
        to = np.where(kept, np.cumsum(kept) - 1, n)
        m = kept[c] & (kept[r] | dd[r])
        M = sparse.csr_matrix((v[m], (to[r[m]], to[c[m]])), shape=(n + 1, n))
        W = sparse.csr_matrix(
            (np.append(values.conj(), 1.0), (np.append(cols, n), np.append(rows, n))), shape=(n + 1, n + 1)
        )
        block = W @ M @ self.V
        if np.max(np.abs(block.imag.data), initial=0.0) > 1e-12 * np.max(np.abs(v[m & kept[r]]), initial=0.0):
            raise NumericalError("generator does not preserve Hermiticity")
        self.block = block.real.copy()  # contiguous, for fast matvecs
        self.block.eliminate_zeros()
        self.block.sort_indices()
        out = dd[r] & ~kept[c]  # column sums of L[dropped diagonal, dropped]
        leak = np.abs(np.bincount(c[out], v[out].real, len(sector)) + 1j * np.bincount(c[out], v[out].imag, len(sector)))
        if np.max(leak, initial=0.0) > 1e-12 * np.max(np.abs(v), initial=0.0):
            raise NumericalError(
                "generator does not preserve the trace of the dropped entries "
                f"(max column sum {np.max(leak):.3e})"
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
    E^b.  This steps any sector; _FactoredStepper is the cheaper form for
    sectors without jumps inside them.
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


class _FactoredStepper:
    """The expm steps of a sector whose block is a Kronecker sum, as thin column factors.

    On a product sector P x Q without jumps inside it the block is
    A (x) I + I (x) B^T (see _kronecker_factors; A, B the no-jump part, the
    effective non-Hermitian Hamiltonian), so a step is X -> K_L X K_R on
    the P x Q matrix X, K_L = exp(A dt), K_R = exp(B dt) (A^H, B^H for the
    Heisenberg pass).  __call__ steps X flattened row-major, power holds
    (K_L^b, K_R^b), factors() runs a pass.  Given the forward sector fwd,
    NumericalError unless the trace rows of its block sum to zero over
    every column to 1e-12 max|block|: then p = tr rho0 - tr X is exact, so
    the pass carries no p and no trace to guard.
    """

    kind = "factored"

    def __init__(self, factors, dt: float, adjoint: bool = False, b: int = 1, fwd=None):
        if fwd is not None:
            trace_row = np.zeros(fwd.block.shape[0])
            trace_row[: fwd.n_diag] = trace_row[-1] = 1.0
            loss = np.abs(fwd.block.T @ trace_row)
            if np.max(loss) > 1e-12 * np.max(np.abs(fwd.block.data), initial=0.0):
                raise NumericalError(
                    "generator does not preserve the trace of the readout sector "
                    f"(max column sum {np.max(loss):.3e})"
                )
        from scipy import linalg  # imported here: rk4 runs never need it

        A, B = (f.conj().T for f in factors) if adjoint else factors
        self.dt = dt
        self.b = b
        self.step = linalg.expm(A * dt), linalg.expm(B * dt)
        self.power = tuple(_power(K, b) for K in self.step)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        L, R = self.step
        return (L @ x.reshape(len(L), len(R)) @ R).reshape(-1)

    def factors(self, x0: np.ndarray, n: int):
        """Yield (F, H) of X_0 .. X_{n-1} from the P x Q matrix x0 in row blocks of b nodes.

        X_k = F_k H_k on the s columns S that x0 populates (no threshold):
        F_0 = x0[:, S], H_0 = I[S, :], F <- K_L F, H <- H K_R, exact for any
        x0; F is the stack (|P|, rows, s), H (rows, s, |Q|).  Where X itself
        takes fewer products per node, |P| |Q| (|P| + |Q|) against
        s (|P|^2 + |Q|^2 + |P| |Q|) (forming F H), F is the stack of X and
        H is None.  The first block is stepped node by node; a later one is
        one product of K_L^b with F and one of H (or F) with K_R^b, each
        node b steps on from the same node before.
        """
        (L, R), (Lb, Rb) = self.step, self.power
        p, q = x0.shape
        cols = np.flatnonzero(np.any(x0 != 0, axis=0))
        thin = len(cols) * (p * p + q * q + p * q) <= p * q * (p + q)
        for start in range(0, n, self.b):
            rows = min(self.b, n - start)
            if start == 0:
                Fs, Hs = [x0[:, cols] if thin else x0], [np.eye(q)[cols] if thin else None]
                for _ in range(1, rows):
                    Fs.append(L @ Fs[-1] if thin else L @ Fs[-1] @ R)
                    Hs.append(Hs[-1] @ R if thin else None)
                F, H = np.stack(Fs, axis=1), np.stack(Hs) if thin else None
            else:
                F = (Lb @ F[:, :rows].reshape(p, -1)).reshape(p, rows, -1)
                if thin:
                    H = (H[:rows].reshape(-1, q) @ Rb).reshape(rows, -1, q)
                else:
                    F = (F.reshape(-1, q) @ Rb).reshape(p, rows, q)
            yield F, H

    def blocks(self, x0: np.ndarray, n: int):
        """Yield the entries x_0 .. x_{n-1} as row blocks of b nodes, as _SectorStepper.blocks does."""
        for F, H in self.factors(x0.reshape(len(self.step[0]), -1), n):
            X = F.transpose(1, 0, 2)
            yield (X if H is None else np.matmul(X, H)).reshape(len(X), -1)

    def readout(self, fwd, x0: np.ndarray, n: int, monitor, a_mat: np.ndarray, adj: np.ndarray):
        """Yield what _dense_readout does per block, from the factors of X = rho[P, Q], X_0 = x0.

        Operands on adj are (a[q, P] F) H, q the rows of adj (zero outside
        the columns Q), monitor values Re tr(N[Q, P] F H), traces None; a
        and N are read sparse (F alone stands for F H if H is None).
        """
        P, Q = fwd.sides
        i, j = np.divmod(adj, fwd.dim)
        q, hit = np.unique(i), np.isin(j, Q)
        pos = np.searchsorted(q, i[hit]) * len(Q) + np.searchsorted(Q, j[hit])
        gather = not np.array_equal(pos, np.arange(len(adj)))
        W = sparse.csr_matrix(a_mat[np.ix_(q, P)])
        N = None if monitor is None else sparse.csr_matrix(monitor)[Q][:, P].tocoo()
        for F, H in self.factors(x0, n):
            flat = F.reshape(len(P), -1)
            WF = (W @ flat).reshape(len(q), *F.shape[1:]).transpose(1, 0, 2)
            O = (WF if H is None else np.matmul(WF, H)).reshape(len(WF), -1)
            if gather:
                O, grid = np.zeros((len(O), len(adj)), dtype=complex), O
                O[:, hit] = grid[:, pos]
            m = None
            if N is not None and H is None:
                m = (N.data @ F[N.col, :, N.row]).real  # Re sum N[r, c] X[c, r]
            elif N is not None:
                m = np.einsum("cks,ksc->k", (N @ flat).reshape(len(Q), *F.shape[1:]), H).real
            yield O, m, None
            O = grid = None  # released before the next block is computed


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
    """Cross-validate S and the sector steppers; return the largest step difference.

    S, which the sectors and steppers are built from, must match the
    generator's actions to 1e-12 max|S| on the full matrix Z = _phases(d, d):
    S vec(Z) = vec(apply(Z)) and S^H vec(Z) = vec(apply_adjoint(Z)), the
    adjoint duality.  The references are Taylor steps of sparse matvecs
    with S and S^H.  The forward pass steps rho0 (its coordinates, or
    rho0[P, Q] if factored) and is compared on every readout entry, and p
    (y's, or tr rho0 - tr X) with the reference's dropped diagonal sum, so
    the closure of the readout sector, its block or factors and the carried
    dropped population are checked at runtime; the adjoint pass steps a on
    the operand sector.  RK4 takes four steps of dt/16 (h = dt/4, its
    truncation far below the 1e-8 threshold), expm one (h = dt), and each
    power E^b, which steps the blocked passes, is compared with b steps.
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
    ref_a = _taylor_step(SH, a_mat.reshape(-1), h)
    factored = steppers[0].kind == "factored"
    x0 = rho0[np.ix_(*fwd.sides)].reshape(-1) if factored else fwd.coords(rho0)
    u0 = a_mat.reshape(-1)[adj]
    y, u = (np.concatenate(list(s.blocks(x, n_steps + 1)))[-1] for s, x in zip(steppers, (x0, u0)))
    if factored:
        rho = np.zeros_like(rho0)
        rho[np.ix_(*fwd.sides)] = y.reshape(len(fwd.sides[0]), -1)
        p = np.trace(rho0 - rho).real
    else:
        rho, p = fwd.matrix(y), y[-1]
    diff_f = rho.reshape(-1) - ref_f
    diff_f[fwd.dropped] = 0.0
    diffs = [
        ("forward", diff_f),
        ("forward dropped-population", p - ref_f[fwd.dropped_diag].real.sum()),
        ("adjoint", u - ref_a[adj]),
    ]
    for name, step, x in (("forward", steppers[0], x0), ("adjoint", steppers[1], u0)):
        if step.power is not None:  # node b of a pass is E^b x, node b - 1 stepped once more
            X = np.concatenate(list(step.blocks(x, step.b + 1)))
            diffs.append((f"{name} E^b", X[-1] - step(X[-2])))
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
    k = 0, 1, ... (_dense_readout or _FactoredStepper.readout).  The pass
    stops after t_max, or after the first node k > 0 whose monitor value
    (None without a monitor) is below leak_tolerance, cutting its block
    there.  It aborts at the first node up to the stop whose trace drifts
    from node 0's by more than TRACE_DRIFT_LIMIT; a factored pass has no
    traces, and its set-up check stands in for the guard.
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


def _check_budget(config: EvolutionConfig, n_fwd: int, n_adj: int = 0,
                  factors=(None, None)) -> None:
    """NumericalError, before anything large is allocated, above max_grid_bytes.

    Counts the factor stacks over the full t_max, 32 n_max |R_a| bytes
    (n_adj > 0), and for expm each sector's propagators and b-th powers:
    2 (8 n_fwd^2) bytes for the real forward blocks (n_fwd = |R_f| + 1 with
    p) or 2 (16 |R_a|^2) for the complex adjoint ones if stepped densely
    (factors None), 2 (16 (|P|^2 + |Q|^2)) for K_L, K_R if factored.  Row
    blocks are not counted: b |R| entries dense, b (|P| + |Q|) s factored.
    """
    stack_bytes = 32 * config.n_max * n_adj
    dense_bytes = factor_bytes = 0
    if config.method == "expm":
        for n, itemsize, pair in ((n_fwd, 8, factors[0]), (n_adj, 16, factors[1])):
            if pair is None:
                dense_bytes += 2 * itemsize * n**2
            else:
                factor_bytes += 2 * 16 * sum(len(f) ** 2 for f in pair)
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
    _check_budget(config, fwd.block.shape[0])
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
    sector only the readout sector and p are propagated.  For expm a sector
    whose block is a Kronecker sum (_kronecker_factors) is stepped by
    _FactoredStepper, any other densely.  The grid reports sector_sizes,
    propagators ("factored", "dense" or "rk4" per pass), columns (s per
    factored pass, else None), smoke_max_diff (None without the check) and
    stage_s, the seconds of set-up, smoke check, forward and adjoint pass.
    rho0 must be Hermitian.  The factor stacks over the full t_max and, for
    expm, the propagators and their b-th powers are checked against
    max_grid_bytes before anything large is allocated.
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
    factors = (None, None)
    if config.method == "expm":
        factors = (_kronecker_factors(gen, S, fwd.index), _kronecker_factors(gen, S, adj))
    _check_budget(config, fwd.block.shape[0], len(adj), factors)

    b = _block_size(config.n_max)
    starts = (rho0[np.ix_(*fwd.sides)], a_mat.reshape(-1)[adj])
    columns = tuple(None if f is None else int(np.any(x.reshape(len(f[0]), -1) != 0, axis=0).sum())
                    for f, x in zip(factors, starts))
    if factors[0] is None:
        step = _SectorStepper(fwd.block, config.dt, config.method, b=b)
        a_map = sparse.kron(sparse.csr_matrix(a_mat), sparse.identity(d), format="csr")
        values = _dense_readout(step, fwd, rho0, config.n_max, monitor,
                                (a_map[adj][:, fwd.index] @ fwd.V).tocsr())
    else:
        step = _FactoredStepper(factors[0], config.dt, b=b, fwd=fwd)
        values = step.readout(fwd, starts[0], config.n_max, monitor, a_mat, adj)
    if factors[1] is None:
        adjoint_step = _SectorStepper(_block(S, adj), config.dt, config.method, adjoint=True, b=b)
    else:
        adjoint_step = _FactoredStepper(factors[1], config.dt, adjoint=True, b=b)
    propagators = (step.kind, adjoint_step.kind)
    marks.append(time.perf_counter())
    smoke = None
    if config.smoke_check:
        smoke = _smoke_check(gen, S, fwd, adj, (step, adjoint_step), rho0, a_mat, config)
    marks.append(time.perf_counter())

    # forward pass: the regression operands a rho(t_k) on the operand
    # sector, one block at a time into the stack over the full t_max;
    # rows past the realized horizon are never written, so never resident
    X = np.empty((config.n_max, len(adj)), dtype=complex)
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

    # adjoint pass: U_0 = a evolved under the Hilbert-Schmidt adjoint; the
    # dagger of the observable lives inside the inner product Tr[U' X], so
    # the stack holds conj(U).  The operand sector is invariant under L, so
    # the adjoint restricted to it is exact on the pairing.
    Uc = np.empty((n_t, len(adj)), dtype=complex)
    start = 0
    for U in adjoint_step.blocks(starts[1], n_t):
        np.conjugate(U, out=Uc[start : start + len(U)])
        start += len(U)
    marks.append(time.perf_counter())

    return CorrelationGrid(
        dt=config.dt,
        U=Uc,
        X=X,
        kappa=kappa,
        param_hash=param_hash,
        residual_excitation=residual,
        sector_sizes=(len(fwd.index), len(adj)),
        propagators=propagators,
        smoke_max_diff=smoke,
        columns=columns,
        stage_s=dict(zip(("setup", "smoke", "forward", "adjoint"), np.diff(marks).tolist())),
    )
