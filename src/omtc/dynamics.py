"""Open-system time evolution and two-time correlations.

The dynamics is that of the master-equation generator L of
model.Generator (re-exported here); Generator.superoperator() is its
matrix S on row-major vectorized d x d matrices, a numpy SparseMatrix.
scipy.sparse and scipy.linalg are imported only for the stepped passes
(_scipy, and expm of their sector blocks).

Propagation runs only on invariant sectors of S, index sets R with
S[~R, R] = 0 found from its sparsity pattern (no conservation law is
assumed): the forward sector, the closure of supp vec(rho0), and the
operand sector, that of supp vec(a rho).  Of the forward sector a
correlation run steps only the readout sector, the ancestors of what a
and the monitor read (rho_11 for one optical excitation), plus the sum p
of the dropped diagonal; evolve keeps the whole sector.  One object,
_ForwardSector, makes every such decision of a run once: the readout
sector, its rows P, and from one pattern of a the operand sector, its rows
Q0, its block and the entries of the operand map; every form and the
smoke check read them there.  rho(t) stays Hermitian, and the stepped passes
step it in real coordinates (_HermitianCoordinates, built only for them);
the operand sector carries a rho and stays complex.

Nothing here depends on the basis, but the sectors are only as small as
the exact zeros of S let them be.  A correlation run of spectrum works in
the atoms' exchange basis (hilbert.to_exchange), where no entry of S pairs
a bright with a dark state: a start on one atom, (bright + dark)/sqrt(2),
then has a readout sector of the bright one-excitation states and the
start's dark states, and the dark ones never reach the operand sector (at
N_m = 12 and Mbar = 0 the readout sector is 27 x 27 against 39 x 39 in the
product basis).  A thermal start leaves the readout sector short of the
coherences between dark states of different phonon numbers, so the
correlation kernels step its product hull instead (_ForwardSector.hull,
which extends the sector it holds by one block).  The dark start itself,
and a photonless one, has an empty operand sector, the empty product
Q0 x P: its grid is exactly zero, and the D or spectral form makes it at
once.  evolve and every function given product-basis operators work as
before.

Two methods step a sector: RK4 (the default), whose step is the
polynomial r(h S) = 1 + h S + (h S)^2/2 + (h S)^3/6 + (h S)^4/24, and
expm with E = exp(S dt).  Every pass, forward or adjoint, of every form
and of evolve, and the grid that makes X again, draws its nodes from one
generator, grid._row_groups: row groups of whole blocks of b nodes in one
reused buffer, each block after the first stepped by its b-step (g^b,
(E^b)^T) or node by node (sparse RK4), so that the readers work once per
group.

The two-time correlation C[j][k] = <a'(t_j) a(t_k)> (j >= k) follows
from the quantum regression theorem: C[j][k] = Tr[a' Phi_{t_j-t_k}(a rho(t_k))].
It is kept in one of two layouts (CorrelationGrid, grid.py), never as the
O(n_t^2) triangle, and computed in one of three forms, each one object
with one interface (sector, propagators, columns, grid_stage, b, start,
steps, state, readout, smoke, grid) that two_time_correlation
runs through one loop and one smoke check against Taylor references built
from S.  Without
mechanical losses the readout sector is P x P and the operand sector
Q0 x P (or empty), products that no jump lands in, so L acts there as
X -> A X + X B (_kronecker_factors), with A, B the no-jump parts.  One
function, _kernel, tries the D form or the spectral form there, on the
product hull P x P of the readout rows where nothing else flows into it;
every other run, and a kernel run that _kernel turns down, is stepped on
the readout sector itself.

- D form (_SeparableKernel), expm runs on such sectors.  With B = A^H on
  P and A[Q0, Q0] anti-Hermitian (no channel acts on the optical ground
  manifold, so the no-jump evolution there is unitary) and
  rho0[P, P] = W W^H positive semidefinite, rho(t_k)[P, P] = W_k W_k^H
  with W_k = K_L^k W, K_L = exp(A dt), and C[j][k] = tr(D_j^H D_k) with
  D_k = K_0^{-k} a[Q0, P] W_k, K_0 = exp(A[Q0, Q0] dt).  The
  forward pass steps only the powers g^k of the eigenvalues of K_L, as
  W_k = V diag(g^k) V^-1 W in the eigenbasis V of A, and K_0^{-k} is a
  phase in the eigenbasis of i A[Q0, Q0]; there is no adjoint pass.  The
  filter's lag sums are FFT autocorrelations of D.
- Spectral U/X form (_SpectralKernel), rk4 runs on such sectors, under
  the same B = A^H and anti-Hermitian A[Q0, Q0].  In the eigenbases of A,
  B and A[Q0, Q0], all three from one eigendecomposition of A and one of
  i A[Q0, Q0] (_eigenbases), L is diagonal with the sums of their
  eigenvalues, so an RK4 step multiplies each eigen coordinate by
  r(h (sum)) and every node is an elementwise power.  The trace is folded
  into a single adjoint (Heisenberg) propagation of a', so
  C[k+tau][k] = <U_tau, X_k> on the operand sector, here in eigen
  coordinates: only the pairing has meaning.  X_k = M (Z_0 o G^k) and
  U_tau = N o H^tau are both made from O(|P|^2) numbers, so the grid keeps
  those and makes the rows of X and U as its lag sums read them; the
  forward pass reads each node only for the monitor and for the largest
  entry X_k . N that the resolution check needs, and its memory does not
  grow with n_t but for that one column.  A step that grows an eigen coordinate is
  rejected at set-up, and a grid too far below the roundoff of the change
  of basis is computed stepped instead.
- Stepped U/X form (_SteppedForm), every other run: the same pairing,
  with X_k = a rho(t_k) from the forward pass and U_tau from the adjoint
  pass, both stepped on the sector blocks by _sector_steps.  They agree
  to roundoff with one propagation per column because the adjoint of the
  RK4 step polynomial is the RK4 step of the adjoint generator.
"""

import copy
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .config import EvolutionConfig
from .errors import ConfigurationError, NumericalError
from .grid import (
    RUN_KEYS,
    STEP_FACTOR_LIMIT,
    CorrelationGrid,
    _block_size,
    _elementwise_steps,
    _row_groups,
    spectral_blocks,
)
from .model import Generator, SparseMatrix

#: abort threshold for trace drift along a trajectory
TRACE_DRIFT_LIMIT = 1e-4
#: share of the grid's largest entry to which the spectral form must match
#: stepped RK4; a grid it cannot resolve so is computed stepped
SPECTRAL_RESOLUTION = 1e-12
#: largest product of the condition numbers of the eigenvector matrices that
#: the spectral form (kappa(V)^2: V^-H and the unitary U add kappa(V) and 1)
#: and the D form (kappa(V)) accept: their transforms scale the roundoff of
#: the stepped path by at most that, so 1e3 eps ~ 1e-13 of the largest entry
#: stays below SPECTRAL_RESOLUTION
SPECTRAL_CONDITION_LIMIT = 1e3


def check_step_size(dt: float, params) -> None:
    """Guard dt against the fastest coherent scale of the model."""
    scale = max(1.0, params.g_a, params.g_M, abs(params.delta_ac), abs(params.J))
    limit = 0.1 / scale
    if dt > limit + 1e-15:
        raise ConfigurationError(
            f"dt={dt} too coarse for couplings (need dt <= {limit:.4g})"
        )


def _closure(adjacency, seed: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from the seed, where j reaches idx[ptr[j]:ptr[j + 1]] of (ptr, idx).

    With S.successors the result R is the smallest superset of the seed
    with S[~R, R] = 0, so the restriction of S to R is exact; with the rows
    of a SparseMatrix, (indptr, indices), it holds the ancestors.  Each
    index is expanded once, when first reached.
    """
    ptr, idx = adjacency
    reach = np.zeros(len(ptr) - 1, dtype=bool)
    reach[seed] = True
    front = np.flatnonzero(reach)
    while len(front):
        start, count = ptr[front], ptr[front + 1] - ptr[front]
        new = np.zeros_like(reach)
        new[idx[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]] = True
        front = np.flatnonzero(new & ~reach)
        reach[front] = True
    return np.flatnonzero(reach)


def _scipy(M: SparseMatrix):
    """M as a scipy CSR matrix, for a stepped pass that multiplies by it once per step."""
    from scipy import sparse  # imported here: only the stepped passes need it
    return sparse.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def _distinct(*arrays: np.ndarray) -> np.ndarray:
    """The sorted distinct values of non-negative int arrays (np.unique without numpy.ma)."""
    return np.flatnonzero(np.bincount(np.concatenate(arrays), minlength=1))


def _transposed(index: np.ndarray, d: int) -> np.ndarray:
    """Row-major vec indices of the transposed entries."""
    i, j = np.divmod(index, d)
    return j * d + i


class _ForwardSector:
    """The sectors of a correlation run: the readout sector, its rows P and M, and the operand sector.

    Of the forward sector, the closure of supp vec(rho0) (with its
    transpose), index keeps the ancestors under L of the entries in reads
    and their transposes (all of it when reads is None).  Nothing flows in
    from the dropped rest, L[index, dropped] = 0, so the kept dynamics are
    exact; the dropped entries enter only through the sum p of their
    diagonal, with dp/dt given by the flux row f = 1' L[dropped diagonal,
    index], exact when the columns of L[dropped diagonal, dropped] sum to
    zero, as trace preservation makes them (check_leak).  M = [L[index,
    index]; f] is kept as a SparseMatrix; every correlation form reads it,
    and the stepped passes step it in Hermitian coordinates
    (_HermitianCoordinates).  NumericalError if index is not closed under L
    or transposition; ConfigurationError unless rho0 is Hermitian to 1e-12.

    Given the annihilation operator a, it also finds the operand sector adj,
    the closure of the rows that a x I reaches from index: (a x I) vec(rho)
    = vec(a rho), so entry i d + j reaches r d + j where a[r, i] != 0.  From
    that one pattern come adj, its block Sa = S[adj, adj], its rows Q0,
    whether adj is the product Q0 x P (product; true when adj is empty), and
    the entries (rows of adj, columns of index, values) of the operand map
    (a x I)[adj, index] (a_entries).  S itself is kept for hull().

    hull() gives the product hull P x P of the readout rows P, which the
    correlation kernels need (_kernel): its sector is the forward sector with
    the hull, whose entries outside the forward sector stay 0, and closed
    tells whether nothing flows into the hull from the rest of that sector,
    the condition for its dynamics to be exact, instead of an error.  In the
    exchange basis a thermal start leaves P x P short of the coherences
    between two dark states.  The hull keeps the operand facts: where adj is
    Q0 x P, the hull's operand seeds lie in it.  a_entries stay those of
    the readout sector, which only the stepped form, never given a hull,
    reads.
    """

    def __init__(self, S, rho0: np.ndarray, reads=None, a=None):
        asym = float(np.max(np.abs(rho0 - rho0.conj().T), initial=0.0))
        if asym > 1e-12:
            raise ConfigurationError(
                f"rho0 must be Hermitian (max |rho0 - rho0'| = {asym:.3e})"
            )
        d = rho0.shape[0]
        self.S, self.dim = S, d
        sector = _closure(S.successors, np.flatnonzero((rho0 != 0) | (rho0.T != 0)))
        L = S.block(sector)
        kept = np.ones(len(sector), dtype=bool)
        if reads is not None:
            seed = np.isin(sector, np.concatenate([reads, _transposed(reads, d)]))
            kept[:] = False
            kept[_closure((L.indptr, L.indices), np.flatnonzero(seed))] = True
        for name, index in (("forward", sector), ("readout", sector[kept])):
            if not np.array_equal(np.sort(_transposed(index, d)), index):
                raise NumericalError(
                    f"generator does not preserve Hermiticity ({name} sector is not "
                    "closed under transposition)"
                )
        self._split(L, sector, kept)
        if not self.closed:
            raise NumericalError("readout sector is not closed: dropped entries flow into it")
        if a is not None:
            i, j = np.divmod(self.index, d)
            rows, at = np.nonzero(a[:, i])
            seed = rows * d + j[at]
            self.adj = adj = _closure(S.successors, seed)
            self.Sa, self.Q0 = S.block(adj), _distinct(adj // d)
            self.product = np.array_equal(adj, (self.Q0[:, None] * d + self.P).reshape(-1))
            self.a_entries = np.searchsorted(adj, seed), at, a[rows, i[at]]

    def _split(self, L: SparseMatrix, sector: np.ndarray, kept: np.ndarray) -> None:
        """Set index, dropped, P, M, closed and the leak from the block L = S[sector, sector] and the kept mask."""
        d = self.dim
        i, j = np.divmod(sector, d)
        dd = ~kept & (i == j)
        self.index, self.dropped, self.dropped_diag = sector[kept], sector[~kept], sector[dd]
        r, c, v = L.rows, L.indices, L.data  # the sector block's entries, split by masks
        self.closed = not np.any(v[kept[r] & ~kept[c]])
        n = len(self.index)
        self.P = _distinct(self.index // d)  # the rows of index: P when index is a product P x Q
        to = np.where(kept, np.cumsum(kept) - 1, n)
        m = kept[c] & (kept[r] | dd[r])
        self.M = SparseMatrix.from_entries(to[r[m]], to[c[m]], v[m], (n + 1, n))
        out = dd[r] & ~kept[c]  # column sums of L[dropped diagonal, dropped]
        leak = np.abs(np.bincount(c[out], v[out].real, len(sector)) + 1j * np.bincount(c[out], v[out].imag, len(sector)))
        self._leak = np.max(leak, initial=0.0), 1e-12 * np.max(np.abs(v), initial=0.0)

    def hull(self) -> "_ForwardSector":
        """This sector on the hull P x P (see the class), or itself where index is P x P already.

        One block of the forward sector with the hull, split by masks, and
        no closure: the hull's entries outside the forward sector stay 0.
        """
        if len(self.index) == len(self.P) ** 2:
            return self
        box = (self.P[:, None] * self.dim + self.P).reshape(-1)
        sector = _distinct(self.index, self.dropped, box)
        hull = copy.copy(self)
        hull._split(self.S.block(sector), sector, np.isin(sector, box))
        return hull

    @property
    def readout_block(self) -> SparseMatrix:
        """L[index, index], the rows of M above the flux row (views of its arrays)."""
        n, M = len(self.index), self.M
        end = M.indptr[n]
        return SparseMatrix(M.indptr[: n + 1], M.indices[:end], M.data[:end], (n, n))

    def check_leak(self) -> None:
        """NumericalError unless the columns of L[dropped diagonal, dropped] sum to zero, to 1e-12 max|L|."""
        leak, bound = self._leak
        if leak > bound:
            raise NumericalError(
                "generator does not preserve the trace of the dropped entries "
                f"(max column sum {leak:.3e})"
            )

    def check_trace_rows(self) -> None:
        """NumericalError unless the trace rows of M sum to zero over every column.

        The trace rows are the diagonal entries' and the flux row f; to
        1e-12 max|M|.  With check_leak, the sector's trace plus p is then
        conserved, so a pass that carries no p has p = tr rho0 - tr X exactly
        and no trace to guard.
        """
        rows = np.append(self.index % (self.dim + 1) == 0, True).astype(float)
        loss = np.abs(self.M.adjoint_dot(rows))
        if np.max(loss, initial=0.0) > 1e-12 * np.max(np.abs(self.M.data), initial=0.0):
            raise NumericalError(
                "generator does not preserve the trace of the readout sector "
                f"(max column sum {np.max(loss):.3e})"
            )


class _HermitianCoordinates:
    """Real coordinates (y, p) of the Hermitian matrices on a readout sector, for the stepped passes.

    V maps y to vec(rho)[index]: its first n columns are unitary (the n_diag
    diagonal entries, then (e_ij + e_ji)/sqrt(2) and i (e_ij - e_ji)/sqrt(2)
    per pair i < j), its last, p's, is zero.  The real block
    [[V^H L[index, index] V, 0], [f V, 0]] = W M V, W = [V^H | e_n], is what
    the steppers step, scipy CSR, contiguous with sorted indices for fast
    matvecs.  NumericalError if W M V has an imaginary part beyond
    1e-12 max|M| (L does not keep rho Hermitian on the sector), then if the
    dropped entries lose trace (_ForwardSector.check_leak).
    """

    def __init__(self, fwd: _ForwardSector):
        index, d, n = fwd.index, fwd.dim, len(fwd.index)
        self.index, self.dropped_diag, self.dim = index, fwd.dropped_diag, d
        i, j = np.divmod(index, d)
        diag, upper = np.flatnonzero(i == j), np.flatnonzero(i < j)
        lower = np.searchsorted(index, _transposed(index[upper], d))
        self.n_diag = n_diag = len(diag)
        n_up, rt = len(upper), np.sqrt(0.5)
        pairs = n_diag + np.arange(n_up)
        values = np.concatenate([np.ones(n_diag), np.full(2 * n_up, rt), np.full(n_up, 1j * rt), np.full(n_up, -1j * rt)])
        rows = np.concatenate([diag, upper, lower, upper, lower])
        cols = np.concatenate([np.arange(n_diag), pairs, pairs, pairs + n_up, pairs + n_up])
        self.V = SparseMatrix.from_entries(rows, cols, values, (n, n + 1))
        W = SparseMatrix.from_entries(np.append(cols, n), np.append(rows, n), np.append(values.conj(), 1.0), (n + 1, n + 1))
        block = _scipy(W) @ _scipy(fwd.M) @ _scipy(self.V)
        if np.max(np.abs(block.data.imag), initial=0.0) > 1e-12 * np.max(np.abs(fwd.M.data), initial=0.0):
            raise NumericalError("generator does not preserve Hermiticity")
        fwd.check_leak()
        self.block = block.real.copy()
        self.block.eliminate_zeros()
        self.block.sort_indices()

    def coords(self, rho: np.ndarray) -> np.ndarray:
        """Coordinates (y, p) of a Hermitian d x d matrix supported on the forward sector."""
        x = rho.reshape(-1)
        y = self.V.adjoint_dot(x[self.index]).real
        y[-1] = x[self.dropped_diag].real.sum()
        return y

    def matrix(self, y: np.ndarray) -> np.ndarray:
        """The d x d matrix with coordinates y on the readout sector, zero elsewhere."""
        full = np.zeros(self.dim**2, dtype=complex)
        full[self.index] = self.V.dot(y)
        return full.reshape(self.dim, self.dim)


def _power(E: np.ndarray, b: int) -> np.ndarray:
    """E^b for b a power of two, by log2 b squarings into two ping-pong buffers."""
    if b == 1:
        return E
    buffers = (np.empty_like(E), np.empty_like(E))
    for i in range(b.bit_length() - 1):
        E = np.matmul(E, E, out=buffers[i % 2])
    return E


def _sector_steps(block, dt: float, method: str, b: int = 1):
    """(step, b-step) of size dt, x -> exp(B dt) x, on the invariant sector block B, for _row_groups.

    B is the real readout block (Hermitian coordinates and p) or, for the
    Heisenberg pass, the adjoint of the complex operand block, scipy CSR.
    expm builds the dense E = exp(B dt) once, steps a node by E x and a
    block Y by Y (E^b)^T, E^b by log2 b squarings.  rk4 steps r(h B) x in
    Horner form, four sparse matvecs a node, with no b-step.
    """
    if method == "expm":
        from scipy import linalg  # imported here: rk4 runs never need it

        E = linalg.expm(block.toarray() * dt)
        power = _power(E, b).T
        return (lambda x, out: np.matmul(E, x, out=out)), (lambda Y, out: np.matmul(Y, power, out=out))

    def step(x, out):
        y = x
        for k in (4, 3, 2, 1):  # r(h B) x in Horner form, as _rk4_factor
            y = x + (dt / k) * (block @ y)
        out[...] = y
        return out

    return step, None


def _nodes(form, n: int):
    """Nodes 0 .. n-1 of the form's forward pass, from its start by its steps (_row_groups)."""
    return _row_groups(form.start, n, form.b, *form.steps)


def _first_nodes(start: np.ndarray, steps, b: int) -> np.ndarray:
    """Nodes 0 .. b of a pass from start by steps, copied out of its row groups (b nodes, then one)."""
    return np.concatenate([Y.copy() for Y in _row_groups(start, b + 1, b, *steps)])


def _phases(p: int, q: int) -> np.ndarray:
    """p x q test matrix exp(2 pi i g k), g = 0.618.., k the flat index: no two phases alike."""
    return np.exp(2j * np.pi * 0.6180339887498949 * np.arange(p * q)).reshape(p, q)


def _kronecker_factors(no_jump, L: SparseMatrix, P: np.ndarray, Q: np.ndarray):
    """(A[P, P], B[Q, Q]) of no_jump = (A, B), Generator.no_jump(), if L, the block of the sector P x Q, is their Kronecker sum, else None.

    That holds when no jump lands inside the sector, so L acts there as
    X -> A X + X B on the P x Q matrix X: the sector block must equal
    A (x) I + I (x) B^T to 1e-12 max|L|, checked as
    L vec(Z) = vec(A Z + Z B) for Z = _phases(|P|, |Q|).
    """
    A, B = no_jump
    A, B = A[np.ix_(P, P)], B[np.ix_(Q, Q)]
    Z = _phases(len(P), len(Q))
    err = np.max(np.abs(L.dot(Z.reshape(-1)) - (A @ Z + Z @ B).reshape(-1)), initial=0.0)
    return None if err > 1e-12 * np.max(np.abs(L.data), initial=0.0) else (A, B)


def _eigenphases(A0: np.ndarray):
    """(lam, U) with i A0 = U diag(lam) U^H, so exp(-A0 t) = U diag(exp(i lam t)) U^H."""
    return np.linalg.eigh(1j * A0)


def _eigenbases(factors, power: int = 1):
    """((alpha, V, V^-1) of A[P, P], (lam, U) of A[Q0, Q0], kappa(V)), or None.

    factors are the Kronecker factors (A, B) of the readout sector P x P and
    (A0, _) of the operand sector Q0 x P.  Checked, each to 1e-12 of the
    largest entry: A0 = A[Q0, Q0] is anti-Hermitian, so K_0 is unitary and
    i A0 = U diag(lam) U^H (_eigenphases); B = A^H, so K_R = K_L^H and
    A = V diag(alpha) V^-1 gives B = V^-H diag(conj alpha) V^H.  One
    eigendecomposition serves the D form and the spectral form.  None also
    where kappa(V)^power exceeds SPECTRAL_CONDITION_LIMIT (a defective or
    nearly defective A; inf for a singular V): power 1 for the D form, 2
    for the spectral form.
    """
    (A, B), (A0, _) = factors
    if np.max(np.abs(A0 + A0.conj().T), initial=0.0) > 1e-12 * np.max(np.abs(A0), initial=0.0):
        return None
    if np.max(np.abs(B - A.conj().T), initial=0.0) > 1e-12 * np.max(np.abs(A), initial=0.0):
        return None
    alpha, V = np.linalg.eig(A)
    kappa = float(np.linalg.cond(V)) if len(V) else 1.0  # an empty basis (no readout rows)
    if not kappa**power <= SPECTRAL_CONDITION_LIMIT:  # inf for a singular V
        return None
    return (alpha, V, np.linalg.inv(V)), _eigenphases(A0), kappa


def _check_growth(step: str, dt: float, factors, hint: str) -> None:
    """NumericalError at set-up if a step factor of the no-jump spectrum exceeds STEP_FACTOR_LIMIT.

    The exact no-jump evolution never grows, and the passes stepped by these
    factors have no trace to drift, so the growth is caught here.
    """
    growth = max(np.abs(f).max(initial=0.0) for f in factors)
    if growth > STEP_FACTOR_LIMIT:
        raise NumericalError(
            f"{step} step at dt={dt} is unstable on the no-jump spectrum (a mode grows "
            f"by {growth:.6g} per step); {hint}"
        )


class _SeparableKernel:
    """The D form: its nodes are the powers g^k of the eigenvalues of K_L, its rows those of D.

    On the readout sector P x P, with Kronecker factors A and B = A^H, a
    step of rho[P, P] = W W^H is K_L W W^H K_L^H, K_L = exp(A dt) (A the
    no-jump part, the effective non-Hermitian Hamiltonian), so the pass
    steps the |P| x s factor W alone.  With A = V diag(alpha) V^-1
    (_eigenbases), K_L = V diag(g) V^-1, g = exp(alpha dt), so
    W_k = V diag(g^k) E, E = V^-1 W_0: node k is the vector g^k alone, |P|
    entries whatever s, stepped elementwise from ones by g and g^b, as the
    spectral form steps Z.
    A factor |g| above STEP_FACTOR_LIMIT is a NumericalError at set-up.
    The pass carries no p, which is tr rho0 - tr W_k W_k^H.

    C[j][k] = tr(D_j^H D_k), D_k = K_0^{-k} a[Q0, P] W_k, here rotated by
    U^H, the eigenbasis of i A[Q0, Q0] (_eigenphases), which leaves every
    trace unchanged: K_0^{-k} is then the phase exp(i lam t_k), for node
    start + r of a block exp(i lam start dt) times exp(i lam r dt) from a
    table of r = 0 .. b - 1, one product over all the block starts of a
    row group.  Entry (q, c) of U^H a[Q0, P] W_k is
    sum_i O_qi x_i E_ic, O = U^H a[Q0, P] V, so D_k flattened is x_k F,
    F[i, (q, c)] = O_qi E_ic: one product per group.  The monitor value
    Re tr(N W_k W_k^H), N = monitor[P, P] (None without a monitor), is
    Re(x_k^H M x_k), M = (V^H N V) o (conj(E) E^T).  No adjoint pass.
    """

    propagators, grid_stage = ("factored", "separable"), "forward"

    def __init__(self, sector, bases, W0: np.ndarray, a0: np.ndarray, rho0: np.ndarray, N, dt: float, b: int = 1):
        (alpha, V, V_inv), (self.lam, U), _ = bases
        self.sector = sector
        self.g = np.exp(dt * alpha)
        _check_growth("expm", dt, [self.g], "the generator's no-jump part is unsound")
        E = V_inv @ W0
        O = U.conj().T @ a0 @ V
        self.columns = (W0.shape[1], len(O) * W0.shape[1])
        self.F = (O.T[:, :, None] * E[:, None, :]).reshape(len(E), self.columns[1])
        self.M = None if N is None else ((V.conj().T @ N @ V) * (E.conj() @ E.T)).T
        self.dt, self.b = dt, b
        self.start, self.steps = np.ones(len(self.g), dtype=complex), _elementwise_steps(self.g, b)
        self.phases = np.exp(1j * np.outer(np.arange(b) * dt, self.lam))
        self._W = V, E, np.trace(rho0).real

    def state(self, x: np.ndarray):
        """(rho[P, P] = W W^H flattened, p = tr rho0 - tr W W^H) of the node x, W = V diag(x) E."""
        V, E, trace0 = self._W
        W = V @ (x[:, None] * E)
        rho = W @ W.conj().T
        return rho.reshape(-1), trace0 - np.trace(rho).real

    def rows(self, x: np.ndarray, start: int) -> np.ndarray:
        """D_k flattened (|Q0| s) for the nodes k = start, start + 1, .. of the group x, blocks of b nodes from start."""
        rows, q = len(x), len(self.lam)
        D = (x @ self.F).reshape(rows, q, self.columns[0])
        turns = np.exp(1j * np.arange(start, start + rows, self.b)[:, None] * self.dt * self.lam)
        phase = turns[:, None] * self.phases[:rows]  # node start + j b + r: turn j times phase r
        D *= phase.reshape(phase.shape[0] * phase.shape[1], q)[:rows, :, None]
        return D.reshape(rows, -1)

    def readout(self, n: int):
        """Yield what _dense_readout does per group: D rows, monitor values, traces None."""
        start = 0
        for x in _nodes(self, n):
            # Re(conj(x) v) = x.re v.re + x.im v.im, summed over the float views
            m = None if self.M is None else np.einsum("ij,ij->i", x.view(float), (x @ self.M).view(float))
            yield self.rows(x, start), m, None
            start += len(x)

    def smoke(self, nodes: np.ndarray, u1: np.ndarray):
        """C(j, k) of the nodes 0 .. b, tr(D_j^H D_k) from their rows; no adjoint checks."""
        D = self.rows(nodes, 0)
        return (lambda j, k: np.vdot(D[j], D[k])), []

    def grid(self, X: np.ndarray) -> dict:
        """The grid's arrays: the stack is D."""
        return {"D": X}


def _rk4_factor(z: np.ndarray) -> np.ndarray:
    """r(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: an RK4 step of x' = B x is r(h B) x."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


class _SpectralKernel:
    """The RK4 U/X form in eigen coordinates: Z by elementwise powers, X and U by their factors.

    L acts on the readout sector P x P as Z -> A Z + Z B and on the operand
    sector Q0 x P as Y -> A0 Y + Y B (_kronecker_factors, A0 = A[Q0, Q0]).
    With the bases A = V diag(alpha) V^-1, B = A^H = V^-H diag(beta) V^H,
    beta = conj(alpha), and A0 = U diag(nu) U^H, nu = -i lam (_eigenbases),
    an RK4 step r(h L) multiplies entry (i, j) of V^-1 Z V^-H by
    G_ij = r(h (alpha_i + beta_j)) and entry (q, j) of U^H Y V^-H by
    H_qj = r(h (nu_q + beta_j)).  So node k of the forward pass is
    Z_k = Z_0 o G^k, Z_0 = V^-1 rho0[P, P] V^-H, its operand
    U^H a rho(t_k) V^-H is X_k = M Z_k, M = U^H a[Q0, P] V, and row tau of
    the adjoint stack is U_tau = N o H^tau, N = (V^H a[Q0, P]^H U)^T =
    conj(M): U_tau . X_k = Tr[a' Phi_tau(a rho(t_k))], as the V^-H factors
    cancel inside the trace.  The grid keeps N, H, M, Z_0, G and b, no
    stack: its lag sums make the rows of U (grid.spectral_blocks) and of X
    (CorrelationGrid.operand_blocks) as they read them.  So the pass makes
    no operand: it reads each node only through U_tau . X_k =
    (M^T U_tau) . Z_k, the smoke check's pairing and, with U_0 = N, the
    resolution column X_k . N that grid() needs.  The monitor value is
    Re tr(N' rho) = Re sum((V^H N' V)^T o Z_k) for N' = monitor[P, P].

    The exact no-jump evolution never grows (Re(alpha_i + beta_j) <= 0 and
    Re(nu_q + beta_j) <= 0), so a factor |G_ij| or |H_qj| above
    STEP_FACTOR_LIMIT = 1 + 1e-12 is an unstable step, a NumericalError at
    set-up: these passes have no trace to drift.  As |G|, |H| <= 1, every |C[j][k]| is at most
    T = sum_qj |N_qj| (|M| |Z_0|)_qj, the size of the terms of C[0][0], and
    the change of basis leaves roundoff of about eps kappa T in every entry
    (kappa = kappa(V)^2, the product of the condition numbers of the three
    bases), however small the entry: grid() tells
    whether the grid stands far enough above it.
    """

    propagators, columns, grid_stage = ("spectral", "spectral"), (None, None), "forward"

    def __init__(self, sector, bases, a0: np.ndarray, rho0: np.ndarray, monitor, dt: float, b: int):
        (alpha, V, V_inv), (lam, U), kappa = bases
        self.sector, self.b, P = sector, b, sector.P
        self.G = _rk4_factor(dt * (alpha[:, None] + alpha.conj())).reshape(-1)  # beta = conj(alpha)
        self.H = _rk4_factor(dt * (-1j * lam[:, None] + alpha.conj())).reshape(-1)
        _check_growth("RK4", dt, [self.G, self.H], "reduce dt")
        self.start = self.Z0 = (V_inv @ rho0[np.ix_(P, P)] @ V_inv.conj().T).reshape(-1)
        self.steps = _elementwise_steps(self.G, b)
        self.M = U.conj().T @ a0 @ V
        self.N = self.M.conj().reshape(-1)
        self.resolution = self.paired(self.N[None])[0]  # X_k . N = Z_k . resolution
        self.mon = None if monitor is None else (V.conj().T @ monitor @ V).T.reshape(-1)
        self._V = V, V.conj().T, np.trace(rho0).real
        p = len(V)
        T = np.abs(self.N) @ (np.abs(self.M) @ np.abs(self.Z0).reshape(p, p)).reshape(-1)
        self.floor = np.finfo(float).eps * kappa**2 * T

    def state(self, z: np.ndarray):
        """(rho[P, P] = V Z V^H flattened, p = tr rho0 - tr rho[P, P]) of the eigen coordinates z."""
        V, V_H, trace0 = self._V
        rho = V @ z.reshape(len(V), len(V)) @ V_H
        return rho.reshape(-1), trace0 - np.trace(rho).real

    def paired(self, U: np.ndarray) -> np.ndarray:
        """M^T U_tau flattened (|P|^2) for rows U_tau of U: (M^T U_tau) . Z_k = U_tau . X_k."""
        q, p = self.M.shape
        return np.matmul(self.M.T, U.reshape(len(U), q, p)).reshape(len(U), -1)

    def readout(self, n: int):
        """Yield per group the resolution column X_k . N (one column), monitor values, traces None."""
        for Z in _nodes(self, n):
            yield (Z @ self.resolution)[:, None], None if self.mon is None else (Z @ self.mon).real, None

    def smoke(self, nodes: np.ndarray, u1: np.ndarray):
        """C(j, k) = (M^T U_{j-k}) . Z_k of the nodes 0 .. b, and U_b = N o H^b (by squaring) against U_{b-1} o H.

        The rows of U come as the grid makes them (spectral_blocks).
        """
        b = self.b
        U = np.concatenate([block.copy() for block in spectral_blocks(self.N, self.H, [(0, b), (b, b + 1)])])
        MU = self.paired(U)
        return (lambda j, k: MU[j - k] @ nodes[k]), [("adjoint E^b", U[-1] - U[-2] * self.H)]

    def grid(self, column: np.ndarray):
        """The grid's factors N, H, M, Z_0, G, b and n_t, or None where X does not stand above its roundoff.

        It does when eps kappa T is at most SPECTRAL_RESOLUTION of
        max|C[j][k]| = max_k |U_0 . X_k| (Cauchy-Schwarz, for a positive
        rho0), the largest entry of the resolution column, so that the grid
        matches stepped RK4 to that share of its largest entry; a run cut a
        few steps after a photonless start is not.
        """
        if self.floor <= SPECTRAL_RESOLUTION * np.abs(column).max(initial=0.0):
            # N o H^tau is the conjugated row already
            return {"N": self.N, "H": self.H, "M": self.M, "Z0": self.Z0, "G": self.G, "b": self.b,
                    "n_t": len(column)}
        return None


def _kernel(gen, fwd: _ForwardSector, rho0: np.ndarray, a_mat, monitor, config: EvolutionConfig, b: int):
    """The run's D form (expm) or spectral form (rk4), set up and checked, or None.

    The form steps the product hull P x P of the readout rows P
    (_ForwardSector.hull), its sector.  None unless the operand sector is
    Q0 x P (empty for a dark or photonless start), nothing outside the hull
    flows into it, both sector blocks are Kronecker sums
    (_kronecker_factors) and _eigenbases holds, and unless
    the kernel's own condition holds: for the D form a positive
    semidefinite rho0[P, P] = W W^H (to 1e-12 of its largest eigenvalue;
    W = E sqrt(e) over the eigenpairs (e, E) above 1e-14 of the largest,
    s columns, none if rho0[P, P] = 0), for the spectral form
    kappa(V)^2 <= SPECTRAL_CONDITION_LIMIT.
    Then its budget (_check_budget: the stack D, 16 |Q0| s bytes per node,
    or the spectral form's resolution column, 16 bytes per node, with its
    factors and row blocks) and its trace checks (check_leak,
    check_trace_rows), which stand in for the trace guard its pass does not
    have.
    """
    if not fwd.product:
        return None
    fwd = fwd.hull()
    if not fwd.closed:
        return None
    P, Q0, expm = fwd.P, fwd.Q0, config.method == "expm"
    no_jump = gen.no_jump()
    factors = (_kronecker_factors(no_jump, fwd.readout_block, P, P), _kronecker_factors(no_jump, fwd.Sa, Q0, P))
    bases = None if None in factors else _eigenbases(factors, 1 if expm else 2)
    if bases is None:
        return None
    W = None
    if expm:
        e, E = np.linalg.eigh(rho0[np.ix_(P, P)])
        top = e.max(initial=0.0)
        if e.min(initial=0.0) < -1e-12 * top:
            return None
        keep = e > 1e-14 * top
        W = E[:, keep] * np.sqrt(e[keep])
    if W is None:  # N, H, M and a block of X; Z_0, G and a block of Z
        factors = 16 * ((3 + b) * len(fwd.adj) + (2 + b) * len(P) ** 2)
        _check_budget(config, 16, "resolution column", factors=factors)
    else:
        _check_budget(config, 16 * len(Q0) * W.shape[1])
    fwd.check_leak()
    fwd.check_trace_rows()
    a0, N = a_mat[np.ix_(Q0, P)], None if monitor is None else monitor[np.ix_(P, P)]
    if W is None:
        return _SpectralKernel(fwd, bases, a0, rho0, N, config.dt, b)
    return _SeparableKernel(fwd, bases, W, a0, rho0, N, config.dt, b)


def _taylor_step(f, x: np.ndarray, h: float, terms=None) -> np.ndarray:
    """Reference step of the linear map f: x + sum_k (h F)^k x / k! by plain summation.

    With terms given, exactly k = 1 .. terms (four terms are the RK4 step
    polynomial r(h F)); else up to the first term below 1e-16 of max|x|,
    the exponential exp(h F) x (small h only).
    """
    out = x.copy()
    term = x
    scale = max(np.max(np.abs(x), initial=0.0), 1e-300)
    for k in range(1, (terms or 59) + 1):
        term = (h / k) * f(term)
        out = out + term
        if terms is None and np.max(np.abs(term), initial=0.0) < 1e-16 * scale:
            break
    return out


def _smoke_check(gen, form, rho0, a_mat, config: EvolutionConfig):
    """Cross-validate S and the run's correlation form; return the largest difference.

    S of the form's sector, which the sectors and forms are built from, must match the
    generator's actions to 1e-12 max|S| on the full matrix Z = _phases(d, d):
    S vec(Z) = vec(apply(Z)) and S^H vec(Z) = vec(apply_adjoint(Z)), the
    adjoint duality.  The references are steps of size dt by matvecs with S
    and S^H: the RK4 step polynomial r(h S) itself (_taylor_step with four
    terms), or for expm the Taylor sum to roundoff.  Every form runs the
    same checks on its nodes 0 .. b from its own pass (_first_nodes): node
    1 (state) on every entry but the dropped ones, and p against the
    reference's dropped diagonal sum, so the readout sector's closure, the
    form's block, factors or eigenbases and p are checked at runtime; node
    b, made by the power that steps a blocked pass, against node b - 1
    stepped once by the form;
    the form's own checks (its adjoint steps, and for the stepped form the
    operand map at node b); and its C[1][0], C[1][1], C[b][0] and
    C[b][1] against ((R^H)^(j-k) a) . vec(a rho(t_k)) for the reference step
    R on the sector's operand block Sa = S[adj, adj] (C[b][1] because a photonless
    start has a rho0 = 0, and C[j][0] = 0 checks no phase); for expm n
    steps of R^H run in substeps of at most 4 / ||S_a^H||_1 (e^4 bounds the
    Taylor sum's cancellation).
    """
    fwd = form.sector
    S, adj, Sa = fwd.S, fwd.adj, fwd.Sa
    Z = _phases(gen.dim, gen.dim)
    for name, M, action in (("forward", S.dot, gen.apply), ("adjoint", S.adjoint_dot, gen.apply_adjoint)):
        err = float(np.max(np.abs(M(Z.reshape(-1)) - action(Z).reshape(-1))))
        if err > 1e-12 * np.max(np.abs(S.data), initial=0.0):
            raise NumericalError(
                f"superoperator and generator disagree on the {name} smoke test "
                f"(max diff {err:.3e} > 1e-12 max|L|); the generator is unsound"
            )
    h, terms = config.dt, (4 if config.method == "rk4" else None)
    ref_f = _taylor_step(S.dot, rho0.reshape(-1), h, terms)
    a = a_mat.reshape(-1)[adj]
    norm = np.bincount(Sa.rows, np.abs(Sa.data), len(adj)).max(initial=0.0)  # ||S_a^H||_1

    def adjoint_steps(u, n):  # (R^H)^n u
        m = n if terms else int(np.ceil(n * h * norm / 4))
        for _ in range(m):
            u = _taylor_step(Sa.adjoint_dot, u, n * h / m, terms)
        return u

    b = form.b
    nodes = _first_nodes(form.start, form.steps, b)
    rho, p = form.state(nodes[1])
    diff_f = -ref_f
    diff_f[fwd.index] += rho
    diff_f[fwd.dropped] = 0.0
    # on the operand sector: y_k = vec(a rho(t_k)) for k = 0, 1 and
    # u_m = (R^H)^m a for m = 1, b - 1, b
    y0, y1 = ((a_mat @ r.reshape(rho0.shape)).reshape(-1)[adj] for r in (rho0, ref_f))
    u1 = adjoint_steps(a, 1)
    u = adjoint_steps(u1, b - 2) if b > 1 else a
    C, adjoint = form.smoke(nodes, u1)
    refs = [np.vdot(u1, y0), np.vdot(a, y1), np.vdot(adjoint_steps(u, 1), y0), np.vdot(u, y1)]
    kernel = [C(j, k) - ref for (j, k), ref in zip(((1, 0), (1, 1), (b, 0), (b, 1)), refs)]
    diffs = [
        ("forward", diff_f),
        ("forward dropped-population", p - ref_f[fwd.dropped_diag].real.sum()),
        ("forward E^b", nodes[b] - form.steps[0](nodes[b - 1], np.empty_like(nodes[b]))),
        *adjoint,
        (f"{form.propagators[1]} kernel", np.array(kernel)),
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


def _dense_readout(groups, herm: _HermitianCoordinates, monitor=None, a_map=None):
    """Yield (rows, monitor values, (traces, largest)) per row group of the stepped forward pass.

    Rows are the coordinates y of rho(t_k), or the operands a_map y; monitor
    values Re tr(N rho) = Re(N' V) y; traces the sum of the diagonal
    coordinates and p, exact as diagonal entries outside the sector stay 0;
    largest the largest |y| of each node.  For a positive semidefinite rho
    that is at most tr rho: a diagonal entry and p lie in [0, tr rho], and a
    pair's coordinates sqrt(2) Re, Im rho_ij are at most
    sqrt(2 rho_ii rho_jj) <= tr rho / sqrt(2).
    """
    # Re(V^T m) = Re(V^H conj(m)) on its support, so that the sum has the same
    # terms in the same order whatever else the sector holds; einsum sums each
    # row alone, where a real matrix-vector product rounds by the group's rows
    mon = None if monitor is None else herm.V.adjoint_dot(monitor.T.reshape(-1)[herm.index].conj()).real
    read = None if mon is None else np.flatnonzero(mon)
    for Y in groups:
        m = None if mon is None else np.einsum("ij,j->i", Y[:, read], mon[read])
        rows = Y if a_map is None else (a_map @ Y.T).T
        yield rows, m, (Y[:, : herm.n_diag].sum(axis=1) + Y[:, -1], np.abs(Y).max(axis=1))


class _SteppedForm:
    """The stepped U/X form: both passes stepped on the sector blocks by the steps of _sector_steps.

    The forward pass steps (y, p) on the readout sector, in the Hermitian
    coordinates built and checked first, guarded by the trace checks of
    _forward, and reads the operands a rho(t_k) through
    a_map = (a x I)[adj, index] V; the adjoint pass, in grid(), steps a on
    the operand block Sa.  a_map is made from the sector's entries of
    (a x I)[adj, index].  Both stacks, and for expm the dense propagators,
    are checked against the budget before a stepper is built.
    """

    columns, grid_stage = (None, None), "adjoint"

    def __init__(self, fwd: _ForwardSector, a_mat, rho0, monitor, config: EvolutionConfig, b: int):
        self.herm = herm = _HermitianCoordinates(fwd)
        self.sector, adj = fwd, fwd.adj
        _check_budget(config, 32 * len(adj), dense=((len(fwd.index) + 1, 8), (len(adj), 16)))
        self.start, self.monitor, self.b = herm.coords(rho0), monitor, b
        self.propagators = ("dense" if config.method == "expm" else "rk4",) * 2
        self.steps = _sector_steps(herm.block, config.dt, config.method, b)
        a_map = SparseMatrix.from_entries(*fwd.a_entries, (len(adj), len(fwd.index)))
        self.a_map = (_scipy(a_map) @ _scipy(herm.V)).tocsr()
        self.adjoint = _sector_steps(_scipy(fwd.Sa).conj().T.tocsr(), config.dt, config.method, b)
        self.a, self.a_mat = a_mat.reshape(-1)[adj], a_mat

    def state(self, y: np.ndarray):
        """(vec(rho)[index], p) of the coordinates y."""
        return self.herm.V.dot(y), y[-1]

    def readout(self, n: int):
        """Yield the operands a_map y, monitor values and trace checks per row group (_dense_readout)."""
        return _dense_readout(_nodes(self, n), self.herm, self.monitor, self.a_map)

    def smoke(self, nodes: np.ndarray, u1: np.ndarray):
        """C(j, k) = U_{j-k}^H a_map y_k of the nodes 0 .. b, the adjoint checks and a_map.

        U_0 .. U_b come from the adjoint pass's own row groups: U_1 against the
        reference step u1 of a, U_b against U_{b-1} stepped once.  The
        operands a_map y_b of node b, where b steps have reached the
        coordinates that one leaves near zero, against vec(a rho)[adj] for
        its state rho, under the kernel check's name.
        """
        U = _first_nodes(self.a, self.adjoint, self.b)
        X = (self.a_map @ nodes[[0, 1, self.b]].T).T
        operands = X[2] - (self.a_mat @ self.herm.matrix(nodes[-1])).reshape(-1)[self.sector.adj]
        adjoint = [("adjoint", U[1] - u1), ("adjoint E^b", U[-1] - self.adjoint[0](U[-2], np.empty_like(u1))),
                   (f"{self.propagators[1]} kernel", operands)]
        return (lambda j, k: np.vdot(U[j - k], X[k])), adjoint

    def grid(self, X: np.ndarray) -> dict:
        """The grid's arrays after the adjoint pass, U_0 = a evolved under the Hilbert-Schmidt adjoint.

        The dagger of the observable lives inside the inner product
        Tr[U' X], so the stack holds conj(U); the operand sector is invariant
        under L, so the adjoint restricted to it is exact on the pairing.
        """
        del self.steps  # the forward propagators are not needed by the adjoint pass
        Uc, at = np.empty_like(X), 0
        for U in _row_groups(self.a, len(X), self.b, *self.adjoint):
            np.conjugate(U, out=Uc[at : at + len(U)])
            at += len(U)
        return {"U": Uc, "X": X}


def _forward(values, config: EvolutionConfig):
    """Yield (rows, monitor values) per block or group of a forward pass, cut and guarded.

    values yields (rows, monitor values, checks) per row block or group of
    the nodes k = 0, 1, ... (_dense_readout, or a correlation form's
    readout).  The pass stops after t_max, or after the first node k > 0
    whose monitor value (None without a monitor) is below leak_tolerance,
    cutting its block or group there.  Up to the stop, checks are (traces,
    largest |coordinate|) of each node, and the pass aborts at the first
    node whose trace drifts from node 0's by more than TRACE_DRIFT_LIMIT,
    or whose largest coordinate exceeds its trace by more than that: rho is
    then no longer positive semidefinite, as an unstable step leaves the
    trace, a linear invariant of every step, unchanged.  The D and spectral forms have no
    checks (None); their set-up checks (check_trace_rows, and the spectral
    form's bound on its step factors) stand in for the guard.
    """
    start = trace0 = 0
    for rows, residuals, checks in values:
        stop = None
        if residuals is not None:
            below = np.flatnonzero(residuals < config.leak_tolerance)
            below = below[below + start > 0]
            if below.size:
                stop = below[0] + 1
                rows, residuals = rows[:stop], residuals[:stop]
        if checks is not None:
            traces, largest = (c[: len(rows)] for c in checks)
            trace0 = traces[0] if start == 0 else trace0
            drift = np.abs(traces - trace0)
            bad = np.flatnonzero(drift > TRACE_DRIFT_LIMIT)
            if bad.size:
                raise NumericalError(
                    f"trace drift {drift[bad[0]]:.3e} at step {start + bad[0]} exceeds "
                    f"{TRACE_DRIFT_LIMIT}; reduce dt or enlarge the truncated space"
                )
            bad = np.flatnonzero(largest > traces + TRACE_DRIFT_LIMIT)
            if bad.size:
                raise NumericalError(
                    f"coordinate {largest[bad[0]]:.3e} of rho exceeds its trace "
                    f"{traces[bad[0]]:.3e} at step {start + bad[0]}, so rho is not positive "
                    "semidefinite: the step is unstable; reduce dt"
                )
        yield rows, residuals
        if stop is not None:
            return
        start += len(rows)
        del rows  # released before the next block or group is computed


def _forward_stack(form, config: EvolutionConfig):
    """(stack, residual) of the form's forward pass: its rows up to the stop, and the last monitor value or None.

    The rows are those of D, the operands a rho(t_k) on the operand sector,
    or the resolution column, copied as each block or group is made into a
    stack over the full t_max; rows past the realized horizon are never
    written, so never resident.
    """
    X, n_t, residual = None, 0, None
    for rows, residuals in _forward(form.readout(config.n_max), config):
        if X is None:
            X = np.empty((config.n_max, rows.shape[1]), dtype=complex)
        X[n_t : n_t + len(rows)] = rows
        n_t += len(rows)
        if residuals is not None:
            residual = residuals[-1]
        del rows  # released before the next group is computed
    return X[:n_t], residual


def _check_budget(config: EvolutionConfig, node_bytes: int, stack="factor stacks", dense=(), factors=0) -> None:
    """NumericalError, before anything large is allocated, above max_grid_bytes.

    Counts the stack, named so in the message, over the full t_max,
    node_bytes per node (32 |R_a| for U and X, 16 |Q0| s for D, 16 for the
    spectral form's resolution column, 16 d^2 for the states evolve
    returns), the factors bytes that do not grow with t_max (the spectral
    form's eigen factors and its row blocks), and for expm the dense
    propagators of the stepped passes and their b-th powers: 2 itemsize n^2
    bytes per block, given as (n, itemsize) (8 for the real forward block,
    n = |R_f| + 1 with p; 16 for the complex adjoint one).  The D and
    spectral forms step elementwise and build no propagator.  Not counted:
    the row groups of every pass (grid._row_groups), in a buffer of
    GROUP_BYTES of nodes or two blocks, with the rows and monitor products
    read from them.  Called once per form: by _kernel for the D and spectral forms,
    by _SteppedForm and by evolve.  Method rk4 is advised only where dense
    blocks count.
    """
    stack_bytes = config.n_max * node_bytes
    dense_bytes = sum(2 * itemsize * n**2 for n, itemsize in dense) if config.method == "expm" else 0
    total = stack_bytes + factors + dense_bytes
    if total > config.max_grid_bytes:
        terms = [f"{stack} {stack_bytes / 2**20:.1f} MiB for n_t <= {config.n_max}"]
        advice = "a coarser dt or a shorter t_max"
        if factors:
            terms.append(f"eigen factors and row blocks {factors / 2**20:.1f} MiB")
        if dense_bytes:
            terms.append(f"dense expm blocks and their powers {dense_bytes / 2**20:.1f} MiB")
            advice = "a coarser dt, a shorter t_max or method rk4"
        raise NumericalError(
            f"run would need {total / 2**20:.1f} MiB ({', '.join(terms)}), above the "
            f"{config.max_grid_bytes / 2**20:.1f} MiB budget; use {advice}"
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
    whole, so the whole forward sector is propagated, in Hermitian
    coordinates (_HermitianCoordinates, whose checks run first).  rho0 must
    be Hermitian.  The states, 16 d^2 bytes each over t_max, and for expm
    the dense forward propagator and its b-th power are checked against
    max_grid_bytes before the first step.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    herm = _HermitianCoordinates(_ForwardSector(gen.superoperator(), rho0))
    _check_budget(config, 16 * herm.dim**2, "states", dense=((len(herm.index) + 1, 8),))
    b = _block_size(config.n_max)
    groups = _row_groups(herm.coords(rho0), config.n_max, b, *_sector_steps(herm.block, config.dt, config.method, b))
    states, mvals = [], []
    for Y, residuals in _forward(_dense_readout(groups, herm, monitor), config):
        states.extend(herm.matrix(y) for y in Y)
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
    sector only the readout sector and p are propagated.  The correlation
    form is the kernel that _kernel sets up, the D form (_SeparableKernel)
    for expm or the spectral U/X form (_SpectralKernel) for rk4, else the
    stepped U/X form (_SteppedForm), the only one that builds Hermitian
    coordinates.  One loop then runs whatever the form: the smoke check, the
    forward pass into a stack and form.grid of it.  The stack is the
    operands X (stepped form), D (D form), or the spectral form's resolution
    column, one entry per node, whose grid keeps factors instead of X; a
    spectral grid that does not resolve (None) is recomputed stepped, its
    set-up stage holding the attempt.  The sectors and their blocks are
    found once, by _ForwardSector; its operand block Sa serves the
    Kronecker check, the smoke check and the stepped adjoint pass.  The grid's run record (CorrelationGrid.run, keyed by RUN_KEYS)
    holds the sector sizes, the form's propagators joined by "/", its
    columns, the largest smoke-check difference and the seconds of set-up,
    smoke check, forward pass and the form's grid() call, which is the
    stage the form names (grid_stage: adjoint for the stepped U/X form,
    whose grid() runs the adjoint pass, else forward).  rho0 must be
    Hermitian.  Each form checks its stack over the full t_max, the
    spectral form its factors, and, for expm on the stepped path, the dense
    propagators and their b-th powers against max_grid_bytes
    (_check_budget) before anything large is allocated.
    """
    marks = [time.perf_counter()]  # stage boundaries
    rho0 = np.asarray(rho0, dtype=complex)
    d = gen.dim
    a_mat = np.asarray(a_op, dtype=complex)
    # vec(a rho) reads the entries i d + j of rho for every column i of a
    reads = (_distinct(np.nonzero(a_mat)[1])[:, None] * d + np.arange(d)).reshape(-1)
    if monitor is not None:
        reads = _distinct(reads, np.flatnonzero(monitor.T))
    fwd = _ForwardSector(gen.superoperator(), rho0, reads, a_mat)
    b = _block_size(config.n_max)
    kernel = _kernel(gen, fwd, rho0, a_mat, monitor, config, b)
    while True:
        form = kernel or _SteppedForm(fwd, a_mat, rho0, monitor, config, b)
        marks.append(time.perf_counter())
        smoke = _smoke_check(gen, form, rho0, a_mat, config)
        marks.append(time.perf_counter())

        X, residual = _forward_stack(form, config)
        marks.append(time.perf_counter())
        arrays = form.grid(X)
        if arrays is not None:
            break
        # the grid is too small for eigen coordinates to carry: the run is
        # redone stepped, whose roundoff follows the entries, and its set-up
        # stage includes this attempt
        kernel = None
        del marks[1:]
    marks.append(time.perf_counter())
    stage_s = {}
    for name, seconds in zip(("setup", "smoke", "forward", form.grid_stage), np.diff(marks).tolist()):
        stage_s[name] = stage_s.get(name, 0.0) + seconds
    facts = (len(form.sector.index), len(fwd.adj), "/".join(form.propagators), form.columns, smoke, stage_s)
    return CorrelationGrid(
        dt=config.dt,
        kappa=kappa,
        param_hash=param_hash,
        residual_excitation=residual,
        run=dict(zip(RUN_KEYS, facts)),
        **arrays,
    )
