"""Open-system time evolution and two-time correlations.

The generator is the right-hand side of the master equation,

    L(rho) = -i [H, rho] + sum_c (r_c/2) (2 O rho O'^+ - O'^+ O rho - rho O'^+ O),

with O' = O for local channels and the ordered operator pair for cross
channels.  Generator.apply and apply_adjoint act on dense d x d matrices;
Generator.superoperator() is the sparse matrix of L on row-major
vectorized matrices.

Propagation runs only on invariant sectors of that matrix.  An index set
R of vec(rho) that L maps into itself (L[~R, R] = 0) can be propagated on
its own, exactly: exp(L dt) restricted to R is exp(L[R, R] dt).  The
forward sector is the closure under L of the support of vec(rho0); the
operand sector is the closure of the support of vec(a rho) for rho on the
forward sector.  Both follow from the sparsity pattern of L, so no
conservation law is assumed; for one optical excitation they are the
rho_11 + rho_00 blocks and the 0-1 coherence block.  Two backends step a
sector: classical RK4 with four sparse matvecs per step (the default) and
the dense propagator expm(L[R, R] dt) of the sector block.  At the start
of every correlation run both passes are cross-checked against
full-space Taylor references built from apply and apply_adjoint.

The two-time grid C[j][k] = <a'(t_j) a(t_k)> (j >= k) follows from the
quantum regression theorem: C[j][k] = Tr[a' Phi_{t_j-t_k}(a rho(t_k))].
Rather than re-propagating one operand per column, the trace is folded
into a single adjoint (Heisenberg) propagation of a', which turns the grid
into one inner product per entry on the operand sector; the two
formulations agree to roundoff because the adjoint of the RK4 step
polynomial is the RK4 step of the adjoint generator.
"""

import hashlib
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

from .errors import ConfigurationError, NumericalError
from .model import CrossChannel, DissipatorSpec, LocalChannel

#: abort threshold for trace drift along a trajectory
TRACE_DRIFT_LIMIT = 1e-4

_GRID_MAGIC = b"OMTCGRID"
_GRID_VERSION = 1


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


def check_step_size(dt: float, params) -> None:
    """Guard dt against the fastest coherent scale of the model."""
    scale = max(1.0, params.g_a, params.g_M, abs(params.delta_ac), abs(params.J))
    limit = 0.1 / scale
    if dt > limit + 1e-15:
        raise ConfigurationError(
            f"dt={dt} too coarse for couplings (need dt <= {limit:.4g})"
        )


class _Channel:
    """Prepared dense matrices for one dissipation channel."""

    __slots__ = ("half_rate", "lop", "rdag", "k", "kd", "lop_dag", "radj")

    def __init__(self, lop, rdag, k, half_rate):
        self.half_rate = half_rate
        self.lop = lop
        self.rdag = rdag
        self.k = k
        self.kd = k.conj().T
        self.lop_dag = lop.conj().T
        self.radj = rdag.conj().T


def _dense(op) -> np.ndarray:
    if sparse.issparse(op):
        return op.toarray()
    return np.asarray(op, dtype=complex)


class Generator:
    """Master-equation generator with Schroedinger and Heisenberg actions."""

    def __init__(self, H, dissipators: DissipatorSpec):
        self.H_sparse = H.tocsr() if sparse.issparse(H) else sparse.csr_matrix(H)
        self.dissipators = dissipators
        self.dim = self.H_sparse.shape[0]
        self._H = _dense(H)
        self._channels = []
        for ch in dissipators.channels:
            if ch.rate == 0.0:
                continue
            if isinstance(ch, LocalChannel):
                lop = _dense(ch.op)
                rdag = lop.conj().T
                k = rdag @ lop
            elif isinstance(ch, CrossChannel):
                lop = _dense(ch.op1)
                rdag = _dense(ch.op2).conj().T
                k = lop.conj().T @ _dense(ch.op2)
            else:
                raise ConfigurationError(f"unknown channel type {type(ch)!r}")
            self._channels.append(_Channel(lop, rdag, k, 0.5 * ch.rate))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a dense matrix rho."""
        H = self._H
        out = -1j * (H @ rho - rho @ H)
        for c in self._channels:
            out += c.half_rate * (
                2.0 * (c.lop @ rho @ c.rdag) - c.k @ rho - rho @ c.k
            )
        return out

    def apply_adjoint(self, A: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action, the Hilbert-Schmidt adjoint of apply.

        Satisfies Tr[M(A)^+ X] = Tr[A^+ L(X)] for all X.
        """
        H = self._H
        out = 1j * (H @ A - A @ H)
        for c in self._channels:
            out += c.half_rate * (
                2.0 * (c.lop_dag @ A @ c.radj) - c.kd @ A - A @ c.kd
            )
        return out

    def superoperator(self) -> sparse.csr_matrix:
        """Sparse matrix acting on row-major vectorized density matrices."""
        d = self.dim
        eye = sparse.identity(d, dtype=complex, format="csr")
        H = self.H_sparse
        L = -1j * (sparse.kron(H, eye) - sparse.kron(eye, H.T))
        for c in self._channels:
            lop = sparse.csr_matrix(c.lop)
            rdagT = sparse.csr_matrix(c.rdag.T)
            k = sparse.csr_matrix(c.k)
            L = L + c.half_rate * (
                2.0 * sparse.kron(lop, rdagT)
                - sparse.kron(k, eye)
                - sparse.kron(eye, k.T)
            )
        L = L.tocsr()
        L.eliminate_zeros()
        return L


def liouvillian_apply(H, dissipators: DissipatorSpec, rho: np.ndarray) -> np.ndarray:
    """One-shot L(rho); prefer a Generator when applying repeatedly."""
    if H.shape[0] != rho.shape[0] or rho.shape[0] != rho.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: H {H.shape}, rho {rho.shape}"
        )
    return Generator(H, dissipators).apply(np.asarray(rho, dtype=complex))


def heisenberg_apply(H, dissipators: DissipatorSpec, A: np.ndarray) -> np.ndarray:
    """One-shot adjoint action on an observable."""
    if H.shape[0] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"dimension mismatch: H {H.shape}, A {A.shape}")
    return Generator(H, dissipators).apply_adjoint(np.asarray(A, dtype=complex))


def _block(S, index: np.ndarray):
    """S[index][:, index] as CSR."""
    return S[index][:, index].tocsr()


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


class _SectorStepper:
    """One step of size dt on an invariant sector: x -> exp(B dt) x.

    B is the generator block on the sector, or its Hermitian adjoint for
    the Heisenberg pass.  rk4 takes four sparse matvecs per step; expm
    builds the dense propagator of the block once.
    """

    def __init__(self, block, dt: float, method: str, adjoint: bool = False):
        if adjoint:
            block = block.conj().T.tocsr()
        self.dt = dt
        self._expm = method == "expm"
        self._B = linalg.expm(block.toarray() * dt) if self._expm else block

    def __call__(self, x: np.ndarray) -> np.ndarray:
        B = self._B
        if self._expm:
            return B @ x
        h = self.dt
        k1 = B @ x
        k2 = B @ (x + 0.5 * h * k1)
        k3 = B @ (x + 0.5 * h * k2)
        k4 = B @ (x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _smoke_check(gen, S, sectors, steppers, x0s, config: EvolutionConfig):
    """Cross-validate the sector steppers against full-space Taylor references.

    The forward stepper starts from rho0 and is compared, on the whole
    d x d matrix, with exp(L h) built from gen.apply; this also checks at
    runtime that the forward sector is closed.  The adjoint stepper starts
    from the observable a and is compared with exp(L' h) built from
    gen.apply_adjoint on the operand sector, the only part of the
    Heisenberg flow that the grid pairs with the operands.  RK4 is checked
    over four steps of size dt/16, which keeps its per-step truncation far
    below the 1e-8 agreement threshold; the expm propagators are exact per
    step, so the ones the run uses are checked over one step of dt against
    16 Taylor substeps.
    """
    if config.method == "expm":
        n_steps, n_ref = 1, 16
    else:
        steppers = [
            _SectorStepper(_block(S, sector), config.dt / 16.0, "rk4", adjoint)
            for sector, adjoint in zip(sectors, (False, True))
        ]
        n_steps, n_ref = 4, 4
    d = gen.dim
    passes = (("forward", gen.apply), ("adjoint", gen.apply_adjoint))
    for (name, f), sector, stepper, x0 in zip(passes, sectors, steppers, x0s):
        x = x0.reshape(-1)[sector]
        for _ in range(n_steps):
            x = stepper(x)
        ref = x0
        for _ in range(n_ref):
            ref = _taylor_step(f, ref, n_steps * stepper.dt / n_ref)
        full = np.zeros(d * d, dtype=complex)
        full[sector] = x
        diff = full - ref.reshape(-1)
        if name == "adjoint":
            diff = diff[sector]
        err = float(np.max(np.abs(diff), initial=0.0))
        if err > 1e-8:
            raise NumericalError(
                f"integrator backends disagree on the {name} smoke test "
                f"(max diff {err:.3e}); the generator or step size is unsound"
            )


def _forward(step: _SectorStepper, rho0: np.ndarray, sector: np.ndarray,
             config: EvolutionConfig, monitor=None):
    """Yield (rho(t_k) on the forward sector, monitor value) for k = 0, 1, ...

    Stops after t_max, or after the first node k > 0 where the monitor
    expectation (if given) falls below leak_tolerance.  Aborts with a
    diagnostic when the trace drifts by more than TRACE_DRIFT_LIMIT
    (step-size instability or a leaking truncation).  The trace and the
    monitor are linear functionals on the sector; the trace is exact there
    because diagonal entries outside the sector stay exactly zero.
    """
    d = rho0.shape[0]
    on_diag = sector % (d + 1) == 0
    mon = None if monitor is None else _dense(monitor).T.reshape(-1)[sector]
    x = rho0.reshape(-1)[sector]
    trace0 = x[on_diag].sum().real
    n_max = int(np.floor(config.t_max / config.dt + 0.5)) + 1
    for k in range(n_max):
        drift = abs(x[on_diag].sum().real - trace0)
        if drift > TRACE_DRIFT_LIMIT:
            raise NumericalError(
                f"trace drift {drift:.3e} at step {k} exceeds {TRACE_DRIFT_LIMIT}; "
                "reduce dt or enlarge the truncated space"
            )
        residual = None if mon is None else (mon @ x).real
        yield x, residual
        if residual is not None and residual < config.leak_tolerance and k > 0:
            return
        if k < n_max - 1:
            x = step(x)


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
    below leak_tolerance.  Aborts with a diagnostic when the trace drifts
    by more than 1e-4 (step-size instability or a leaking truncation).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = gen.dim
    S = sparse.csr_matrix(gen.superoperator())
    sector = _closure(S, np.flatnonzero(rho0.reshape(-1)))
    step = _SectorStepper(_block(S, sector), config.dt, config.method)
    states, mvals = [], []
    for x, residual in _forward(step, rho0, sector, config, monitor):
        rho = np.zeros(d * d, dtype=complex)
        rho[sector] = x
        states.append(rho.reshape(d, d))
        mvals.append(residual)
    stopped = monitor is not None and len(states) > 1 and mvals[-1] < config.leak_tolerance
    return Trajectory(
        times=np.arange(len(states)) * config.dt,
        states=states,
        monitor_values=None if monitor is None else np.asarray(mvals),
        stopped_early=stopped,
    )


class CorrelationGrid:
    """Lower triangle of C[j][k] = <a'(t_j) a(t_k)> on a uniform mesh.

    Stored packed by columns: column k holds C[k+tau][k] for
    tau = 0 .. n_t-1-k, so fixed-lag slices are contiguous.  The upper
    triangle is defined by conjugate symmetry.
    """

    def __init__(self, dt, n_t, data, kappa=0.0, param_hash=b"\0" * 32,
                 residual_excitation=None, sector_sizes=None):
        self.dt = float(dt)
        self.n_t = int(n_t)
        self.data = data
        self.kappa = float(kappa)
        self.param_hash = param_hash
        self.residual_excitation = residual_excitation
        #: (forward, operand) sector sizes of the run that built the grid;
        #: not part of the dump, so None on a loaded grid
        self.sector_sizes = sector_sizes
        k = np.arange(self.n_t, dtype=np.int64)
        self._offsets = k * self.n_t - (k * (k - 1)) // 2
        if len(data) != self.n_t * (self.n_t + 1) // 2:
            raise ConfigurationError("packed data length does not match n_t")

    @property
    def horizon(self) -> float:
        return (self.n_t - 1) * self.dt

    @property
    def memory_bytes(self) -> int:
        return self.data.nbytes

    def column(self, k: int) -> np.ndarray:
        """View of C[k:][k] (lags 0 .. n_t-1-k)."""
        return self.data[self._offsets[k] : self._offsets[k] + self.n_t - k]

    def value(self, j: int, k: int) -> complex:
        if j < k:
            return np.conj(self.value(k, j))
        return complex(self.data[self._offsets[k] + (j - k)])

    def diagonal(self) -> np.ndarray:
        return self.data[self._offsets]

    def to_dense(self) -> np.ndarray:
        """Full Hermitian-symmetric n_t x n_t matrix (tests and small grids)."""
        out = np.empty((self.n_t, self.n_t), dtype=complex)
        for k in range(self.n_t):
            col = self.column(k)
            out[k:, k] = col
            out[k, k:] = np.conj(col)
        return out

    def _row_major_triangle(self) -> np.ndarray:
        out = np.empty(len(self.data), dtype=complex)
        pos = 0
        for j in range(self.n_t):
            ks = np.arange(j + 1)
            out[pos : pos + j + 1] = self.data[self._offsets[ks] + (j - ks)]
            pos += j + 1
        return out

    def save(self, path):
        """Binary dump: header + row-major lower triangle, little endian."""
        hash_bytes = self.param_hash
        if isinstance(hash_bytes, str):
            hash_bytes = bytes.fromhex(hash_bytes)
        residual = float("nan") if self.residual_excitation is None else self.residual_excitation
        header = _GRID_MAGIC + struct.pack(
            "<IIQddd", _GRID_VERSION, 0, self.n_t, self.dt, self.kappa, residual
        ) + hash_bytes
        tri = self._row_major_triangle().astype("<c16")
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(tri.tobytes())

    @classmethod
    def load(cls, path) -> "CorrelationGrid":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _GRID_MAGIC:
                raise ConfigurationError(f"{path}: not a correlation dump")
            version, _, n_t, dt, kappa, residual = struct.unpack("<IIQddd", fh.read(40))
            if version != _GRID_VERSION:
                raise ConfigurationError(f"{path}: unsupported dump version {version}")
            param_hash = fh.read(32)
            raw = np.frombuffer(fh.read(), dtype="<c16")
        expected = n_t * (n_t + 1) // 2
        if len(raw) != expected:
            raise ConfigurationError(
                f"{path}: truncated dump ({len(raw)} of {expected} entries)"
            )
        data = np.empty(expected, dtype=complex)
        k_ix = np.arange(n_t, dtype=np.int64)
        offsets = k_ix * n_t - (k_ix * (k_ix - 1)) // 2
        pos = 0
        for j in range(n_t):
            ks = np.arange(j + 1)
            data[offsets[ks] + (j - ks)] = raw[pos : pos + j + 1]
            pos += j + 1
        return cls(
            dt=dt,
            n_t=n_t,
            data=data,
            kappa=kappa,
            param_hash=param_hash,
            residual_excitation=None if np.isnan(residual) else residual,
        )


def config_hash(payload: str) -> bytes:
    """Stable 32-byte digest of a canonical parameter string."""
    return hashlib.sha256(payload.encode("utf-8")).digest()


#: columns per work unit in the grid build; fixed so results do not depend
#: on the worker count
_CHUNK_COLUMNS = 128


def two_time_correlation(
    rho0: np.ndarray,
    gen: Generator,
    config: EvolutionConfig,
    a_op,
    monitor=None,
    kappa: float = 0.0,
    threads: int = 1,
    param_hash: bytes = b"\0" * 32,
) -> CorrelationGrid:
    """Quantum-regression grid of <a'(t_j) a(t_k)> over the adaptive horizon.

    The horizon is t_max, shortened to the first grid node where the
    monitor expectation (if given) falls below leak_tolerance.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = gen.dim
    S = sparse.csr_matrix(gen.superoperator())
    a_mat = _dense(a_op)

    # (a x I) vec(rho) is the row-major vec(a rho).  The forward sector is
    # the closure of supp vec(rho0), the operand sector the closure of the
    # rows that (a x I) reaches from the forward sector.
    fwd = _closure(S, np.flatnonzero(rho0.reshape(-1)))
    a_map = sparse.kron(sparse.csr_matrix(a_mat), sparse.identity(d), format="csr")[:, fwd]
    a_map.eliminate_zeros()
    adj = _closure(S, np.flatnonzero(a_map.getnnz(axis=1)))
    a_map = a_map[adj]

    step = _SectorStepper(_block(S, fwd), config.dt, config.method)
    adjoint_step = _SectorStepper(_block(S, adj), config.dt, config.method, adjoint=True)
    if config.smoke_check:
        _smoke_check(gen, S, (fwd, adj), (step, adjoint_step), (rho0, a_mat), config)

    # forward pass: collect the regression operands a rho(t_k) on the
    # operand sector
    operands = []
    residual = None
    for x, residual in _forward(step, rho0, fwd, config, monitor):
        operands.append(a_map @ x)

    n_t = len(operands)
    packed_bytes = 16 * n_t * (n_t + 1) // 2
    if packed_bytes > config.max_grid_bytes:
        raise NumericalError(
            f"correlation grid would need {packed_bytes/2**20:.0f} MiB "
            f"(n_t={n_t}), above the {config.max_grid_bytes/2**20:.0f} MiB budget; "
            "use a coarser dt or a shorter t_max"
        )

    X = np.asarray(operands).reshape(n_t, len(adj))
    del operands

    # adjoint pass: C[j][k] = <U_tau, X_k> with U_0 = a evolved under the
    # Hilbert-Schmidt adjoint; the dagger of the observable lives inside
    # the inner product Tr[U' X].  The operand sector is invariant under L,
    # so the adjoint restricted to it is exact on the pairing.
    Uc = np.empty((n_t, len(adj)), dtype=complex)
    U = a_mat.reshape(-1)[adj]
    for i in range(n_t):
        Uc[i] = np.conj(U)
        if i < n_t - 1:
            U = adjoint_step(U)

    k_ix = np.arange(n_t, dtype=np.int64)
    offsets = k_ix * n_t - (k_ix * (k_ix - 1)) // 2
    packed = np.empty(n_t * (n_t + 1) // 2, dtype=complex)

    def fill(k_lo, k_hi):
        # one matrix product per chunk; column k keeps its first n_t - k lags
        block = X[k_lo:k_hi] @ Uc[: n_t - k_lo].T
        for k in range(k_lo, k_hi):
            m = n_t - k
            packed[offsets[k] : offsets[k] + m] = block[k - k_lo, :m]

    chunks = [
        (lo, min(lo + _CHUNK_COLUMNS, n_t)) for lo in range(0, n_t, _CHUNK_COLUMNS)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda c: fill(*c), chunks))
    else:
        for c in chunks:
            fill(*c)

    return CorrelationGrid(
        dt=config.dt,
        n_t=n_t,
        data=packed,
        kappa=kappa,
        param_hash=param_hash,
        residual_excitation=residual,
        sector_sizes=(len(fwd), len(adj)),
    )
