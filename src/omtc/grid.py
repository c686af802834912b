"""The two-time correlation grid, kept in one of two factored forms.

The U/X form holds two stacks, O(n_t |R_a|) values, with
C[k+tau][k] = U[tau] . X[k]; the filter's per-lag sums come from them in
one pass over row blocks, one small Gram matrix per block.  The D form
holds one stack with C[j][k] = D[j]^H D[k]; its per-lag sums are two FFT
autocorrelations.  The O(n_t^2) triangle is never formed.  The binary dump
is format version 2 for U/X and 3 for D.  dynamics.two_time_correlation
builds either.
"""

import math
import struct

import numpy as np

from .errors import ConfigurationError

_GRID_MAGIC = b"OMTCGRID"
_UX_VERSION, _D_VERSION = 2, 3


def _block_size(n_max: int) -> int:
    """Rows per block: the power of two at or below sqrt(n_max), at most 64.

    It sets the row blocks of the propagation passes and of the lag sums.
    """
    return min(64, 1 << (math.isqrt(n_max).bit_length() - 1))


def _trapezoid_weights(h: float, n: int) -> np.ndarray:
    """Trapezoid weights of the nodes t_0 .. t_n of [0, t_n]."""
    w = np.full(n + 1, h)
    w[0] = w[n] = 0.5 * h
    return w


def _fast_length(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n, a length the FFT takes quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _autocorrelation(D: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_k q_k q_{k+tau} D[k+tau]^H D[k] for tau = 0 .. n, n + 1 = len(q), by FFT.

    Zero-padded to L >= 2n + 1 nodes the circular correlation is the linear
    one (Wiener-Khinchin): with F the FFT of one column of q D along the
    nodes, the lag sums are FFT(sum over columns of |F|^2)[tau] / L.  The
    columns are transformed 16 at a time, so the transient is O(16 L).
    """
    n = len(q) - 1
    L = _fast_length(2 * n + 1)
    power = np.zeros(L)
    for c in range(0, D.shape[1], 16):
        Y = np.zeros((min(16, D.shape[1] - c), L), dtype=complex)
        np.multiply(D[: n + 1, c : c + 16].T, q, out=Y[:, : n + 1])
        F = np.fft.fft(Y, axis=1)
        power += np.einsum("ij,ij->j", F.real, F.real) + np.einsum("ij,ij->j", F.imag, F.imag)
    return np.fft.rfft(power)[: n + 1] / L


class CorrelationGrid:
    """C[j][k] = <a'(t_j) a(t_k)> on a uniform mesh, kept as U and X or as D.

    U/X form: row tau of U is the conjugate of the observable a after tau
    adjoint steps and row k of X the regression operand a rho(t_k), both on
    the operand sector (for the spectral kernel in eigen coordinates, which
    pair the same), so C[k+tau][k] = U[tau] . X[k].  D form: row k of
    D is the flattened D_k of the separable kernel (see dynamics), so
    C[j][k] = conj(D[j]) . D[k].  The upper triangle is defined by
    conjugate symmetry.  Exactly one form is given.
    """

    def __init__(self, dt, U=None, X=None, kappa=0.0, param_hash=b"\0" * 32,
                 residual_excitation=None, sector_sizes=None, propagators=None,
                 smoke_max_diff=None, columns=None, stage_s=None, D=None):
        if D is None:
            self.U = np.asarray(U, dtype=complex)
            self.X = np.asarray(X, dtype=complex)
            self.D = None
            if self.X.ndim != 2 or self.U.shape != self.X.shape:
                raise ConfigurationError(
                    f"factor stacks must share one n_t x |R_a| shape, "
                    f"got {self.U.shape} and {self.X.shape}"
                )
        else:
            self.D = np.asarray(D, dtype=complex)
            self.U = self.X = None
            if U is not None or X is not None or self.D.ndim != 2:
                raise ConfigurationError("a grid holds either the stacks U and X or one n_t x m stack D")
        self.dt = float(dt)
        self.n_t = len(self.X if self.D is None else self.D)
        self.kappa = float(kappa)
        self.param_hash = param_hash
        self.residual_excitation = residual_excitation
        #: of the run that built the grid, not part of the dump, so None on a
        #: loaded grid: the (forward, operand) sector sizes, the (forward,
        #: operand) steppers, the largest smoke-check difference, the
        #: D form's (rank s of the start, width of D) or (None, None), and
        #: the seconds of each stage (setup, smoke, forward, and adjoint for
        #: the U/X form)
        self.sector_sizes = sector_sizes
        self.propagators = propagators
        self.smoke_max_diff = smoke_max_diff
        self.columns = columns
        self.stage_s = stage_s

    @property
    def horizon(self) -> float:
        return (self.n_t - 1) * self.dt

    @property
    def memory_bytes(self) -> int:
        return self.D.nbytes if self.D is not None else self.U.nbytes + self.X.nbytes

    def lag_sums(self, Gamma: float, n: int):
        """Per-lag sums (G, A) of the filter-weighted triangle on [0, t_n].

        With the trapezoid weights w_k of [0, t_n] and
        q_k = w_k exp(-Gamma (t_n - t_k)), G[tau] = sum_k q_k q_{k+tau}
        C[k+tau][k] for tau = 0 .. n; A is the same with Gamma = 0.  The D
        form takes them as the autocorrelations of q D and w D.
        """
        if self.D is not None:
            w = _trapezoid_weights(self.dt, n)
            q = w * np.exp(-Gamma * self.dt * np.arange(n, -1, -1))
            return _autocorrelation(self.D, q), _autocorrelation(self.D, w)
        # With m = n - tau, q_k q_{k+tau} = exp(-Gamma tau h) w_k w_{k+tau}
        # r^(m-k) for r = exp(-2 Gamma h), and w_{k+tau} = h except at k = m
        # (and at k = 0 when tau = 0).  So G[tau] = exp(-Gamma tau h)
        # (h U[tau] . S_m - (h/2) w_m U[tau] . X_m), minus (h/2) w_0 r^n
        # U[0] . X[0] at tau = 0, where S_m = sum_{k<=m} w_k r^(m-k) X_k; A
        # is the same with r = 1.  Over a row block m = m0 + i, i < b,
        # U[n - m] . S_m is r^(i+1) U[n - m] . S_{m0-1} plus row i of the
        # Gram matrix M[i, k] = U[n - m0 - i] . w_{m0+k} X_{m0+k} weighted by
        # r^(i-k) for k <= i, and its diagonal is the endpoint term.  M
        # does not depend on Gamma, so one product per block serves G and A,
        # each with its own carry S_{m0-1}.  No factor exceeds 1, so no
        # Gamma T can overflow.
        h = self.dt
        w = _trapezoid_weights(h, n)
        r = np.exp(-2.0 * Gamma * h)
        U, X = self.U[: n + 1], self.X[: n + 1]
        b = _block_size(n + 1)
        lag = np.abs(np.arange(b)[:, None] - np.arange(b))
        weights = (np.tril(r**lag), np.tril(np.ones((b, b))))
        decays = (r ** np.arange(1, b + 1), np.ones(b))  # r^(i+1)
        sums = (np.empty(n + 1, dtype=complex), np.empty(n + 1, dtype=complex))
        carries = [np.zeros(X.shape[1], dtype=complex) for _ in sums]
        buffer = np.empty((b, X.shape[1]), dtype=complex)
        for m0 in range(0, n + 1, b):
            rows = min(b, n + 1 - m0)
            lo, hi = n - m0 - rows + 1, n - m0 + 1
            wX = np.multiply(w[m0 : m0 + rows, None], X[m0 : m0 + rows], out=buffer[:rows])
            # row j of the block is lag tau = lo + j, so i = rows - 1 - j
            M = U[lo:hi] @ wX.T
            ends = 0.5 * np.diagonal(M[:, ::-1])
            for t, (s, W, decay) in enumerate(zip(sums, weights, decays)):
                W, decay = W[:rows, :rows], decay[:rows]
                s[lo:hi] = (M * W[::-1]).sum(axis=1) + decay[::-1] * (U[lo:hi] @ carries[t]) - ends
                carries[t] = decay[-1] * carries[t] + W[-1] @ wX
        G, A = sums
        corner = 0.5 * w[0] * (U[0] @ X[0])
        G[0] -= r**n * corner
        A[0] -= corner
        A *= h
        G *= h * np.exp(-Gamma * h * np.arange(n + 1))
        return G, A

    def zero_lag_sum(self, Gamma: float, n: int) -> complex:
        """G[0] of lag_sums(Gamma, n), sum_k q_k^2 C[k][k], from the diagonal alone.

        O(n |R_a|) or O(n m): a caller that needs only G[0] skips the lag sums.
        """
        h = self.dt
        q = _trapezoid_weights(h, n) * np.exp(-Gamma * h * np.arange(n, -1, -1))
        if self.D is not None:
            D = self.D[: n + 1]
            return complex(q**2 @ (D.real**2 + D.imag**2).sum(axis=1))
        return complex(q**2 @ (self.X[: n + 1] @ self.U[0]))

    def save(self, path):
        """Binary dump: 80-byte header, then the stacks, little endian.

        Version 2 holds U and X, the header's second uint32 the operand-sector
        size |R_a|; version 3 holds D, the second uint32 its width.
        """
        hash_bytes = self.param_hash
        if isinstance(hash_bytes, str):
            hash_bytes = bytes.fromhex(hash_bytes)
        residual = float("nan") if self.residual_excitation is None else self.residual_excitation
        version, stacks = (_UX_VERSION, (self.U, self.X)) if self.D is None else (_D_VERSION, (self.D,))
        header = _GRID_MAGIC + struct.pack(
            "<IIQddd", version, stacks[0].shape[1], self.n_t, self.dt, self.kappa, residual
        ) + hash_bytes
        with open(path, "wb") as fh:
            fh.write(header)
            for stack in stacks:
                fh.write(np.ascontiguousarray(stack, dtype="<c16"))

    @classmethod
    def load(cls, path) -> "CorrelationGrid":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _GRID_MAGIC:
                raise ConfigurationError(f"{path}: not a correlation dump")
            version, n_op, n_t, dt, kappa, residual = struct.unpack("<IIQddd", fh.read(40))
            if version not in (_UX_VERSION, _D_VERSION):
                raise ConfigurationError(f"{path}: unsupported dump version {version}")
            param_hash = fh.read(32)
            raw = np.fromfile(fh, dtype="<c16")
        n_stacks = 2 if version == _UX_VERSION else 1
        expected = n_stacks * n_t * n_op
        if len(raw) != expected:
            raise ConfigurationError(
                f"{path}: truncated dump ({len(raw)} of {expected} entries)"
            )
        stacks = raw.reshape(n_stacks, n_t, n_op)
        form = dict(zip(("U", "X"), stacks)) if n_stacks == 2 else {"D": stacks[0]}
        return cls(
            dt=dt,
            kappa=kappa,
            param_hash=param_hash,
            residual_excitation=None if np.isnan(residual) else residual,
            **form,
        )
