"""The two-time correlation grid, kept in one of two factored forms.

The U/X form pairs two O(n_t |R_a|) stacks, C[k+tau][k] = U[tau] . X[k];
the filter's per-lag sums come from them in one pass over row blocks, one
small Gram matrix per block.  Its spectral variant keeps the vectors N and
H of U[tau] = N o H^tau instead of U, and makes each block of U rows as the
pass reads it (adjoint_blocks).  A computed spectral grid keeps no stack at
all: X[k] = M (Z_0 o G^k) comes from M, Z_0, G and the forward pass's block
length b, made one row group of that pass at a time as the lag sums read
it (operand_blocks, _elementwise_blocks), with the bits the forward pass
would have stored.  A loaded U/X or spectral grid keeps no stack either:
it reads the rows of its stored X (and U) from the dump as the pass asks
for them, into one reused buffer of a block (_DumpedStack), and refuses a
dump that changed since it was loaded.  The D form holds one stack with
C[j][k] = D[j]^H D[k], loaded or computed; its per-lag sums are two FFT
autocorrelations, which need whole columns, made in one reused buffer.  The
O(n_t^2) triangle is never formed.  The binary dump is format version 2
for U and X, 4 for N, H and X (a computed spectral grid writes its X block
by block), and 3 for D.  dynamics.two_time_correlation builds any of them.
"""

import math
import os
import struct

import numpy as np

from .errors import ConfigurationError

_GRID_MAGIC = b"OMTCGRID"
#: bytes of the dump header: the magic, the "<IIQddd" fields and the 32-byte parameter hash
_HEADER_BYTES = 80
#: dump version: the stored arrays, in dump order; N and H are one row each
_FORMS = {2: ("U", "X"), 3: ("D",), 4: ("N", "H", "X")}
#: the arrays of a computed spectral grid, which dumps as version 4
_EIGEN = {"N", "H", "M", "Z0", "G"}
#: largest |H_qj| a spectral grid accepts: a larger step factor grows
STEP_FACTOR_LIMIT = 1.0 + 1e-12
#: the facts of the run that built a grid (CorrelationGrid.run), each JSON
#: serializable: the sizes of the readout and operand sectors, the
#: forward/operand steppers ("factored/separable", "spectral/spectral",
#: "dense/dense" or "rk4/rk4"), the D form's (rank s of the start, width
#: of D) or (None, None), the largest smoke-check difference, and the
#: seconds of each stage (setup, smoke, forward, and adjoint for the
#: stepped U/X form)
RUN_KEYS = ("forward_sector", "adjoint_sector", "propagator", "columns", "smoke_max_diff", "stage_s")


#: spans whose first rows spectral_blocks makes at a time
SPAN_CHUNK = 8
#: bytes of the row groups that _elementwise_blocks yields, each whole
#: blocks of b nodes (one block where a block alone is larger)
GROUP_BYTES = 1 << 17
#: columns of D that _autocorrelations transforms at a time
AUTOCORRELATION_COLUMNS = 16


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


def _autocorrelations(D: np.ndarray, *weights: np.ndarray) -> list:
    """sum_k q_k q_{k+tau} D[k+tau]^H D[k] for tau = 0 .. n, n + 1 = len(q), for each q of weights, by FFT.

    Zero-padded to L >= 2n + 1 nodes the circular correlation is the linear
    one (Wiener-Khinchin): with F the FFT of one column of q D along the
    nodes, the lag sums are FFT(sum over columns of |F|^2)[tau] / L.  Every
    weighting and every chunk of up to AUTOCORRELATION_COLUMNS columns is
    filled into one c x L buffer, c the smaller of that and the width of D,
    its tail zeroed, and transformed in place; that buffer is the transient.
    """
    n = len(weights[0]) - 1
    L = _fast_length(2 * n + 1)
    c = min(AUTOCORRELATION_COLUMNS, D.shape[1])
    Y = np.empty((c, L), dtype=complex)
    sums = []
    for q in weights:
        power = np.zeros(L)
        for at in range(0, D.shape[1], AUTOCORRELATION_COLUMNS):
            F = Y[: D.shape[1] - at]  # columns at .. at + len(F) - 1
            np.multiply(D[: n + 1, at : at + len(F)].T, q, out=F[:, : n + 1])
            F[:, n + 1 :] = 0.0
            np.fft.fft(F, axis=1, out=F)
            power += np.einsum("ij,ij->j", F.real, F.real) + np.einsum("ij,ij->j", F.imag, F.imag)
        sums.append(np.fft.rfft(power)[: n + 1] / L)
    return sums


def _squared_powers(g: np.ndarray, exponents) -> np.ndarray:
    """g^e elementwise for each e of exponents, one row each, by repeated squaring.

    About log2 max(e) squarings of g, and as many products, in place, on
    the rows that take each bit.  Never divides: with |g| <= 1 a power may
    underflow to 0.
    """
    e = np.array(exponents, dtype=np.int64)
    bits = (e[:, None] >> np.arange(int(e.max(initial=0)).bit_length())) & 1 == 1
    out = np.ones((len(e), len(g)), dtype=complex)
    for i in range(bits.shape[1]):
        if i:
            g = g * g
        np.multiply(out, g, out=out, where=bits[:, i, None])
    return out


def _power_table(g: np.ndarray, b: int) -> np.ndarray:
    """The b rows g^0 .. g^(b-1) elementwise, by cumulative products."""
    table = np.empty((b, len(g)), dtype=complex)
    table[0] = 1.0
    for i in range(1, b):
        np.multiply(table[i - 1], g, out=table[i])
    return table


def spectral_blocks(N: np.ndarray, H: np.ndarray, spans):
    """Yield the rows U[lo:hi] of U[tau] = N o H^tau for each (lo, hi) of spans.

    Each block is (N o H^lo) o H^i, i < hi - lo: H^lo from _squared_powers
    for SPAN_CHUNK spans at a time, so that the starts held do not grow
    with n_t (a row of two or more entries has the same bits in any chunk;
    numpy multiplies a one-column stack as one vector, whose SIMD body and
    tail round apart), H^i from one _power_table as long as the longest
    span.  N o H^0 is N itself.  Every block is a view of one buffer, which
    the next block overwrites, so the table and that buffer are the two
    blocks held, with the starts of one chunk.
    """
    spans = list(spans)
    table = _power_table(H, max(hi - lo for lo, hi in spans))
    out = np.empty_like(table)
    for at in range(0, len(spans), SPAN_CHUNK):
        chunk = spans[at : at + SPAN_CHUNK]
        starts = _squared_powers(H, [lo for lo, _ in chunk])
        np.multiply(N, starts, out=starts)
        for (lo, hi), start in zip(chunk, starts):
            yield np.multiply(start, table[: hi - lo], out=out[: hi - lo])
        del starts, start  # freed before the next chunk's are made


def _blocks(x0: np.ndarray, step, advance, n: int, b: int):
    """Yield x_0 .. x_{n-1}, x_{k+1} = step(x_k), as row blocks of b nodes; the last may be shorter.

    The first block is stepped node by node, and so is a later one without
    advance; with it, a later block is advance(Y, rows), each row b steps
    on from the same row of the block Y before (in place for the
    elementwise forms).
    """
    Y = None
    for start in range(0, n, b):
        rows = min(b, n - start)
        if Y is not None and advance is not None:
            Y = advance(Y, rows)
        else:
            x = x0 if Y is None else step(Y[-1])
            Y = np.empty((rows, len(x0)), dtype=x0.dtype)
            Y[0] = x
            for i in range(1, rows):
                Y[i] = step(Y[i - 1])
        yield Y


def _elementwise_power(g: np.ndarray, b: int) -> np.ndarray:
    """g^b elementwise, the factor that steps a block of b nodes."""
    return g**b


def _elementwise_blocks(x0: np.ndarray, g: np.ndarray, n: int, b: int):
    """Yield x0 g^k (elementwise) for k = 0 .. n-1 in row groups of whole blocks of b nodes.

    The first block is stepped node by node, and every later one is the
    block before times g^b, a product of the block's own shape, so a node
    has the bits of a pass that steps one block at a time.  A group holds
    as many blocks as fit in GROUP_BYTES, at least one, and the readers
    work once per group.  A block of one row (b = 1, or a last block of one
    node) is a group of its own: numpy takes other loops for one row (a
    vector product for a matrix product, an unbroadcast product for a
    one-column one), so its reader's rows keep the bits of a block alone.
    All groups are views of one buffer, which the next group overwrites.
    """
    if n < 1:
        return
    power = _elementwise_power(g, b)
    per = b * max(1, GROUP_BYTES // max(b * x0.nbytes, 1)) if b > 1 else 1
    Y = np.empty((min(per, n), len(x0)), dtype=x0.dtype)
    rows = at = min(b, n)  # the last block made is Y[at - rows : at]
    Y[0] = x0
    for i in range(1, rows):
        np.multiply(Y[i - 1], g, out=Y[i])
    for start in range(b, n, b):
        last, rows = Y[at - rows : at], min(b, n - start)
        if at + rows > len(Y) or rows == 1:
            yield Y[:at]
            at = 0
        np.multiply(last[:rows], power, out=Y[at : at + rows])
        at += rows
    yield Y[:at]


def _operands(M: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The rows M Z_k flattened (|Q0| |P|) of the rows Z_k (|P| x |P| flattened) of a block."""
    p = M.shape[1]
    return np.matmul(M, Z.reshape(len(Z), p, p)).reshape(len(Z), -1)


def _sliced(make_blocks, spans):
    """Yield the rows lo:hi, for each (lo, hi) of spans, of the row blocks that make_blocks() yields.

    Ascending spans take each block once; a span that starts before the
    block in hand makes the blocks again from the first.
    """
    start, block = 0, None  # block holds the rows start .. start + len(block) - 1
    for lo, hi in spans:
        if block is None or lo < start:
            blocks = make_blocks()
            start, block = 0, next(blocks)
        while start + len(block) <= lo:
            start, block = start + len(block), next(blocks)
        parts = [block[lo - start : hi - start]]
        while start + len(block) < hi:
            start, block = start + len(block), next(blocks)
            parts.append(block[: hi - start])
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)


def _identity(path_or_fd) -> tuple:
    """What tells a dump from its replacement or a rewrite: its inode, size and mtime."""
    st = os.stat(path_or_fd)
    return st.st_ino, st.st_size, st.st_mtime_ns


class _DumpedStack:
    """An n_t x width stack of a dump, read from the file as its rows are asked for.

    It holds the file's path, its identity as load saw it (_identity) and the
    byte offset of the stack, nothing that grows with n_t.
    """

    ndim = 2

    def __init__(self, path, identity: tuple, offset: int, shape: tuple):
        self.path, self.identity, self.offset, self.shape = path, identity, offset, shape

    def rows(self, spans):
        """Yield the rows lo:hi for each (lo, hi) of spans, read into one reused buffer.

        Each block is a view of that buffer, which the next block
        overwrites: a caller that keeps a row copies it.  A span that starts
        where the one before ended reads on (ascending blocks read the file
        in order), any other seeks first.  ConfigurationError if the file
        is not the one loaded, so a changed dump never gives other numbers.
        """
        spans = list(spans)
        row_bytes = 16 * self.shape[1]
        buffer = np.empty((max((hi - lo for lo, hi in spans), default=0), self.shape[1]), dtype="<c16")
        with open(self.path, "rb") as fh:
            if _identity(fh.fileno()) != self.identity:
                raise ConfigurationError(f"{self.path}: the dump changed after it was loaded")
            at = None
            for lo, hi in spans:
                if lo != at:
                    fh.seek(self.offset + row_bytes * lo)
                block = buffer[: hi - lo]
                if fh.readinto(block) != block.nbytes:
                    raise ConfigurationError(f"{self.path}: the dump changed after it was loaded")
                at = hi
                yield block


def _rows(stack, spans):
    """The rows lo:hi of a stack, in memory or dumped, for each (lo, hi) of spans."""
    if isinstance(stack, _DumpedStack):
        return stack.rows(spans)
    return (stack[lo:hi] for lo, hi in spans)


class CorrelationGrid:
    """C[j][k] = <a'(t_j) a(t_k)> on a uniform mesh, kept as U and X, as N, H and X, or as D.

    U/X form: row tau of U is the conjugate of the observable a after tau
    adjoint steps and row k of X the regression operand a rho(t_k), both on
    the operand sector, so C[k+tau][k] = U[tau] . X[k].  Spectral form: the
    same in eigen coordinates, which pair the same, with U[tau] = N o H^tau
    given by the vectors N and H, |H| <= 1, instead of a stack; X is stored
    or, for a computed grid, given by the |Q0| x |P| matrix M, the |P|^2
    vectors Z0 and G, the forward pass's block length b and n_t,
    X[k] = M (Z0 o G^k) (operand_blocks).  D form: row k of D is the
    flattened D_k of the separable kernel (see dynamics), so
    C[j][k] = conj(D[j]) . D[k].  The upper triangle is defined by
    conjugate symmetry.  Exactly one form is given.  A stored U or X is an
    array, or on a loaded grid the dump's stack (_DumpedStack), read block
    by block; memory_bytes counts only the arrays held.
    """

    def __init__(self, dt, U=None, X=None, kappa=0.0, param_hash=b"\0" * 32,
                 residual_excitation=None, run=None, D=None, N=None, H=None,
                 M=None, Z0=None, G=None, b=None, n_t=None):
        arrays = {"U": U, "X": X, "D": D, "N": N, "H": H, "M": M, "Z0": Z0, "G": G}
        for name, value in arrays.items():
            if not (value is None or isinstance(value, _DumpedStack)):
                value = np.asarray(value, dtype=complex)
            setattr(self, name, value)
        given = {name for name, value in arrays.items() if value is not None}
        self._kept = sorted(name for name in given if isinstance(getattr(self, name), np.ndarray))
        #: the dump format version of the form, which names its stored arrays
        self.version = 4 if given == _EIGEN else next((v for v, names in _FORMS.items() if given == set(names)), None)
        if self.version is None or (self.D is not None and self.D.ndim != 2):
            raise ConfigurationError(
                "a grid holds either the stacks U and X or one n_t x m stack D, "
                "or the vectors N and H with the stack X or the eigen factors M, Z0 and G"
            )
        if self.U is not None and (self.X.ndim != 2 or self.U.shape != self.X.shape):
            raise ConfigurationError(
                f"factor stacks must share one n_t x |R_a| shape, "
                f"got {self.U.shape} and {self.X.shape}"
            )
        if self.N is not None and self.X is not None and (
            self.X.ndim != 2 or not self.N.shape == self.H.shape == self.X.shape[1:]
        ):
            raise ConfigurationError(
                f"N and H must be vectors as wide as the n_t x |R_a| stack X, got shapes "
                f"{self.N.shape}, {self.H.shape} and {self.X.shape}"
            )
        if self.M is not None and not (
            self.M.ndim == 2 and self.N.shape == self.H.shape == (self.M.size,)
            and self.Z0.shape == self.G.shape == (self.M.shape[1] ** 2,) and (b or 0) > 0 and (n_t or 0) > 0
        ):
            raise ConfigurationError(
                "eigen factors need M |Q0| x |P|, N and H |Q0| |P| and Z0 and G |P|^2 long, "
                f"and b, n_t >= 1; got b = {b!r}, n_t = {n_t!r} and shapes "
                f"{[getattr(self, name).shape for name in ('M', 'N', 'H', 'Z0', 'G')]}"
            )
        self.dt = float(dt)
        self.n_t = n_t if self.M is not None else (self.X if self.D is None else self.D).shape[0]
        #: rows per block of the forward pass that made a computed spectral grid
        self.b = b
        self.kappa = float(kappa)
        self.param_hash = param_hash
        self.residual_excitation = residual_excitation
        #: the record of the run that built the grid, a dict keyed by
        #: RUN_KEYS; not part of the dump, so None on a loaded grid
        self.run = run

    @property
    def horizon(self) -> float:
        return (self.n_t - 1) * self.dt

    @property
    def memory_bytes(self) -> int:
        """Bytes of the arrays the grid holds: none grows with n_t on a computed spectral or a loaded U/X grid."""
        return sum(getattr(self, name).nbytes for name in self._kept)

    @property
    def width(self) -> int:
        """Entries per row: |R_a| of the U/X and spectral forms, m of the D form."""
        return next(a for a in (self.D, self.U, self.N) if a is not None).shape[-1]

    def adjoint_blocks(self, spans):
        """The rows U[lo:hi] for each (lo, hi) of spans (U/X and spectral forms).

        Slices of a stored U (read from the dump for a loaded grid), or for
        the spectral form spectral_blocks of N and H, made as they are read.
        """
        if self.U is not None:
            return _rows(self.U, spans)
        return spectral_blocks(self.N, self.H, spans)

    def operand_blocks(self, spans):
        """The rows X[lo:hi] for each (lo, hi) of spans (U/X and spectral forms).

        Slices of a stored X (read from the dump for a loaded grid, each
        block a view of one reused buffer), or for a computed spectral grid
        rows made as they are read: the forward pass's row groups of whole
        blocks of b nodes Z0 o G^k (_elementwise_blocks), up to n_t, each
        times M (_operands), cut to the spans (_sliced).  So a row's bits do
        not depend on the spans, and they are those the pass stored (but for
        rows of one entry in a last block that the pass made longer: numpy
        rounds a product of one element apart).  Ascending spans make each
        group once, and none past the one that holds the last span's end.
        """
        if self.X is not None:
            return _rows(self.X, spans)
        spans = list(spans)
        b = self.b
        n = min(self.n_t, -(-max((hi for _, hi in spans), default=0) // b) * b)
        return _sliced(lambda: (_operands(self.M, Z) for Z in _elementwise_blocks(self.Z0, self.G, n, b)), spans)

    def lag_sums(self, Gamma: float, n: int):
        """Per-lag sums (G, A) of the filter-weighted triangle on [0, t_n].

        With the trapezoid weights w_k of [0, t_n] and
        q_k = w_k exp(-Gamma (t_n - t_k)), G[tau] = sum_k q_k q_{k+tau}
        C[k+tau][k] for tau = 0 .. n; A is the same with Gamma = 0.  The D
        form takes them as the autocorrelations of q D and w D.  The U/X and
        spectral forms read X only through operand_blocks, in ascending
        blocks, so a computed spectral grid makes each row of X once per
        call, and a loaded one reads it once, in file order, and each holds
        one block of it at a time.
        """
        if self.D is not None:
            w = _trapezoid_weights(self.dt, n)
            q = w * np.exp(-Gamma * self.dt * np.arange(n, -1, -1))
            return tuple(_autocorrelations(self.D, q, w))
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
        # Gamma T can overflow.  The blocks of U come from adjoint_blocks,
        # those of X from operand_blocks.
        h = self.dt
        w = _trapezoid_weights(h, n)
        r = np.exp(-2.0 * Gamma * h)
        b = _block_size(n + 1)
        starts = range(0, n + 1, b)
        spans = [(max(n - m0 - b + 1, 0), n - m0 + 1) for m0 in starts]
        operands = self.operand_blocks([(m0, min(m0 + b, n + 1)) for m0 in starts])
        lag = np.abs(np.arange(b)[:, None] - np.arange(b))
        weights = (np.tril(r**lag), np.tril(np.ones((b, b))))
        decays = (r ** np.arange(1, b + 1), np.ones(b))  # r^(i+1)
        sums = (np.empty(n + 1, dtype=complex), np.empty(n + 1, dtype=complex))
        carries = [np.zeros(self.width, dtype=complex) for _ in sums]
        buffer = np.empty((b, self.width), dtype=complex)
        for m0, (lo, hi), U, X in zip(starts, spans, self.adjoint_blocks(spans), operands):
            rows = hi - lo
            wX = np.multiply(w[m0 : m0 + rows, None], X, out=buffer[:rows])
            if m0 == 0:
                X0 = X[0].copy()  # X may be a view of a buffer that the next block overwrites
            # row j of the block is lag tau = lo + j, so i = rows - 1 - j
            M = U @ wX.T
            ends = 0.5 * np.diagonal(M[:, ::-1])
            for t, (s, W, decay) in enumerate(zip(sums, weights, decays)):
                W, decay = W[:rows, :rows], decay[:rows]
                s[lo:hi] = (M * W[::-1]).sum(axis=1) + decay[::-1] * (U @ carries[t]) - ends
                carries[t] = decay[-1] * carries[t] + W[-1] @ wX
        G, A = sums
        corner = 0.5 * w[0] * (U[0] @ X0)  # the last block holds lag 0
        G[0] -= r**n * corner
        A[0] -= corner
        A *= h
        G *= h * np.exp(-Gamma * h * np.arange(n + 1))
        return G, A

    def save(self, path):
        """Binary dump: 80-byte header, then the stored arrays, little endian.

        Version 2 holds U and X, the header's second uint32 the operand-sector
        size |R_a|; version 4 holds N, H and X, the same width; version 3
        holds D, the second uint32 its width.  A stack the grid does not
        hold is written block by block: the X of a computed spectral grid
        from operand_blocks, so the dump has the bytes of the stored stack
        and a reload reads X back rather than making it again, and the
        stacks of a loaded grid from its dump.  Saved onto its own dump, a
        loaded grid writes a temporary file beside it, which replaces the
        dump once it is whole, and then reads from the new file.
        """
        hash_bytes = self.param_hash
        if isinstance(hash_bytes, str):
            hash_bytes = bytes.fromhex(hash_bytes)
        residual = float("nan") if self.residual_excitation is None else self.residual_excitation
        header = _GRID_MAGIC + struct.pack(
            "<IIQddd", self.version, self.width, self.n_t, self.dt, self.kappa, residual
        ) + hash_bytes
        dumped = [stack for stack in (self.U, self.X) if isinstance(stack, _DumpedStack)]
        onto_source = os.path.exists(path) and any(os.path.samefile(path, stack.path) for stack in dumped)
        target = f"{path}.{os.getpid()}.tmp" if onto_source else path
        try:
            with open(target, "wb") as fh:
                fh.write(header)
                for name in _FORMS[self.version]:
                    array = getattr(self, name)
                    if isinstance(array, np.ndarray):
                        blocks = [array]
                    else:
                        step = self.b or 64
                        spans = [(lo, min(lo + step, self.n_t)) for lo in range(0, self.n_t, step)]
                        blocks = (self.adjoint_blocks if name == "U" else self.operand_blocks)(spans)
                    for block in blocks:
                        fh.write(np.ascontiguousarray(block, dtype="<c16"))
            if onto_source:
                os.replace(target, path)
                for stack in dumped:  # the same bytes, in a new file where path named the dump
                    stack.identity = _identity(stack.path)
        finally:
            if onto_source and os.path.exists(target):
                os.remove(target)

    @classmethod
    def load(cls, path) -> "CorrelationGrid":
        """A dumped grid; ConfigurationError for a corrupt dump.

        It reads the header and the arrays that it holds: N and H of version
        4, D of version 3.  The stacks U and X stay in the file, which must
        not change while the grid is in use (_DumpedStack).  The file's size
        must be that of the header's n_t and width.  The header's dt must be
        finite and positive and its kappa finite and non-negative, as a run
        writes them.  Of a version 4 dump, N and H must be finite and max|H|
        at most STEP_FACTOR_LIMIT, the bound the spectral set-up applies, so
        that no power of H grows.
        """
        with open(path, "rb") as fh:
            header = fh.read(_HEADER_BYTES)
            if header[:8] != _GRID_MAGIC:
                raise ConfigurationError(f"{path}: not a correlation dump")
            if len(header) < _HEADER_BYTES:
                raise ConfigurationError(f"{path}: truncated dump header ({len(header)} of {_HEADER_BYTES} bytes)")
            version, n_op, n_t, dt, kappa, residual = struct.unpack("<IIQddd", header[8:48])
            if version not in _FORMS:
                raise ConfigurationError(f"{path}: unsupported dump version {version}")
            if not (0 < dt < math.inf and 0 <= kappa < math.inf):
                raise ConfigurationError(
                    f"{path}: header dt = {dt!r} must be finite and positive, kappa = {kappa!r} "
                    "finite and non-negative"
                )
            names = _FORMS[version]
            rows = [1 if name in ("N", "H") else n_t for name in names]
            expected = sum(rows) * n_op
            identity = _identity(fh.fileno())
            if identity[1] != _HEADER_BYTES + 16 * expected:
                raise ConfigurationError(
                    f"{path}: truncated dump ({(identity[1] - _HEADER_BYTES) / 16:g} of {expected} entries)"
                )
            form, offset = {}, _HEADER_BYTES
            for name, count in zip(names, rows):
                if name in ("U", "X"):
                    form[name] = _DumpedStack(path, identity, offset, (n_t, n_op))
                else:  # the held arrays come first, so they read in order
                    form[name] = np.fromfile(fh, dtype="<c16", count=count * n_op).reshape(count, n_op)
                offset += 16 * count * n_op
        if version == 4:
            form["N"], form["H"] = form["N"][0], form["H"][0]
            if not (np.isfinite(form["N"]).all() and np.isfinite(form["H"]).all()):
                raise ConfigurationError(f"{path}: non-finite adjoint factors N or H")
            growth = np.abs(form["H"]).max(initial=0.0)
            if growth > STEP_FACTOR_LIMIT:
                raise ConfigurationError(
                    f"{path}: step factor |H| = {growth:.6g} above {STEP_FACTOR_LIMIT!r}; "
                    "its powers would grow"
                )
        return cls(
            dt=dt,
            kappa=kappa,
            param_hash=header[48:],
            residual_excitation=None if np.isnan(residual) else residual,
            **form,
        )
