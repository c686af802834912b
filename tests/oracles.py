"""Slow reference paths kept for the tests.

The package assembles its operators by array arithmetic, holds the
superoperator and its sectors in numpy arrays (model.SparseMatrix) and
keeps the correlation grid as factor stacks (U and X, X with the factors
N and H of U, or D); these are the
straightforward forms they replace: the ladder operators one basis state
at a time, the Hamiltonian as sparse products, the superoperator as a sum
of scipy Kronecker products, sector blocks and closures by scipy
indexing and matvecs, and entries, columns and the full matrix of the grid
in either form.  to_scipy and from_scipy convert a SparseMatrix for the
tests that index or perturb it.  elementwise_blocks and autocorrelation
are the passes that the row groups and the in-place FFT buffer of
omtc.grid replace: one block of b nodes, and one fresh pair of arrays per
column chunk, at a time.
"""

from dataclasses import replace

import numpy as np
from scipy import sparse

from omtc.model import OMEGA_M, SparseMatrix


def ladder_by_rules(space) -> dict:
    """a, b, sigma1, sigma2 as CSR, built by lowering one basis state at a time.

    A target outside a capped space is dropped, which projects the
    operator onto the retained sector.
    """

    def lowering(field):
        rows, cols, vals = [], [], []
        for j, s in enumerate(space.basis):
            n = getattr(s, field)
            target = replace(s, **{field: n - 1})
            if n > 0 and space.contains(target):
                rows.append(space.index(target))
                cols.append(j)
                vals.append(np.sqrt(n))
        values = np.asarray(vals, dtype=complex)
        return sparse.coo_matrix((values, (rows, cols)), shape=(space.dim, space.dim)).tocsr()

    fields = (("a", "photon"), ("b", "phonon"), ("sigma1", "atom1"), ("sigma2", "atom2"))
    return {name: lowering(field) for name, field in fields}


def sparse_hamiltonian(params, space) -> sparse.csr_matrix:
    """build_hamiltonian as sparse products of ladder_by_rules."""
    ops = ladder_by_rules(space)
    a, b, s1, s2 = ops["a"], ops["b"], ops["sigma1"], ops["sigma2"]
    ad, bd = a.getH(), b.getH()
    atom_coupling = ad @ (s1 + s2)
    exchange = s1.getH() @ s2
    H = (
        -params.delta_ac * (s1.getH() @ s1 + s2.getH() @ s2)
        + params.g_a * (atom_coupling + atom_coupling.getH())
        + params.J * (exchange + exchange.getH())
        + OMEGA_M * (bd @ b)
        - params.g_M * (ad @ a) @ (bd + b)
    )
    H = H.tocsr()
    H.sort_indices()
    return H


def kron_superoperator(H, channels) -> sparse.csr_matrix:
    """Generator(H, channels).superoperator() as a sum of scipy Kronecker products, term by term.

    Built from each channel's op1, op2 and rate, not from the generator's
    own products.
    """
    d = H.shape[0]
    eye = sparse.identity(d, dtype=complex, format="csr")
    H = sparse.csr_matrix(H)
    L = -1j * (sparse.kron(H, eye) - sparse.kron(eye, H.T))
    for c in channels:
        if c.rate == 0.0:
            continue
        op1, op2 = sparse.csr_matrix(c.op1), sparse.csr_matrix(c.op2)
        k = op1.getH() @ op2
        L = L + (0.5 * c.rate) * (
            2.0 * sparse.kron(op1, op2.conj()) - sparse.kron(k, eye) - sparse.kron(eye, k.T)
        )
    L = L.tocsr()
    L.eliminate_zeros()
    return L


def to_scipy(S: SparseMatrix) -> sparse.csr_matrix:
    """A SparseMatrix as a scipy CSR matrix (shared arrays)."""
    return sparse.csr_matrix((S.data, S.indices, S.indptr), shape=S.shape)


def from_scipy(M) -> SparseMatrix:
    """A scipy matrix as a SparseMatrix: duplicates summed, zeros dropped, columns sorted."""
    M = sparse.csr_matrix(M, dtype=complex)
    M.sum_duplicates()
    M.eliminate_zeros()
    return SparseMatrix(M.indptr, M.indices, M.data, M.shape)


def block_oracle(S, index: np.ndarray) -> sparse.coo_matrix:
    """S[index][:, index] as COO in row order by scipy row indexing (S CSR, index sorted)."""
    rows = S[index]
    at = np.full(S.shape[1], -1)
    at[index] = np.arange(len(index))
    c = at[rows.indices]
    r = np.repeat(np.arange(len(index)), np.diff(rows.indptr))
    keep = c >= 0
    return sparse.coo_matrix((rows.data[keep], (r[keep], c[keep])), shape=(len(index),) * 2)


def closure_oracle(S, seed: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from the seed under the sparsity pattern of a scipy S.

    The smallest superset R of the seed with S[~R, R] = 0, grown by full
    pattern matvecs until nothing changes.
    """
    pattern = abs(S)
    reach = np.zeros(S.shape[0], dtype=bool)
    reach[seed] = True
    while True:
        grown = reach | (pattern @ reach.astype(float) > 0)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def grid_rows(blocks, lo: int, hi: int) -> np.ndarray:
    """The rows lo:hi of U or X, one block of a grid's adjoint_blocks or operand_blocks."""
    return next(blocks([(lo, hi)]))


def adjoint_stack(grid) -> np.ndarray:
    """All n_t rows of U of a U/X or spectral CorrelationGrid, from its blocks."""
    return grid_rows(grid.adjoint_blocks, 0, grid.n_t)


def operand_stack(grid) -> np.ndarray:
    """All n_t rows of X of a U/X or spectral CorrelationGrid, from its blocks."""
    return grid_rows(grid.operand_blocks, 0, grid.n_t)


def grid_column(grid, k: int) -> np.ndarray:
    """C[k:][k] (lags 0 .. n_t-1-k) of a CorrelationGrid."""
    if grid.D is not None:
        return grid.D[k:].conj() @ grid.D[k]
    return grid_rows(grid.adjoint_blocks, 0, grid.n_t - k) @ grid_rows(grid.operand_blocks, k, k + 1)[0]


def grid_value(grid, j: int, k: int) -> complex:
    """C[j][k] of a CorrelationGrid, the upper triangle by conjugate symmetry."""
    if j < k:
        return np.conj(grid_value(grid, k, j))
    if grid.D is not None:
        return complex(np.vdot(grid.D[j], grid.D[k]))
    return complex(grid_rows(grid.adjoint_blocks, j - k, j - k + 1)[0] @ grid_rows(grid.operand_blocks, k, k + 1)[0])


def grid_dense(grid) -> np.ndarray:
    """The full Hermitian-symmetric n_t x n_t matrix of a (small) CorrelationGrid."""
    out = np.empty((grid.n_t, grid.n_t), dtype=complex)
    for k in range(grid.n_t):
        col = grid_column(grid, k)
        out[k:, k] = col
        out[k, k:] = np.conj(col)
    return out


def elementwise_blocks(x0: np.ndarray, g: np.ndarray, n: int, b: int):
    """Yield x0 g^k (elementwise) for k = 0 .. n-1 one row block of b nodes at a time.

    The first block node by node, every later one the block before times
    g^b, in place: all blocks are views of one buffer.
    """
    power, Y = g**b, None
    for start in range(0, n, b):
        rows = min(b, n - start)
        if Y is None:
            Y = np.empty((rows, len(x0)), dtype=x0.dtype)
            Y[0] = x0
            for i in range(1, rows):
                Y[i] = Y[i - 1] * g
        else:
            Y = np.multiply(Y[:rows], power, out=Y[:rows])
        yield Y


def autocorrelation(D: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_k q_k q_{k+tau} D[k+tau]^H D[k], tau = 0 .. len(q) - 1, by FFT: a new padded array and its transform per 16 columns."""
    from omtc.grid import _fast_length

    n = len(q) - 1
    L = _fast_length(2 * n + 1)
    power = np.zeros(L)
    for c in range(0, D.shape[1], 16):
        Y = np.zeros((min(16, D.shape[1] - c), L), dtype=complex)
        np.multiply(D[: n + 1, c : c + 16].T, q, out=Y[:, : n + 1])
        F = np.fft.fft(Y, axis=1)
        power += np.einsum("ij,ij->j", F.real, F.real) + np.einsum("ij,ij->j", F.imag, F.imag)
    return np.fft.rfft(power)[: n + 1] / L
