"""The atoms' exchange (bright/dark) basis of a correlation run.

spectrum.correlation_grid builds H, the channels and rho0 in the basis
where |eg> and |ge> become (|eg> +- |ge>)/sqrt(2) (hilbert.to_exchange).
The exchange of the two identical atoms is a symmetry of L, so there no
entry of H, K or the superoperator pairs a bright with a dark state, and
the sectors shrink.  two_time_correlation on the product-basis operators
stays the slow oracle: the grids and spectra agree with it to roundoff.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import model_points
from oracles import block_oracle, closure_oracle, grid_dense, to_scipy
from test_dynamics import _assert_close_or_dark, _assert_same_spectra

from omtc.config import NumericsConfig
from omtc.dynamics import EvolutionConfig, Generator, _ForwardSector, two_time_correlation
from omtc.hilbert import (
    EXCITED,
    GROUND,
    build_space,
    ladder_operators,
    optical_excitation_operator,
    to_exchange,
)
from omtc.model import ModelParams, SparseMatrix, build_dissipators, build_hamiltonian, initial_state
from omtc.spectrum import correlation_grid


def _dark(space) -> np.ndarray:
    """Whether each exchange-basis state is dark: those at the index of |ge,n,m>."""
    return np.array([(s.atom1, s.atom2) == (GROUND, EXCITED) for s in space.basis])


def _exchange_model(params, space, initial=1):
    """(Generator, rho0) as correlation_grid builds them, in the exchange basis."""
    ladder = space.exchange_ladder
    gen = Generator(build_hamiltonian(params, space, ladder), build_dissipators(params, space, ladder))
    return gen, to_exchange(space, initial_state(params, space, initial))


def _rotation(space) -> np.ndarray:
    """The dense orthogonal R of the exchange basis: row i of R X R is the new state i."""
    R = np.eye(space.dim)
    eg, ge = space.exchange_pairs
    c = np.sqrt(0.5)
    for i, j in zip(range(space.dim)[eg], range(space.dim)[ge]):
        R[i, i] = R[i, j] = R[j, i] = c
        R[j, j] = -c
    return R


@st.composite
def _exchange_points(draw):
    N_m = draw(st.integers(0, 2))
    gamma_a = draw(st.floats(0.01, 0.5))
    params = ModelParams(
        g_a=draw(st.floats(0.1, 3.0)),
        g_M=draw(st.floats(0.0, 1.5)),
        delta_ac=draw(st.floats(-2.0, 2.0)),
        J=draw(st.floats(-2.0, 2.0)),
        kappa=draw(st.floats(0.01, 1.0)),
        gamma_a=gamma_a,
        gamma_a_coop=draw(st.floats(-1.0, 1.0)) * gamma_a,
        gamma_M=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3))),
        Mbar=draw(st.one_of(st.just(0.0), st.floats(1e-4, 1e-3 if N_m == 0 else 0.03))),
    )
    space = build_space(draw(st.integers(1, 2)), N_m, draw(st.sampled_from([1, None])))
    return params, space, draw(st.sampled_from([1, 2, "symmetric", "antisymmetric"]))


class TestExchangeBasis:
    @settings(max_examples=60)
    @given(point=_exchange_points())
    def test_bright_and_dark_never_pair(self, point):
        # every entry of H, K = sum_c (r_c/2) O1'O2 and S that joins a
        # bright (or exchange-even) state to a dark one is exactly 0.0: not
        # roundoff, which the sparsity-based sectors would keep
        params, space, initial = point
        gen, rho0 = _exchange_model(params, space, initial)
        dark = _dark(space)
        mixed = dark[:, None] != dark[None, :]
        A, B = gen.no_jump()
        H, K = (B - A) / 2j, -(A + B) / 2
        assert np.all(H[mixed] == 0.0) and np.all(K[mixed] == 0.0)
        S = gen.superoperator()
        odd = np.logical_xor.outer(dark, dark).reshape(-1)  # vec(rho) entry (i, j)
        assert np.all(odd[S.rows] == odd[S.indices])
        if initial in ("symmetric", "antisymmetric"):  # one exchange-basis state each
            assert np.all(rho0[mixed] == 0.0)

    @settings(max_examples=20)
    @given(point=_exchange_points())
    def test_rotation_is_the_orthogonal_change_of_basis(self, point):
        # the pairwise sums equal R X R with the dense R to roundoff; a, b
        # and the optical excitation number are invariant (to roundoff:
        # c (c (1 + 1)) is 1 + eps), so a run keeps their matrices
        params, space, initial = point
        R = _rotation(space)
        np.testing.assert_allclose(R @ R, np.eye(space.dim), atol=1e-15)
        for name, op in space.ladder.items():
            np.testing.assert_allclose(space.exchange_ladder[name], R @ op @ R, atol=1e-15)
        for name in ("a", "b"):
            assert space.exchange_ladder[name] is space.ladder[name]
        n = optical_excitation_operator(space)
        np.testing.assert_allclose(to_exchange(space, n), n, atol=1e-15)
        rho0 = initial_state(params, space, initial)
        np.testing.assert_allclose(to_exchange(space, rho0), R @ rho0 @ R, atol=1e-15)
        v = np.arange(space.dim, dtype=complex)
        np.testing.assert_allclose(to_exchange(space, v), R @ v, atol=1e-13)

    def test_dark_start_is_one_state(self):
        # (|eg> - |ge>)/sqrt(2) is the state at the index of |ge>
        space = build_space(1, 1, 1)
        rho0 = to_exchange(space, initial_state(ModelParams(), space, "antisymmetric"))
        at = space.exchange_pairs[1].start
        assert space.basis[at].label() == "|ge,0,0>"
        assert np.flatnonzero(rho0.reshape(-1)).tolist() == [at * space.dim + at]
        assert rho0[at, at] == pytest.approx(1.0, abs=1e-15)


#: the small model of the oracle comparison: every channel on but the
#: mechanical ones, which the cases switch on
_PARAMS = dict(g_a=1.0, g_M=0.4, kappa=0.3, gamma_a=0.1, gamma_a_coop=0.04, J=0.3, delta_ac=0.2)


def _product_grid(params, space, initial, evolution):
    """The oracle: two_time_correlation on the product-basis operators."""
    gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
    return two_time_correlation(initial_state(params, space, initial), gen, evolution,
                                ladder_operators(space)["a"], monitor=optical_excitation_operator(space),
                                kappa=params.kappa)


class TestAgainstProductBasis:
    @pytest.mark.parametrize("initial", [1, 2, "symmetric", "antisymmetric"])
    @pytest.mark.parametrize("method", ["expm", "rk4"])
    @pytest.mark.parametrize("Mbar", [0.0, 0.5])
    @pytest.mark.parametrize("gamma_M", [0.0, 0.05])
    def test_spectra_match_the_product_basis(self, initial, method, Mbar, gamma_M):
        # N_m = 6 holds the Mbar = 0.5 thermal weight; the leak stop is off,
        # so both horizons are t_max.  The grid, its lag sums and both
        # spectrum columns agree to roundoff, and a dark start's to a floor
        # (_assert_same_spectra); the exchange basis never steps more
        params = ModelParams(**_PARAMS, Mbar=Mbar, gamma_M=gamma_M)
        space = build_space(1, 6, 1)
        evolution = EvolutionConfig(dt=0.05, t_max=1.0, method=method, leak_tolerance=0.0)
        numerics = NumericsConfig(evolution=evolution, N_c=1, N_m=6, excitation_cap=1)
        grid, head = correlation_grid(params, numerics, initial)
        oracle = _product_grid(params, space, initial, evolution)
        assert grid.n_t == oracle.n_t == 21
        _assert_same_spectra(grid, oracle)
        assert head["forward_sector"] <= oracle.run["forward_sector"]
        assert head["adjoint_sector"] <= oracle.run["adjoint_sector"]
        if initial != "antisymmetric":  # a dark start has no operand sector at all
            assert head["propagator"] == oracle.run["propagator"]

    def test_dark_start_has_an_empty_operand_sector(self):
        # the dark state never couples to the cavity: no a rho, a zero grid
        params = ModelParams(**_PARAMS)
        evolution = EvolutionConfig(dt=0.05, t_max=1.0, method="expm")
        grid, head = correlation_grid(params, NumericsConfig(evolution=evolution, N_m=2), "antisymmetric")
        assert head["adjoint_sector"] == 0 and grid.width == 0
        assert not np.any(grid_dense(grid))


def _reads(space) -> np.ndarray:
    """The entries a correlation run reads: the columns of a x I and the monitor's support."""
    a, d = ladder_operators(space)["a"], space.dim
    reads = (np.flatnonzero(np.any(a, axis=0))[:, None] * d + np.arange(d)).reshape(-1)
    return np.union1d(reads, np.flatnonzero(optical_excitation_operator(space).T))


def _rebuilt_hull(S, rho0, reads):
    """(index, M, closed) of the hull sector built from scratch, by scipy closures and blocks.

    The forward sector and the readout's ancestors as TestScipyOracle finds
    them, then the box P x P of the readout rows, the block of the forward
    sector with the box, and its split: M = [L[box, box]; 1' L[dropped
    diagonal, box]], closed unless an entry flows into the box.
    """
    ref, d = to_scipy(S), len(rho0)
    sector = closure_oracle(ref, np.flatnonzero((rho0 != 0) | (rho0.T != 0)))
    i, j = np.divmod(reads, d)
    seed = np.flatnonzero(np.isin(sector, np.concatenate([reads, j * d + i])))
    P = np.unique(sector[closure_oracle(block_oracle(ref, sector).T.tocsr(), seed)] // d)
    box = (P[:, None] * d + P).reshape(-1)
    sector = np.union1d(sector, box)
    L = block_oracle(ref, sector).toarray()
    kept = np.isin(sector, box)
    diagonal = ~kept & (sector // d == sector % d)
    M = np.vstack([L[np.ix_(kept, kept)], L[np.ix_(diagonal, kept)].sum(axis=0)])
    return box, M, not np.any(L[np.ix_(kept, ~kept)])


class TestThermalHull:
    @settings(max_examples=20)
    @given(point=model_points())
    @example(point=(ModelParams(**_PARAMS, Mbar=0.02), build_space(1, 2, 1), 1))
    def test_hull_matches_a_full_rebuild(self, point):
        # every drawn start is thermal (Mbar > 0); the hull extends the
        # readout sector it holds by one block, and a rebuild from scratch
        # gives the same index, M and closed.  A start on one atom has
        # dark states, so its readout sector is short of P x P
        params, space, initial = point
        assert params.Mbar > 0
        gen, rho0 = _exchange_model(params, space, initial)
        S = gen.superoperator()
        fwd = _ForwardSector(S, rho0, _reads(space))
        hull = fwd.hull()
        index, M, closed = _rebuilt_hull(S, rho0, _reads(space))
        np.testing.assert_array_equal(hull.index, index)
        np.testing.assert_array_equal(to_scipy(hull.M).toarray(), M)
        assert hull.closed == closed
        assert (hull is fwd) == (len(fwd.index) == len(index))
        if initial in (1, 2) and space.N_m > 0:
            assert hull is not fwd

    @pytest.mark.parametrize("method, propagator", [("expm", "factored/separable"), ("rk4", "spectral/spectral")])
    def test_one_closure_per_sector_and_one_hull_block(self, method, propagator, monkeypatch):
        # a thermal kernel run finds the forward sector, the readout's
        # ancestors and the operand sector by one closure each, and
        # extracts the forward sector's, the operand sector's and the
        # hull's blocks once each: the hull extends the sector it holds
        from omtc import dynamics

        closure, block, calls = dynamics._closure, SparseMatrix.block, []

        def counted_closure(adjacency, seed):
            calls.append("closure")
            return closure(adjacency, seed)

        def counted_block(self, index):
            calls.append("block")
            return block(self, index)

        params = ModelParams(**_PARAMS, Mbar=0.5)
        space = build_space(1, 6, 1)
        gen, rho0 = _exchange_model(params, space)
        a, mon = ladder_operators(space)["a"], optical_excitation_operator(space)
        monkeypatch.setattr("omtc.dynamics._closure", counted_closure)
        monkeypatch.setattr("omtc.model.SparseMatrix.block", counted_block)
        grid = two_time_correlation(rho0, gen, EvolutionConfig(dt=0.05, t_max=1.0, method=method), a, monitor=mon)
        assert grid.run["propagator"] == propagator
        assert calls.count("closure") == 3 and calls.count("block") == 3

    @pytest.mark.parametrize("method, propagator", [("expm", "factored/separable"), ("rk4", "spectral/spectral")])
    def test_thermal_start_keeps_its_kernel(self, method, propagator):
        # a thermal start leaves the readout sector short of the coherences
        # between two dark states of different phonon numbers, so it is not
        # the product P x P; nothing flows into the hull, so the kernel
        # steps the hull and the run keeps the D or the spectral form
        params = ModelParams(**_PARAMS, Mbar=0.5)
        space = build_space(1, 6, 1)
        gen, rho0 = _exchange_model(params, space)
        fwd = _ForwardSector(gen.superoperator(), rho0, _reads(space))
        hull = fwd.hull()
        P = len(fwd.P)
        assert len(fwd.index) < P**2 and hull.closed and len(hull.index) == P**2
        evolution = EvolutionConfig(dt=0.05, t_max=1.0, method=method)
        grid, head = correlation_grid(params, NumericsConfig(evolution=evolution, N_m=6), 1)
        assert head["propagator"] == propagator
        assert head["forward_sector"] == P**2
        oracle = _product_grid(params, space, 1, evolution)
        _assert_close_or_dark(grid_dense(grid), grid_dense(oracle), grid.n_t)
