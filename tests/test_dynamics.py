import itertools
import os
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import model_points
from oracles import (
    autocorrelation,
    block_oracle,
    block_pass,
    closure_oracle,
    elementwise_steps,
    from_scipy,
    adjoint_stack,
    grid_column,
    grid_dense,
    grid_rows,
    grid_value,
    kron_superoperator,
    operand_stack,
    ladder_by_rules,
    sparse_hamiltonian,
    to_scipy,
)
from scipy import linalg, sparse

from omtc import grid as grid_module
from omtc.config import FilterParams, NumericsConfig
from omtc.dynamics import (
    TRACE_DRIFT_LIMIT,
    CorrelationGrid,
    EvolutionConfig,
    Generator,
    _closure,
    _eigenbases,
    _first_nodes,
    _ForwardSector,
    _forward_stack,
    _HermitianCoordinates,
    _kernel,
    _kronecker_factors,
    _nodes,
    _rk4_factor,
    _sector_steps,
    _SeparableKernel,
    _SpectralKernel,
    _SteppedForm,
    _taylor_step,
    check_step_size,
    evolve,
    two_time_correlation,
)
from omtc.errors import ConfigurationError, NumericalError
from omtc.grid import _autocorrelations, _fast_length, _operands, _row_groups, _trapezoid_weights, spectral_blocks
from omtc.hilbert import build_space, ladder_operators, optical_excitation_operator
from omtc.model import (
    ModelParams,
    SparseMatrix,
    build_dissipators,
    build_hamiltonian,
    initial_state,
)
from omtc.spectrum import filtered_spectrum, stationary_spectrum


def _random_rho(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _step(steps, x):
    """The node after x by a pass's one-step function steps[0], into a new array."""
    return steps[0](x, np.empty_like(x))


def _damped_cavity(kappa=0.2, N_m=0):
    p = ModelParams(g_a=0, g_M=0, gamma_a=0, kappa=kappa)
    space = build_space(1, N_m, excitation_cap=1)
    gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
    rho0 = np.outer(space.ket(0, 0, 1, 0), space.ket(0, 0, 1, 0).conj())
    return p, space, gen, rho0


class TestLiouvillianApply:
    """Generator.apply, the action of the Liouvillian on a dense matrix."""

    def test_pure_commutator_when_rates_vanish(self):
        rng = np.random.default_rng(0)
        p = ModelParams(kappa=0, gamma_a=0)
        space = build_space(1, 1)
        H = build_hamiltonian(p, space)
        diss = build_dissipators(p, space)
        rho = _random_rho(rng, space.dim)
        out = Generator(H, diss).apply(rho)
        expected = -1j * (H @ rho - rho @ H)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_vacuum_is_stationary(self):
        p = ModelParams(gamma_M=0.1, Mbar=0.0, gamma_a_coop=0.03)
        space = build_space(1, 2)
        vac = np.outer(space.ket(0, 0, 0, 0), space.ket(0, 0, 0, 0).conj())
        out = Generator(build_hamiltonian(p, space), build_dissipators(p, space)).apply(vac)
        assert abs(out).max() < 1e-14

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(1)
        p = ModelParams(gamma_M=0.05, Mbar=0.1, gamma_a_coop=0.02, J=0.3)
        space = build_space(1, 2)
        rho = _random_rho(rng, space.dim)
        out = Generator(build_hamiltonian(p, space), build_dissipators(p, space)).apply(rho)
        assert abs(out - out.conj().T).max() < 1e-12

    def test_dense_superoperator_oracle_dim8(self):
        # brute force: act on every matrix unit, assemble the superoperator
        # column by column, compare with the vectorized form
        rng = np.random.default_rng(2)
        p = ModelParams(J=0.4, delta_ac=-0.2, gamma_a_coop=0.02, gamma_M=0.07, Mbar=0.3)
        space = build_space(1, 0)
        assert space.dim == 8
        H = build_hamiltonian(p, space)
        diss = build_dissipators(p, space)
        gen = Generator(H, diss)
        d = space.dim
        brute = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                brute[:, i * d + j] = gen.apply(unit).reshape(-1)
        assert abs(brute - to_scipy(gen.superoperator())).max() < 1e-12
        rho = _random_rho(rng, d)
        via_matrix = gen.superoperator().dot(rho.reshape(-1)).reshape(d, d)
        assert abs(via_matrix - gen.apply(rho)).max() < 1e-12

    def test_dimension_mismatch(self):
        # a matrix of another dimension is rejected, not broadcast
        p = ModelParams()
        space = build_space(1, 1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        for action in (gen.apply, gen.apply_adjoint):
            with pytest.raises(ValueError):
                action(np.eye(3))


@st.composite
def _generator_points(draw):
    """A model point's space, H and channels, with a complex Hermitian H on every other draw."""
    params, space, _ = draw(model_points())
    H = build_hamiltonian(params, space)
    if draw(st.booleans()):
        m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=H.shape)
        H = H + 1j * (m - m.T)
    return space, H, build_dissipators(params, space)


class TestAssembly:
    @settings(max_examples=25)
    @given(point=_generator_points())
    def test_superoperator_matches_kronecker_oracle(self, point):
        # one COO pass against the sum of scipy Kronecker products it
        # replaced: the same pattern and the same values to roundoff (on the
        # benchmark points, capped and without mechanical losses, bit for bit)
        _, H, channels = point
        S, ref = Generator(H, channels).superoperator(), kron_superoperator(H, channels)
        assert ref.has_canonical_format  # so S has sorted, distinct columns and no zeros too
        np.testing.assert_array_equal(S.indptr, ref.indptr)
        np.testing.assert_array_equal(S.indices, ref.indices)
        assert np.abs(S.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()

    @settings(max_examples=25)
    @given(point=_generator_points())
    def test_diagonal_rows_sum_to_zero(self, point):
        # trace preservation: 1' L = 0 over the diagonal rows i d + i, for
        # every column
        space, H, channels = point
        gen = Generator(H, channels)
        d = space.dim
        S = to_scipy(gen.superoperator())
        sums = np.abs(np.asarray(S[np.arange(d) * (d + 1)].sum(axis=0))).max()
        assert sums <= 1e-15 * abs(S).max()

    @pytest.mark.parametrize("N_c, N_m, cap", [(1, 2, 1), (1, 3, None), (2, 2, 1), (2, 3, None)])
    def test_model_operators_match_sparse_oracles(self, N_c, N_m, cap):
        # the dense assembly of the ladder operators and H is bit-identical
        # to the per-state rules and the sparse products
        space = build_space(N_c, N_m, cap)
        for name, op in ladder_operators(space).items():
            assert np.array_equal(op, ladder_by_rules(space)[name].toarray()), name
        params = ModelParams(J=0.37, delta_ac=-0.21, g_a=1.3, g_M=0.9)
        H = build_hamiltonian(params, space)
        assert np.array_equal(H, sparse_hamiltonian(params, space).toarray())


class TestHeisenbergAdjoint:
    def test_pairing_identity(self):
        # Tr[A' L(X)] == Tr[(L'(A))' X] for random matrices
        rng = np.random.default_rng(3)
        p = ModelParams(gamma_M=0.06, Mbar=0.2, gamma_a_coop=0.01, J=0.2)
        space = build_space(1, 1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        d = space.dim
        for _ in range(4):
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            lhs = np.trace(A.conj().T @ gen.apply(X))
            rhs = np.trace(gen.apply_adjoint(A).conj().T @ X)
            assert abs(lhs - rhs) < 1e-10

    def test_identity_is_stationary_in_heisenberg_picture(self):
        p = ModelParams(gamma_M=0.05, Mbar=0.1)
        space = build_space(1, 1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        out = gen.apply_adjoint(np.eye(space.dim, dtype=complex))
        assert abs(out).max() < 1e-12


class TestEvolve:
    def test_frozen_without_generator(self):
        rng = np.random.default_rng(4)
        p = ModelParams(g_a=0, g_M=0, delta_ac=0, kappa=0, gamma_a=0)
        space = build_space(1, 0)
        gen = Generator(0 * build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = _random_rho(rng, space.dim)
        traj = evolve(rho0, gen, EvolutionConfig(dt=0.1, t_max=1.0))
        np.testing.assert_allclose(traj.states[-1], rho0, atol=1e-14)

    def test_damped_cavity_population(self):
        _, space, gen, rho0 = _damped_cavity()
        n_op = optical_excitation_operator(space)
        cfg = EvolutionConfig(dt=0.02, t_max=5.0)
        traj = evolve(rho0, gen, cfg)
        n_t = np.array([np.trace(n_op @ r).real for r in traj.states])
        exact = np.exp(-0.2 * traj.times)
        k = np.argmin(abs(traj.times - 5.0))
        assert abs(n_t[k] - exact[k]) / exact[k] < 1e-6

    def test_closed_system_spectrum_invariant(self):
        # unitary flow preserves the eigenvalues of rho; needs a converged
        # step since RK4 amplitude errors scale as (omega dt)^5 per unit time
        rng = np.random.default_rng(5)
        p = ModelParams(kappa=0, gamma_a=0, J=0.3)
        space = build_space(1, 1, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = _random_rho(rng, space.dim)
        traj = evolve(rho0, gen, EvolutionConfig(dt=0.005, t_max=2.0))
        e0 = np.sort(np.linalg.eigvalsh(traj.states[0]))
        e1 = np.sort(np.linalg.eigvalsh(traj.states[-1]))
        assert abs(e0 - e1).max() < 1e-8

    def test_early_stop_on_leak(self):
        _, space, gen, rho0 = _damped_cavity()
        mon = optical_excitation_operator(space)
        cfg = EvolutionConfig(dt=0.02, t_max=400.0, leak_tolerance=1e-4)
        traj = evolve(rho0, gen, cfg, monitor=mon)
        assert traj.stopped_early
        assert traj.final_residual < 1e-4
        # one-photon decay: first node below tolerance is ln(1e4)/kappa
        assert traj.times[-1] == pytest.approx(np.log(1e4) / 0.2, abs=0.05)

    def test_snapshots_hermitian_and_positive(self):
        # CPTP bounds at 1e-8 need the exact one-step propagator; RK4 at
        # dt=0.02 sits at the 1e-7 level on the fast coherent modes
        p = ModelParams(gamma_M=0.05)
        space = build_space(1, 3, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        traj = evolve(rho0, gen, EvolutionConfig(dt=0.02, t_max=3.0, method="expm"))
        for r in traj.states[:: len(traj.states) // 7]:
            assert abs(r - r.conj().T).max() < 1e-9
            assert np.trace(r).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(r).min() > -1e-8

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_trace_drift_aborts(self, method):
        p, space, gen, _ = _damped_cavity()

        class Leaky:
            # the steppers read superoperator(), so it has to leak as well
            dim = gen.dim

            def apply(self, rho):
                return gen.apply(rho) - 1e-5 * rho

            apply_adjoint = gen.apply_adjoint

            def superoperator(self):
                return from_scipy(to_scipy(gen.superoperator()) - 1e-5 * sparse.identity(gen.dim**2))

        # the trace decays as exp(-1e-5 t): the drift first exceeds 1e-4 at
        # t_201 = 10.05, row 9 of the 13th block of b = 16 (n_max = 1001)
        k = np.arange(1001)
        first = int(np.argmax(1 - np.exp(-1e-5 * 0.05 * k) > TRACE_DRIFT_LIMIT))
        assert first == 201
        rho0 = np.eye(space.dim, dtype=complex) / space.dim
        with pytest.raises(NumericalError, match=r"trace drift .* at step 201 exceeds"):
            evolve(rho0, Leaky(), EvolutionConfig(dt=0.05, t_max=50.0, method=method))

    def test_unstable_step_aborts(self):
        # the cavity population decays at about kappa; at kappa = 140,
        # dt = 0.02 the RK4 factor r(-2.8) = 1.022 grows it, while the
        # trace, a linear invariant of every step, stays put and the drift
        # guard sees nothing.  Mechanical losses keep the run stepped (the
        # spectral form rejects such a step at set-up); at kappa = 135,
        # r(-2.7) = 0.879, both passes run to t_max.
        space = build_space(1, 2, excitation_cap=1)

        def point(kappa):
            params = ModelParams(kappa=kappa, J=0.3, gamma_M=0.05)
            return _correlation_point(params, space, dt=0.02, t_max=20.0)

        rho0, gen, cfg, a, mon = point(140.0)
        match = r"coordinate 1\.07.e\+00 of rho exceeds its trace .* at step 525, so rho"
        with pytest.raises(NumericalError, match=match):
            evolve(rho0, gen, cfg)
        with pytest.raises(NumericalError, match=match):
            two_time_correlation(rho0, gen, cfg, a, monitor=mon)

        rho0, gen, cfg, a, mon = point(135.0)
        assert len(evolve(rho0, gen, cfg).states) == 1001
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.run["propagator"] == "rk4/rk4" and grid.n_t == 1001
        assert np.abs(grid.X).max() < 0.04

    def test_step_size_guard(self):
        check_step_size(0.02, ModelParams())
        with pytest.raises(ConfigurationError):
            check_step_size(0.05, ModelParams(g_a=2.4))

    def test_expm_block_budget_checked_before_expm(self, monkeypatch):
        # N_m = 2: evolve keeps the whole 90-entry forward sector, so with p
        # the real forward block needs 8 * 91^2 B = 66.2 kB and its b-th
        # power as much again; without the power it would fit the 100 kB
        # budget and expm would run.  Mechanical losses keep it dense in
        # any run.
        p = ModelParams(gamma_M=0.05)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)

        def not_yet(*args, **kwargs):
            raise AssertionError("expm or its squarings ran before the budget check")

        monkeypatch.setattr("scipy.linalg.expm", not_yet)
        monkeypatch.setattr("omtc.dynamics._power", not_yet)
        cfg = EvolutionConfig(dt=0.02, t_max=0.2, method="expm", max_grid_bytes=100000)
        with pytest.raises(NumericalError, match="dense expm blocks and their powers"):
            evolve(rho0, gen, cfg)
        cfg = EvolutionConfig(dt=0.02, t_max=0.2, method="rk4", max_grid_bytes=100000)
        assert len(evolve(rho0, gen, cfg).states) == 11

    def test_states_budget_checked_before_the_first_step(self, monkeypatch):
        # evolve returns every state, 16 d^2 = 2304 B at N_m = 2 (d = 12),
        # counted over t_max: 51 nodes need 117504 B, above a 100 kB budget,
        # so rk4, which builds no dense block, is refused before a step is
        # built; 41 nodes fit
        p = ModelParams(gamma_M=0.05)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)

        def not_yet(*args, **kwargs):
            raise AssertionError("a step was built before the budget check")

        cfg = EvolutionConfig(dt=0.02, t_max=1.0, method="rk4", max_grid_bytes=100000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omtc.dynamics._sector_steps", not_yet)
            with pytest.raises(NumericalError, match=r"\(states 0.1 MiB for n_t <= 51\), above the 0.1 MiB"):
                evolve(rho0, gen, cfg)
        assert len(evolve(rho0, gen, replace(cfg, t_max=0.8)).states) == 41


class TestBackends:
    def test_rk4_and_expm_agree(self):
        p = ModelParams(gamma_M=0.04, Mbar=0.1, J=0.3)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        # fine step so RK4 truncation sits below the agreement threshold
        out = {}
        for method in ("rk4", "expm"):
            cfg = EvolutionConfig(dt=0.002, t_max=0.2, method=method)
            out[method] = evolve(rho0, gen, cfg).states[-1]
        assert abs(out["rk4"] - out["expm"]).max() < 1e-8

    def test_smoke_check_catches_broken_generator(self):
        p, space, gen, rho0 = _damped_cavity()

        class Broken:
            dim = gen.dim

            def apply(self, rho):
                return gen.apply(rho) + 0.01 * rho  # inconsistent reference

            apply_adjoint = gen.apply_adjoint
            superoperator = gen.superoperator
            no_jump = gen.no_jump

        a = ladder_operators(space)["a"]
        with pytest.raises(NumericalError):
            two_time_correlation(
                rho0, Broken(), EvolutionConfig(dt=0.02, t_max=1.0, method="expm"), a
            )

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_smoke_check_catches_broken_adjoint(self, method):
        p, space, gen, rho0 = _damped_cavity()

        class BrokenAdjoint:
            dim = gen.dim
            apply = gen.apply

            def apply_adjoint(self, A):
                return gen.apply_adjoint(A) + 0.01 * A  # inconsistent reference

            superoperator = gen.superoperator
            no_jump = gen.no_jump

        a = ladder_operators(space)["a"]
        with pytest.raises(NumericalError, match="adjoint smoke test"):
            two_time_correlation(
                rho0, BrokenAdjoint(), EvolutionConfig(dt=0.02, t_max=1.0, method=method), a
            )

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_superoperator_off_in_one_readout_entry_fails_smoke_check(self, method):
        # 1e-9 relative on the largest diagonal entry of the readout block
        # (a population's decay, so the block stays real) moves one step by
        # ~1e-12, far below the 1e-8 step threshold; S vec(Z) against
        # vec(apply(Z)) sees it.  With expm the Kronecker check sends the
        # forward pass to the dense stepper first.
        p = ModelParams(J=0.3)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0, a = initial_state(p, space), ladder_operators(space)["a"]
        mon = optical_excitation_operator(space)
        index = _ForwardSector(gen.superoperator(), rho0, _readout(space)[0]).index
        S = to_scipy(gen.superoperator())
        populations = index[index % (space.dim + 1) == 0]
        r = populations[np.argmax(np.abs(S.diagonal()[populations]))]
        S = S.tolil()
        S[r, r] *= 1 + 1e-9

        class OffByOne:
            dim = gen.dim
            apply, apply_adjoint, no_jump = gen.apply, gen.apply_adjoint, gen.no_jump

            def superoperator(self):
                return from_scipy(S)

        cfg = EvolutionConfig(dt=0.02, t_max=1.0, method=method)
        with pytest.raises(NumericalError, match="disagree on the forward smoke test"):
            two_time_correlation(rho0, OffByOne(), cfg, a, monitor=mon)

    def test_no_jump_off_falls_back_to_dense_stepper(self):
        # A off by 1e-9 relative is no Kronecker factor of either sector
        # block, so both passes step densely, exactly as without the check
        p = ModelParams(J=0.3)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0, a = initial_state(p, space), ladder_operators(space)["a"]
        mon = optical_excitation_operator(space)

        class SkewedNoJump:
            dim = gen.dim
            apply, apply_adjoint, superoperator = gen.apply, gen.apply_adjoint, gen.superoperator

            def no_jump(self):
                A, B = gen.no_jump()
                return A * (1 + 1e-9), B

        cfg = EvolutionConfig(dt=0.02, t_max=1.0, method="expm")
        grid = two_time_correlation(rho0, SkewedNoJump(), cfg, a, monitor=mon)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omtc.dynamics._kronecker_factors", lambda *args: None)
            dense = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.run["propagator"] == dense.run["propagator"] == "dense/dense"
        assert grid.n_t == dense.n_t
        assert _same_stacks(grid, dense)
        assert two_time_correlation(rho0, gen, cfg, a, monitor=mon).run["propagator"] == "factored/separable"

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_no_jump_made_twice_per_kernel_run(self, monkeypatch, method):
        # superoperator() builds on one no_jump(), and _kernel makes one
        # more for both Kronecker checks, the readout and operand blocks
        p = ModelParams(J=0.3)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0, a = initial_state(p, space), ladder_operators(space)["a"]
        no_jump, calls = Generator.no_jump, []

        def counted(self):
            calls.append(self)
            return no_jump(self)

        monkeypatch.setattr(Generator, "no_jump", counted)
        cfg = EvolutionConfig(dt=0.02, t_max=1.0, method=method)
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=optical_excitation_operator(space))
        assert grid.run["propagator"] in ("factored/separable", "spectral/spectral")
        assert calls == [gen, gen]

    def test_halving_dt_expm_grid_stable(self):
        # the one-step propagator composes exactly, so halving dt must not
        # move shared-node correlation entries
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        grids = {}
        for dt in (0.04, 0.02):
            cfg = EvolutionConfig(dt=dt, t_max=4.0, method="expm")
            grids[dt] = two_time_correlation(rho0, gen, cfg, a)
        coarse, fine = grids[0.04], grids[0.02]
        for j in range(0, coarse.n_t, 7):
            for k in range(0, j + 1, 13):
                assert abs(grid_value(coarse, j, k) - grid_value(fine, 2 * j, 2 * k)) < 1e-6

    def test_halving_dt_rk4_grid_converged(self):
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        grids = {}
        for dt in (0.04, 0.02):
            cfg = EvolutionConfig(dt=dt, t_max=4.0, method="rk4")
            grids[dt] = two_time_correlation(rho0, gen, cfg, a)
        coarse, fine = grids[0.04], grids[0.02]
        for j in range(0, coarse.n_t, 7):
            for k in range(0, j + 1, 13):
                assert abs(grid_value(coarse, j, k) - grid_value(fine, 2 * j, 2 * k)) < 1e-6


class TestTwoTimeCorrelation:
    def test_initial_photonless_state_gives_zero_origin(self):
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=1.0)
        grid = two_time_correlation(rho0, gen, cfg, a)
        assert abs(grid_value(grid, 0, 0)) < 1e-14

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @pytest.mark.parametrize("monitor", [False, True])
    def test_vacuum_start_gives_a_zero_grid(self, method, monitor):
        # the photonless vacuum has an empty readout and operand sector: the
        # smoke check's references step empty vectors (rk4 used to take the
        # max of one), and the grid and its spectrum are exactly zero; with
        # the monitor at 0 the leak stop cuts the run after node 1
        p = ModelParams(g_a=1.0, g_M=0.4)
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        vac = np.zeros((space.dim, space.dim), dtype=complex)
        vac[0, 0] = 1.0
        mon = optical_excitation_operator(space) if monitor else None
        cfg = EvolutionConfig(dt=0.05, t_max=1.0, method=method)
        grid = two_time_correlation(vac, gen, cfg, ladder_operators(space)["a"], monitor=mon, kappa=0.3)
        assert grid.n_t == (2 if monitor else 21)
        assert (grid.run["forward_sector"], grid.run["adjoint_sector"], grid.width) == (0, 0, 0)
        assert not np.any(grid_dense(grid))
        for column in filtered_spectrum(grid, np.linspace(-2.0, 2.0, 9), 0.05, grid.horizon):
            np.testing.assert_array_equal(column, 0.0)

    def test_damped_cavity_analytic(self):
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        mon = optical_excitation_operator(space)
        cfg = EvolutionConfig(dt=0.02, t_max=400.0, method="rk4")
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.2)
        t = np.arange(grid.n_t) * grid.dt
        for k in (0, 17, 501, grid.n_t - 2):
            col = grid_column(grid, k)
            exact = np.exp(-0.2 * (t[k:] + t[k]) / 2)
            assert np.abs((col - exact) / exact).max() < 1e-5

    def test_diagonal_matches_direct_trajectory(self):
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        n_op = a.conj().T @ a
        cfg = EvolutionConfig(dt=0.02, t_max=3.0)
        grid = two_time_correlation(rho0, gen, cfg, a)
        traj = evolve(rho0, gen, cfg)
        for k in range(0, grid.n_t, 10):
            direct = np.trace(n_op @ traj.states[k]).real
            assert abs(grid_value(grid, k, k).real - direct) < 1e-8
            assert abs(grid_value(grid, k, k).imag) < 1e-10

    def test_conjugate_symmetry_by_independent_recomputation(self):
        # evolve the swapped-role operand rho(t') a' and compare against the
        # conjugate of the stored lower triangle
        p = ModelParams(J=0.3)
        space = build_space(1, 1, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=2.0)
        grid = two_time_correlation(rho0, gen, cfg, ladder_operators(space)["a"])
        traj = evolve(rho0, gen, cfg)
        stepper_cfg = cfg
        for k in (5, 40):
            X = traj.states[k] @ a.conj().T
            upper = []
            for j in range(k, grid.n_t):
                upper.append(np.trace(a @ X))
                X = _rk4_once(gen, X, stepper_cfg.dt)
            upper = np.asarray(upper)
            np.testing.assert_allclose(
                upper, np.conj(grid_column(grid, k)), atol=1e-10
            )

    def test_kernel_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        grid = two_time_correlation(rho0, gen, EvolutionConfig(dt=0.02, t_max=6.0), a)
        C = grid_dense(grid)
        for _ in range(5):
            v = rng.normal(size=grid.n_t) + 1j * rng.normal(size=grid.n_t)
            val = np.real(np.vdot(v, C @ v))
            assert val > -1e-8

    def test_memory_budget_error(self):
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=50.0, max_grid_bytes=1000)
        with pytest.raises(NumericalError, match="budget"):
            two_time_correlation(rho0, gen, cfg, a)


def _rk4_once(gen, X, h):
    k1 = gen.apply(X)
    k2 = gen.apply(X + 0.5 * h * k1)
    k3 = gen.apply(X + 0.5 * h * k2)
    k4 = gen.apply(X + h * k3)
    return X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class TestGridStorage:
    def test_value_and_conjugate_access(self):
        # C[0][0] = U0.X0, C[1][0] = U1.X0, C[1][1] = U0.X1
        U = np.array([[1, 0], [0, 1]], dtype=complex)
        X = np.array([[1, 2 + 1j], [3 - 1j, 0]], dtype=complex)
        grid = CorrelationGrid(dt=0.1, U=U, X=X)
        assert grid_value(grid, 1, 0) == 2 + 1j
        assert grid_value(grid, 0, 1) == 2 - 1j
        assert [grid_value(grid, k, k) for k in range(2)] == [1 + 0j, 3 - 1j]
        np.testing.assert_array_equal(grid_column(grid, 0), [1, 2 + 1j])
        assert grid.memory_bytes == 2 * 4 * 16

    def test_factor_shapes_checked(self):
        with pytest.raises(ConfigurationError, match="factor stacks"):
            CorrelationGrid(dt=0.1, U=np.zeros((3, 2)), X=np.zeros((3, 1)))
        for bad in ({"D": np.zeros(3)}, {"D": np.zeros((3, 2)), "U": np.zeros((3, 2))},
                    {"X": np.zeros((3, 2)), "N": np.zeros(2)}, {"X": np.zeros((3, 2))},
                    {"U": np.zeros((3, 2)), "X": np.zeros((3, 2)), "N": np.zeros(2),
                     "H": np.zeros(2)}):
            with pytest.raises(ConfigurationError, match="either the stacks U and X or one"):
                CorrelationGrid(dt=0.1, **bad)
        for N, H, X in ((np.zeros(2), np.zeros(3), np.zeros((3, 2))),
                        (np.zeros(2), np.zeros(2), np.zeros(2))):
            with pytest.raises(ConfigurationError, match="N and H must be vectors"):
                CorrelationGrid(dt=0.1, X=X, N=N, H=H)

    def test_d_form_value_access(self):
        # C[j][k] = conj(D[j]) . D[k]: C[0][0] = 1, C[1][0] = conj(1j) 2 = -2j
        grid = CorrelationGrid(dt=0.1, D=np.array([[1, 0], [1j, 1]], dtype=complex))
        assert grid_value(grid, 1, 0) == -1j and grid_value(grid, 0, 1) == 1j
        assert [grid_value(grid, k, k) for k in range(2)] == [1, 2]
        np.testing.assert_array_equal(grid_column(grid, 0), [1, -1j])
        assert grid.memory_bytes == 4 * 16

    def test_spectral_form_value_access(self):
        # U[tau] = N o H^tau: U[0] = (1, 2), U[1] = (0.5, -2j), U[2] = (0.25, -2)
        N, H = np.array([1, 2], dtype=complex), np.array([0.5, -1j])
        X = np.array([[1, 1], [1j, 0], [0, 1]], dtype=complex)
        grid = CorrelationGrid(dt=0.1, X=X, N=N, H=H)
        assert grid.U is None and grid.version == 4
        np.testing.assert_array_equal(adjoint_stack(grid), [[1, 2], [0.5, -2j], [0.25, -2]])
        assert grid_value(grid, 1, 0) == 0.5 - 2j and grid_value(grid, 0, 1) == 0.5 + 2j
        assert grid_value(grid, 2, 0) == 0.25 - 2 and grid_value(grid, 2, 1) == 0.5j
        np.testing.assert_array_equal(grid_column(grid, 1), [1j, 0.5j])
        assert grid.memory_bytes == (3 * 2 + 2 + 2) * 16

    def test_dump_versions(self, tmp_path):
        # the stepped U/X form writes version 2, byte for byte header, U, X;
        # the D form version 3, header and D; the spectral form version 4,
        # header (width |R_a|), N, H and X.  Each reloads to the same arrays.
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        for method, version in (("rk4", 2), ("expm", 3), ("rk4", 4)):
            with pytest.MonkeyPatch.context() as mp:
                if version == 2:
                    mp.setattr("omtc.dynamics._kronecker_factors", lambda *args: None)
                grid = two_time_correlation(
                    rho0, gen, EvolutionConfig(dt=0.05, t_max=2.0, method=method), a,
                    kappa=0.2, param_hash=b"\x02" * 32,
                )
            names = {2: ("U", "X"), 3: ("D",), 4: ("N", "H", "X")}[version]
            arrays = [operand_stack(grid) if name == "X" else getattr(grid, name) for name in names]
            path = tmp_path / f"grid{version}.bin"
            grid.save(path)
            header = b"OMTCGRID" + struct.pack(
                "<IIQddd", version, arrays[-1].shape[1], grid.n_t, 0.05, 0.2, float("nan")
            ) + b"\x02" * 32
            assert path.read_bytes() == header + b"".join(x.astype("<c16").tobytes() for x in arrays)
            assert len(path.read_bytes()) == 80 + 16 * sum(x.size for x in arrays)
            loaded = CorrelationGrid.load(path)
            assert loaded.version == grid.version == version
            stored = {name for name in ("U", "X", "D", "N", "H") if getattr(loaded, name) is not None}
            assert stored == set(names)
            # the stacks U and X stay in the dump and read back block by block
            read = {"U": adjoint_stack, "X": operand_stack}
            for name, old in zip(names, arrays):
                np.testing.assert_array_equal(read[name](loaded) if name in read else getattr(loaded, name), old)
            held = sum(old.nbytes for name, old in zip(names, arrays) if name not in read)
            assert loaded.memory_bytes == held == {2: 0, 3: arrays[0].nbytes, 4: 2 * 16 * loaded.width}[version]
            path.write_bytes(path.read_bytes()[:-16])
            with pytest.raises(ConfigurationError, match="truncated"):
                CorrelationGrid.load(path)

    def test_save_load_roundtrip(self, tmp_path):
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        grid = two_time_correlation(
            rho0, gen, EvolutionConfig(dt=0.05, t_max=2.0), a,
            kappa=0.2, param_hash=b"\x01" * 32,
        )
        assert grid.run["propagator"] == "spectral/spectral"
        path = tmp_path / "grid.bin"
        grid.save(path)
        loaded = CorrelationGrid.load(path)
        assert loaded.n_t == grid.n_t
        assert loaded.dt == grid.dt
        assert loaded.kappa == grid.kappa
        assert loaded.param_hash == b"\x01" * 32
        np.testing.assert_array_equal(adjoint_stack(loaded), adjoint_stack(grid))
        np.testing.assert_array_equal(operand_stack(loaded), operand_stack(grid))
        for Gamma in (0.0, 0.05):
            for new, old in zip(loaded.lag_sums(Gamma, grid.n_t - 1), grid.lag_sums(Gamma, grid.n_t - 1)):
                np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize(
        "spoil, match",
        [
            ("N nan", "non-finite"),
            ("H inf", "non-finite"),
            ("H grows", "step factor"),
        ],
    )
    def test_load_rejects_bad_spectral_factors(self, tmp_path, spoil, match):
        # a corrupt or hand-edited version 4 dump must not give growing
        # powers of H: N and H finite and max|H| <= 1 + 1e-12, the bound
        # the set-up applies; |H| = 1 + 1e-13 still loads
        X = np.ones((3, 2), dtype=complex)
        N, H = np.array([1.0, 2.0j]), np.array([0.5, 1.0 + 1e-13])
        path = tmp_path / "grid.bin"
        CorrelationGrid(dt=0.1, X=X, N=N, H=H).save(path)
        np.testing.assert_array_equal(CorrelationGrid.load(path).H, H)
        name, value = spoil.split()
        bad = {"nan": np.nan, "inf": np.inf, "grows": 1.0 + 1e-11}[value]
        N, H = N.copy(), H.copy()
        (N if name == "N" else H)[1] = bad
        CorrelationGrid(dt=0.1, X=X, N=N, H=H).save(path)
        with pytest.raises(ConfigurationError, match=match):
            CorrelationGrid.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dump at all")
        with pytest.raises(ConfigurationError):
            CorrelationGrid.load(path)

    def test_load_rejects_version_1_dump(self, tmp_path):
        # v1 stored the packed triangle (n_t = 2: three entries)
        header = b"OMTCGRID" + struct.pack("<IIQddd", 1, 0, 2, 0.1, 0.2, float("nan"))
        path = tmp_path / "v1.bin"
        path.write_bytes(header + b"\0" * 32 + np.zeros(3, dtype="<c16").tobytes())
        with pytest.raises(ConfigurationError, match="unsupported dump version 1"):
            CorrelationGrid.load(path)

    def test_load_rejects_truncated_dump(self, tmp_path):
        _, space, gen, rho0 = _damped_cavity()
        grid = two_time_correlation(
            rho0, gen, EvolutionConfig(dt=0.05, t_max=1.0), ladder_operators(space)["a"]
        )
        path = tmp_path / "grid.bin"
        grid.save(path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ConfigurationError, match="truncated"):
            CorrelationGrid.load(path)


def _brute_force_grid(gen, rho0, a, config):
    """Slow path: full d x d matrices, one forward propagation per column.

    C[j][k] = Tr[a' Phi_{t_j - t_k}(a rho(t_k))], stepped with gen.apply
    (RK4) or with the dense expm of the full superoperator.
    """
    d = gen.dim
    if config.method == "expm":
        P = linalg.expm(to_scipy(gen.superoperator()).toarray() * config.dt)

        def step(X):
            return (P @ X.reshape(-1)).reshape(d, d)
    else:
        def step(X):
            return _rk4_once(gen, X, config.dt)

    n_t = int(np.floor(config.t_max / config.dt + 0.5)) + 1
    rhos = [rho0]
    for _ in range(n_t - 1):
        rhos.append(step(rhos[-1]))
    C = np.zeros((n_t, n_t), dtype=complex)
    for k in range(n_t):
        X = a @ rhos[k]
        for j in range(k, n_t):
            C[j, k] = np.trace(a.conj().T @ X)
            X = step(X)
    return C


class TestInvariantSectors:
    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @settings(max_examples=6)
    @given(point=model_points())
    def test_sector_grid_matches_full_space_oracle(self, method, point):
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        rho0 = initial_state(params, space, initial)
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=0.4, method=method)
        grid = two_time_correlation(rho0, gen, cfg, a)
        brute = _brute_force_grid(gen, rho0, a, cfg)
        full = np.tril(brute) + np.tril(brute, -1).conj().T
        # |C[j][k]| <= 1 for one excitation, so an absolute bound is relative
        assert np.abs(grid_dense(grid) - full).max() <= 1e-12

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_capped_and_uncapped_grids_agree(self, method):
        params = ModelParams(J=0.4, delta_ac=-0.3, gamma_a_coop=0.03, gamma_M=0.05, Mbar=0.02)
        grids = {}
        for cap in (1, None):
            space = build_space(1, 2, cap)
            gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
            grids[cap] = two_time_correlation(
                initial_state(params, space, "symmetric"), gen,
                EvolutionConfig(dt=0.02, t_max=4.0, method=method),
                ladder_operators(space)["a"],
            )
        assert grids[1].run["forward_sector"] == grids[None].run["forward_sector"] == 81
        assert grids[1].run["adjoint_sector"] == grids[None].run["adjoint_sector"] == 27
        capped, uncapped = grid_dense(grids[1]), grid_dense(grids[None])
        assert np.abs(capped - uncapped).max() <= 1e-12 * np.abs(capped).max()


@st.composite
def _hermitian_state_points(draw):
    """A model point with a random density matrix on a random support."""
    params, space, _ = draw(model_points())
    d = space.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.permutation(d)[: draw(st.integers(1, d))]
    m = np.zeros((d, draw(st.integers(1, 3))), dtype=complex)
    m[support] = rng.normal(size=(len(support), m.shape[1])) + 1j * rng.normal(
        size=(len(support), m.shape[1])
    )
    rho0 = m @ m.conj().T
    return params, space, rho0 / np.trace(rho0).real


def _run(name, rho0, gen, space):
    cfg = EvolutionConfig(dt=0.02, t_max=0.2)
    if name == "evolve":
        return evolve(rho0, gen, cfg)
    return two_time_correlation(rho0, gen, cfg, ladder_operators(space)["a"])


class TestHermitianCoordinates:
    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @settings(max_examples=6)
    @given(point=_hermitian_state_points())
    def test_evolve_matches_full_space_oracle(self, method, point):
        params, space, rho0 = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        S = gen.superoperator()
        # the real block is V^H L V with the first n columns of V unitary
        # and the last (p's) zero, and it has no imaginary part
        herm = _HermitianCoordinates(_ForwardSector(S, rho0))
        L = block_oracle(to_scipy(S), herm.index)
        n = len(herm.index)
        V = to_scipy(herm.V)
        assert abs(V[:, :n].conj().T @ V[:, :n] - sparse.identity(n)).max() < 1e-15
        assert V[:, n].nnz == 0
        # real coordinates map to Hermitian matrices on the sector, and
        # coords inverts matrix there; p reads only the dropped diagonal
        for y in np.random.default_rng(n).normal(size=(3, n + 1)):
            rho = herm.matrix(y)
            assert np.abs(rho - rho.conj().T).max() <= 1e-15
            z = herm.coords(rho)
            assert np.abs(z[:n] - y[:n]).max() <= 1e-15 and z[-1] == 0.0
        raw = V.conj().T @ L @ V
        assert abs(raw.imag).max() <= 1e-12 * abs(L).max()
        assert abs(raw.real - herm.block).max() == 0.0

        cfg = EvolutionConfig(dt=0.02, t_max=0.2, method=method)
        states = evolve(rho0, gen, cfg).states
        d = space.dim
        if method == "expm":
            P = linalg.expm(to_scipy(S).toarray() * cfg.dt)

            def step(X):
                return (P @ X.reshape(-1)).reshape(d, d)
        else:
            def step(X):
                return _rk4_once(gen, X, cfg.dt)
        ref = rho0
        for rho in states:
            # unit trace, so an absolute bound is relative
            assert np.abs(rho - ref).max() <= 1e-12
            ref = step(ref)

    def test_only_stepped_passes_build_coordinates(self):
        # the D and spectral forms (gamma_M = 0) read neither V nor the real
        # block, so a builder that raises leaves them as they are; the
        # stepped form (gamma_M > 0) and evolve build the coordinates, and
        # so run their Hermiticity check, before their first stepper
        from omtc import dynamics

        space = build_space(1, 2, excitation_cap=1)
        build, steps = dynamics._HermitianCoordinates.__init__, dynamics._sector_steps
        events = []

        def refuse(*args):
            raise AssertionError("a kernel run built Hermitian coordinates")

        def built(self, *args):
            build(self, *args)
            events.append("coordinates")

        def stepper(*args, **kwargs):
            events.append("stepper")
            return steps(*args, **kwargs)

        for gamma_M, method in itertools.product((0.0, 0.05), ("expm", "rk4")):
            rho0, gen, cfg, a, mon = _correlation_point(
                ModelParams(J=0.3, gamma_M=gamma_M, Mbar=0.02), space, dt=0.02, t_max=1.0,
                method=method,
            )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("omtc.dynamics._sector_steps", stepper)
                mp.setattr("omtc.dynamics._HermitianCoordinates.__init__", built if gamma_M else refuse)
                events.clear()
                grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
                kernel = grid.run["propagator"] in ("factored/separable", "spectral/spectral")
                assert kernel == (gamma_M == 0) and events[:1] == ([] if kernel else ["coordinates"])
                if gamma_M:
                    events.clear()
                    evolve(rho0, gen, cfg, monitor=mon)
                    assert events == ["coordinates", "stepper"]

    @pytest.mark.parametrize("run", ["evolve", "correlation"])
    def test_non_hermitian_generator_rejected_before_stepping(self, run, monkeypatch):
        _, space, gen, rho0 = _damped_cavity()

        class NonHermitian:
            dim = gen.dim
            apply = gen.apply
            apply_adjoint = gen.apply_adjoint

            def superoperator(self):
                return from_scipy(to_scipy(gen.superoperator()) - 0.01j * sparse.identity(gen.dim**2))

            def no_jump(self):
                # -0.01j rho = -0.005j rho - 0.005j rho, so both sectors are
                # Kronecker sums of these; B = A^H fails, and a correlation
                # run takes the stepped form, whose coordinates reject L
                A, B = gen.no_jump()
                return A - 0.005j * np.eye(len(A)), B - 0.005j * np.eye(len(B))

        def no_stepper(*args, **kwargs):
            raise AssertionError("a stepper was built before the Hermiticity check")

        monkeypatch.setattr("omtc.dynamics._sector_steps", no_stepper)
        with pytest.raises(NumericalError, match="does not preserve Hermiticity"):
            _run(run, rho0, NonHermitian(), space)

    @pytest.mark.parametrize("run", ["evolve", "correlation"])
    def test_non_hermitian_rho0_rejected(self, run):
        _, space, gen, rho0 = _damped_cavity()
        rho0 = rho0.copy()
        rho0[0, 1] = 0.1
        with pytest.raises(ConfigurationError, match="Hermitian"):
            _run(run, rho0, gen, space)


def _sequential_correlation(rho0, gen, config, a_op, monitor=None):
    """Slow path: both passes one node at a time, as before the blocked passes.

    One matvec with E = exp(B dt) (expm) or one RK4 step per node, with the
    trace guard and the leak stop checked node by node; no smoke check.
    """
    S = to_scipy(gen.superoperator())
    a_mat = np.asarray(a_op)
    herm = _HermitianCoordinates(_ForwardSector(gen.superoperator(), rho0))
    a_map = sparse.kron(sparse.csr_matrix(a_mat), sparse.identity(gen.dim), format="csr")
    a_map = a_map[:, herm.index]
    a_map.eliminate_zeros()
    adj = closure_oracle(S, np.flatnonzero(a_map.getnnz(axis=1)))
    a_map = (a_map[adj] @ to_scipy(herm.V)).tocsr()
    step = _sector_steps(herm.block, config.dt, config.method)
    adjoint_step = _sector_steps(block_oracle(S, adj).conj().T.tocsr(), config.dt, config.method)
    mon = None
    if monitor is not None:
        mon = (to_scipy(herm.V).T @ np.asarray(monitor).T.reshape(-1)[herm.index]).real
    y = herm.coords(rho0)
    trace0 = y[: herm.n_diag].sum()
    operands, residual = [], None
    for k in range(config.n_max):
        drift = abs(y[: herm.n_diag].sum() - trace0)
        if drift > TRACE_DRIFT_LIMIT:
            raise NumericalError(f"trace drift {drift:.3e} at step {k}")
        operands.append(a_map @ y)
        residual = None if mon is None else mon @ y
        if residual is not None and residual < config.leak_tolerance and k > 0:
            break
        y = _step(step, y)
    U, Uc = a_mat.reshape(-1)[adj], []
    for _ in operands:
        Uc.append(np.conj(U))
        U = _step(adjoint_step, U)
    return CorrelationGrid(
        dt=config.dt, U=np.array(Uc), X=np.array(operands), residual_excitation=residual
    )


def _same_stacks(grid, other):
    """Whether two U/X grids hold bit-identical X and U stacks."""
    return np.array_equal(grid.X, other.X) and np.array_equal(adjoint_stack(grid), adjoint_stack(other))


def _assert_close_or_dark(new, old, n_t, scale=1.0):
    """new equals old to 1e-12 of max|old|, or both lie below n_t eps scale.

    scale bounds the entries: |C[j][k]| <= tr(rho0) max|a|^2 = 1 for one
    excitation.  An exactly dark start (the antisymmetric one) has a rho = 0
    in exact arithmetic, so both paths hold roundoff that grows with the
    step count, and a relative comparison would compare noise with noise.
    """
    floor = n_t * np.finfo(float).eps * scale
    if np.abs(old).max() <= floor:
        assert np.abs(new).max() <= floor
    else:
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


def _assert_matches_sequential(grid, ref):
    assert grid.n_t == ref.n_t
    if ref.residual_excitation is None:
        assert grid.residual_excitation is None
    else:
        assert grid.residual_excitation == pytest.approx(ref.residual_excitation, rel=1e-12)
    pairs = [(grid_dense(grid), grid_dense(ref))]
    # a spectral grid's stacks are in eigen coordinates: only their
    # pairing, the grid, compares
    if grid.D is None and grid.run["propagator"] != "spectral/spectral":
        pairs += [(grid.X, ref.X), (adjoint_stack(grid), adjoint_stack(ref))]
    for new, old in pairs:
        _assert_close_or_dark(new, old, ref.n_t)


class TestBlockedPasses:
    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @settings(max_examples=8)
    @given(
        point=model_points(),
        t_max=st.sampled_from([0.4, 1.0, 2.6]),
        leak=st.floats(0.9, 1.0),
    )
    def test_matches_sequential_passes(self, method, point, t_max, leak):
        # b = 4, 4 and 8 at n_max = 21, 51 and 131; the drawn leak
        # tolerances stop many runs early, anywhere in a block
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        rho0 = initial_state(params, space, initial)
        a = ladder_operators(space)["a"]
        mon = optical_excitation_operator(space)
        cfg = EvolutionConfig(dt=0.02, t_max=t_max, method=method, leak_tolerance=leak)
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        _assert_matches_sequential(grid, _sequential_correlation(rho0, gen, cfg, a, mon))

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @pytest.mark.parametrize(
        "case, b, t_max, n_t",
        [
            ("n_max < b", 32, 0.4, 21),
            ("n_max not a multiple of b", 8, 0.4, 21),
            ("leak stop on the first row of a block", 8, 400.0, 25),
            ("leak stop in the middle of a block", 16, 400.0, 25),
        ],
    )
    def test_block_edges(self, method, case, b, t_max, n_t, monkeypatch):
        # the one-photon decay exp(-0.2 t) first falls below the tolerance
        # at node 24, row 0 of block 3 for b = 8 and row 8 of block 1 for b = 16
        _, space, gen, rho0 = _damped_cavity(N_m=2)
        a = ladder_operators(space)["a"]
        mon = optical_excitation_operator(space)
        monkeypatch.setattr("omtc.dynamics._block_size", lambda n_max: b)
        cfg = EvolutionConfig(
            dt=0.02, t_max=t_max, method=method, leak_tolerance=np.exp(-0.2 * 0.02 * 23.5)
        )
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.n_t == n_t
        _assert_matches_sequential(grid, _sequential_correlation(rho0, gen, cfg, a, mon))
        traj = evolve(rho0, gen, cfg, monitor=mon)
        assert len(traj.states) == n_t
        assert traj.stopped_early == (t_max == 400.0)

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_leak_stop_never_at_the_first_node(self, method):
        # the photon number starts at 0, below the tolerance, and is still
        # below it at node 1 (about 5e-3), where the pass stops
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        mon = a.conj().T @ a
        cfg = EvolutionConfig(dt=0.02, t_max=1.0, method=method, leak_tolerance=1e-2)
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.n_t == 2
        _assert_matches_sequential(grid, _sequential_correlation(rho0, gen, cfg, a, mon))


def _readout(space):
    """The entries a correlation run reads: the columns of a x I and the monitor's support."""
    a = ladder_operators(space)["a"]
    a_cols = sparse.kron(a, sparse.identity(space.dim), format="csr").getnnz(axis=0)
    mon = optical_excitation_operator(space)
    return np.union1d(np.flatnonzero(a_cols), np.flatnonzero(mon.T)), a, mon


class TestScipyOracle:
    """The numpy superoperator, sector closures and blocks against the scipy code they replaced."""

    @settings(max_examples=30)
    @given(point=model_points())
    @example(point=(ModelParams(J=0.3, gamma_M=0.1, Mbar=0.01, gamma_a_coop=0.02), build_space(1, 2), 2))
    @example(point=(ModelParams(gamma_M=0.2, gamma_a_coop=-0.03), build_space(1, 1, 1), "symmetric"))
    def test_index_sets_blocks_and_superoperator(self, point):
        params, space, initial = point
        H, channels = build_hamiltonian(params, space), build_dissipators(params, space)
        gen = Generator(H, channels)
        S, ref = gen.superoperator(), kron_superoperator(H, channels)
        np.testing.assert_array_equal(S.indptr, ref.indptr)
        np.testing.assert_array_equal(S.indices, ref.indices)
        assert np.abs(S.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
        # the sectors as the scipy path found them: full-pattern closures of
        # the forward sector, of the readout's ancestors in its block, and of
        # the operand sector
        d, rho0 = space.dim, initial_state(params, space, initial)
        reads, a, mon = _readout(space)
        sector = closure_oracle(ref, np.flatnonzero((rho0 != 0) | (rho0.T != 0)))
        i, j = np.divmod(reads, d)
        seed = np.flatnonzero(np.isin(sector, np.concatenate([reads, j * d + i])))
        readout = sector[closure_oracle(block_oracle(ref, sector).T.tocsr(), seed)]
        i, j = np.divmod(readout, d)
        rows, at = np.nonzero(a[:, i])
        operand = closure_oracle(ref, rows * d + j[at])
        np.testing.assert_array_equal(_ForwardSector(S, rho0).index, sector)
        fwd = _ForwardSector(S, rho0, reads, a)
        np.testing.assert_array_equal(fwd.index, readout)
        np.testing.assert_array_equal(_closure(S.successors, rows * d + j[at]), operand)
        np.testing.assert_array_equal(fwd.adj, operand)
        for name in ("indptr", "indices", "data"):  # S.block(operand) is checked below
            np.testing.assert_array_equal(getattr(fwd.Sa, name), getattr(S.block(operand), name))
        cfg = EvolutionConfig(dt=0.02, t_max=0.1)
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert (grid.run["forward_sector"], grid.run["adjoint_sector"]) == (len(readout), len(operand))
        for index in (sector, readout, operand):
            new, old = to_scipy(S.block(index)).toarray(), block_oracle(ref, index).toarray()
            assert np.abs(new - old).max() <= 1e-15 * np.abs(old).max(initial=1e-300)


class TestReadoutSector:
    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @settings(max_examples=8)
    @given(
        point=model_points(),
        t_max=st.sampled_from([0.4, 2.6]),
        leak=st.floats(0.9, 1.0),
    )
    def test_matches_full_sector(self, method, point, t_max, leak):
        # the full-sector grid comes from the same code with the readout
        # ignored, as evolve runs it.  Both runs step densely, as the full
        # sector (no product P x Q) must, so the grids differ by the pruning
        # alone; TestFactoredPropagator compares the factored stepper with
        # the dense one on the readout sector.
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        rho0 = initial_state(params, space, initial)
        _, a, mon = _readout(space)
        cfg = EvolutionConfig(dt=0.02, t_max=t_max, method=method, leak_tolerance=leak)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omtc.dynamics._kronecker_factors", lambda *args: None)
            grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
            mp.setattr(
                "omtc.dynamics._ForwardSector",
                lambda S, rho0, reads=None, a=None: _ForwardSector(S, rho0, None, a),
            )
            full = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.run["forward_sector"] < full.run["forward_sector"]
        assert grid.n_t == full.n_t
        if method == "rk4":
            # the kept rows of the real block hold the same terms in the same
            # order, so the stacks are bit-identical, and so is the monitor,
            # summed over its support alone
            assert _same_stacks(grid, full)
            assert grid.residual_excitation == full.residual_excitation
        _assert_matches_sequential(grid, full)

    @settings(max_examples=10)
    @given(point=model_points(), method=st.sampled_from(["rk4", "expm"]))
    def test_kept_set_closed_and_p_exact(self, point, method):
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        S = gen.superoperator()
        # a ground-state share gives p a nonzero start
        vac = space.ket(0, 0, 0, 0)
        rho0 = 0.7 * initial_state(params, space, initial) + 0.3 * np.outer(vac, vac.conj())
        reads, _, _ = _readout(space)
        d = space.dim
        fwd, full = _ForwardSector(S, rho0, reads), _ForwardSector(S, rho0)
        np.testing.assert_array_equal(np.union1d(fwd.index, fwd.dropped), full.index)
        assert np.isin(np.intersect1d(reads, full.index), fwd.index).all()
        i, j = np.divmod(fwd.index, d)
        np.testing.assert_array_equal(np.sort(j * d + i), fwd.index)
        assert not np.any(to_scipy(S)[fwd.index][:, fwd.dropped].data)
        # the readout block, taken from M without a second extraction, is
        # S[index, index] entry for entry
        block, ref = fwd.readout_block, S.block(fwd.index)
        for name in ("indptr", "indices", "data", "shape"):
            np.testing.assert_array_equal(getattr(block, name), getattr(ref, name))
        # one optical excitation: rho_11 is kept, rho_00 is carried by p alone
        n_1 = 3 * (space.N_m + 1)
        assert (len(fwd.index), len(fwd.dropped)) == (n_1**2, (space.N_m + 1) ** 2)
        # p follows the full sector's dropped diagonal step by step
        kept, whole = _HermitianCoordinates(fwd), _HermitianCoordinates(full)
        steps = [_sector_steps(s.block, 0.02, method) for s in (kept, whole)]
        y, z = kept.coords(rho0), whole.coords(rho0)
        for _ in range(20):
            y, z = _step(steps[0], y), _step(steps[1], z)
            rho = whole.matrix(z).reshape(-1)
            assert abs(y[-1] - rho[fwd.dropped_diag].sum().real) <= 1e-12
            assert np.abs(kept.matrix(y).reshape(-1)[fwd.index] - rho[fwd.index]).max() <= 1e-12

    @settings(max_examples=20)
    @given(point=model_points())
    def test_operand_map_entries_are_those_of_a_kron_identity(self, point):
        # the sector's operand map entries come from the pattern of a that
        # also seeds the operand sector; as a matrix they are
        # (a x I)[adj, index] of the scipy Kronecker product, entry for entry
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        reads, a, _ = _readout(space)
        fwd = _ForwardSector(gen.superoperator(), initial_state(params, space, initial), reads, a)
        a_map = SparseMatrix.from_entries(*fwd.a_entries, (len(fwd.adj), len(fwd.index)))
        ref = sparse.kron(sparse.csr_matrix(a), sparse.identity(space.dim), format="csr")
        assert not ref[:, fwd.index][np.setdiff1d(np.arange(space.dim**2), fwd.adj)].nnz
        ref = ref[fwd.adj][:, fwd.index].tocsr()
        ref.sort_indices()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a_map, name), getattr(ref, name))

    def test_reads_closed_under_transposition(self):
        # without a generator nothing flows, so the kept set is the read
        # entry and its transpose
        rng = np.random.default_rng(9)
        d = 4
        rho0 = _random_rho(rng, d)
        fwd = _ForwardSector(from_scipy(sparse.csr_matrix((d * d, d * d))), rho0, reads=np.array([1 * d + 2]))
        np.testing.assert_array_equal(fwd.index, [1 * d + 2, 2 * d + 1])
        assert len(fwd.dropped) == d * d - 2
        assert _HermitianCoordinates(fwd).coords(rho0)[-1] == pytest.approx(np.trace(rho0).real)

    def test_unclosed_readout_rejected(self, monkeypatch):
        # a closure that stops at the seed would leave entries that feed the
        # readout outside it
        from omtc import dynamics

        closure, calls = dynamics._closure, []

        def shallow(adjacency, seed):
            calls.append(seed)
            return closure(adjacency, seed) if len(calls) == 1 else np.unique(seed)

        monkeypatch.setattr("omtc.dynamics._closure", shallow)
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        reads, _, _ = _readout(space)
        with pytest.raises(NumericalError, match="readout sector is not closed"):
            _ForwardSector(gen.superoperator(), initial_state(p, space), reads)

    def test_trace_loss_on_dropped_part_rejected_at_set_up(self, monkeypatch):
        # the stepped form (gamma_M > 0) checks it with its Hermitian
        # coordinates, the spectral and D forms (gamma_M = 0, rk4 and expm)
        # with their trace checks, each before a stepper or kernel is built
        space = build_space(1, 2, excitation_cap=1)
        d = space.dim
        ground = np.flatnonzero(optical_excitation_operator(space).diagonal() == 0)
        loss = np.zeros(d * d)
        loss[ground * d + ground] = 1e-3

        class LossyGround:
            # loses trace on the rho_00 diagonal, which the readout drops
            def __init__(self, gen):
                self.gen, self.dim, self.no_jump = gen, gen.dim, gen.no_jump
                self.apply, self.apply_adjoint = gen.apply, gen.apply_adjoint

            def superoperator(self):
                return from_scipy(to_scipy(self.gen.superoperator()) - sparse.diags(loss))

        def no_stepper(*args, **kwargs):
            raise AssertionError("a stepper was built before the trace check")

        monkeypatch.setattr("omtc.dynamics._sector_steps", no_stepper)
        for name in ("_SeparableKernel", "_SpectralKernel"):
            monkeypatch.setattr(f"omtc.dynamics.{name}.__init__", no_stepper)
        for gamma_M, method in ((0.05, "rk4"), (0.0, "rk4"), (0.0, "expm")):
            p = ModelParams(gamma_M=gamma_M, Mbar=0.02)
            gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
            with pytest.raises(NumericalError, match="does not preserve the trace of the dropped"):
                two_time_correlation(
                    initial_state(p, space), LossyGround(gen),
                    EvolutionConfig(dt=0.02, t_max=1.0, method=method),
                    ladder_operators(space)["a"], monitor=optical_excitation_operator(space),
                )


def _correlation_point(params, space, initial=1, **config):
    gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
    return (initial_state(params, space, initial), gen, EvolutionConfig(**config),
            ladder_operators(space)["a"], optical_excitation_operator(space))


def _assert_same_spectra(grid, dense, Gamma=0.05):
    """A factored form against the U/X form: C, the lag sums G and A and both spectrum columns.

    Each to 1e-12 of its maximum over the dense path's values, or of the
    size of its terms where they cancel to roundoff (the rate's
    kappa Gamma^2 max|G|, the counts' kappa Gamma max|A| / 2 plus the rate's
    over 2 Gamma; at a horizon of one step the counts vanish so).  An
    exactly dark start is compared by _assert_close_or_dark alone: its lag
    sums and columns are weighted sums of roundoff.
    """
    n = grid.n_t - 1
    C, C_ref = grid_dense(grid), grid_dense(dense)
    _assert_close_or_dark(C, C_ref, grid.n_t)
    if np.abs(C_ref).max() <= grid.n_t * np.finfo(float).eps:
        return
    deltas = np.linspace(-6.0, 6.0, 49)
    new = [*grid.lag_sums(Gamma, n), *filtered_spectrum(grid, deltas, Gamma, grid.horizon)]
    old = [*dense.lag_sums(Gamma, n), *filtered_spectrum(dense, deltas, Gamma, grid.horizon)]
    G, A = (np.abs(x).max() for x in old[:2])
    rate = dense.kappa * Gamma**2 * G
    terms = (G, A, rate, dense.kappa * Gamma * A / 2 + rate / (2 * Gamma))
    for x, y, size in zip(new, old, terms, strict=True):
        assert np.abs(x - y).max() <= 1e-12 * max(np.abs(y).max(), size)


def _factors_of(gen, S, index):
    """_kronecker_factors of the sector block S[index, index], or None where index is no product P x Q."""
    i, j = np.divmod(index, gen.dim)
    P, Q = np.unique(i), np.unique(j)
    if len(index) != len(P) * len(Q):
        return None
    return _kronecker_factors(gen.no_jump(), S.block(index), P, Q)


def _sectors(space, gen, rho0):
    """(fwd, Q0, adj) of a correlation run on the model's sectors; the operand sector adj is Q0 x P."""
    reads, a, _ = _readout(space)
    fwd = _ForwardSector(gen.superoperator(), rho0, reads, a)
    Q0 = np.flatnonzero(optical_excitation_operator(space).diagonal() == 0)
    return fwd, Q0, (Q0[:, None] * space.dim + fwd.P).reshape(-1)


def _d_form(space, gen, rho0, monitor=None):
    """The D form that _kernel sets up for an expm correlation run of a, dt = 0.02, b = 4."""
    fwd, _, adj = _sectors(space, gen, rho0)
    np.testing.assert_array_equal(fwd.adj, adj)
    cfg = EvolutionConfig(dt=0.02, t_max=1.0, method="expm")
    return _kernel(gen, fwd, rho0, ladder_operators(space)["a"], monitor, cfg, 4)


def _factored_nodes(form, n):
    """The nodes g^0 .. g^(n-1) of the D form's forward pass, one row per node."""
    return np.concatenate([x.copy() for x in _nodes(form, n)])  # the groups share a buffer


def _factored_matrix(form, x):
    """rho[P, P] = W W^H of the D form's node x (|P| entries), from its state."""
    return form.state(x)[0].reshape(len(x), len(x))


def _unfactored(rho0, gen, cfg, a, mon):
    """The same run with no Kronecker factors: the U/X form, both passes dense."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("omtc.dynamics._kronecker_factors", lambda *args: None)
        return two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)


class TestFactoredPropagator:
    @pytest.mark.parametrize("initial", [1, 2, "symmetric", "antisymmetric"])
    @settings(max_examples=5)
    @given(point=model_points(), t_max=st.sampled_from([0.4, 2.6]), leak=st.floats(0.9, 1.0))
    # the antisymmetric state is dark here: both paths' correlations are roundoff
    @example(
        point=(ModelParams(g_a=1.0, g_M=1.0, kappa=0.5, gamma_a=0.0625, Mbar=1e-4),
               build_space(1, 0, 1), 1),
        t_max=2.6,
        leak=0.9375,
    )
    def test_matches_dense_path(self, initial, point, t_max, leak):
        # no mechanical losses, so no jump inside either sector: the D form
        # against the U/X form over the drawn J, delta_ac, gamma_a_coop and
        # Mbar > 0, which makes rho0 a thermal mixture
        params, space, _ = point
        params = replace(params, gamma_M=0.0)
        rho0, gen, cfg, a, mon = _correlation_point(
            params, space, initial, dt=0.02, t_max=t_max, method="expm", leak_tolerance=leak
        )
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        dense = _unfactored(rho0, gen, cfg, a, mon)
        assert (grid.run["propagator"], dense.run["propagator"]) == ("factored/separable", "dense/dense")
        assert grid.n_t == dense.n_t
        assert grid.residual_excitation == pytest.approx(dense.residual_excitation, rel=1e-12)
        _assert_same_spectra(grid, dense)

    @settings(max_examples=6)
    @given(point=model_points(), t_max=st.sampled_from([0.4, 2.6]), leak=st.floats(0.9, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_full_column_support_matches_dense_path(self, point, t_max, leak, seed):
        # a random Hermitian rho0 on all of P, so s = |P|, with a ground
        # share, and a positive monitor on P that is not diagonal, scaled to
        # read 1 at t = 0, so the drawn tolerances stop many runs early
        params, space, _ = point
        params = replace(params, gamma_M=0.0)
        _, gen, cfg, a, _ = _correlation_point(
            params, space, dt=0.02, t_max=t_max, method="expm", leak_tolerance=leak
        )
        rng = np.random.default_rng(seed)
        P = np.flatnonzero(optical_excitation_operator(space).diagonal() == 1)
        vac = space.ket(0, 0, 0, 0)
        rho0 = 0.2 * np.outer(vac, vac.conj())
        rho0[np.ix_(P, P)] = 0.8 * _random_rho(rng, len(P))
        mon = np.zeros_like(rho0)
        mon[np.ix_(P, P)] = _random_rho(rng, len(P))
        mon /= np.trace(mon @ rho0).real
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        dense = _unfactored(rho0, gen, cfg, a, mon)
        assert grid.run["propagator"] == "factored/separable" and grid.run["columns"][0] == len(P)
        assert grid.n_t == dense.n_t
        assert grid.residual_excitation == pytest.approx(dense.residual_excitation, rel=1e-12)
        _assert_same_spectra(grid, dense)

    @pytest.mark.parametrize(
        "initial, Mbar, rank", [(1, 0.0, 1), ("symmetric", 0.0, 1), (2, 0.02, 3)]
    )
    def test_columns_are_the_rank_of_the_start(self, initial, Mbar, rank, monkeypatch):
        # W comes from the eigenpairs of rho0[P, P]: one atom excited and the
        # symmetric superposition are pure (s = 1), |e><e| (x) thermal
        # phonons has one eigenvector per phonon number with a nonzero
        # weight (all N_m + 1 = 3 when Mbar > 0); D is |Q0| s wide, |Q0| = 3
        from omtc import dynamics

        init, starts = dynamics._SeparableKernel.__init__, []

        def spy(self, sector, bases, W, *args):
            starts.append(W)
            init(self, sector, bases, W, *args)

        monkeypatch.setattr("omtc.dynamics._SeparableKernel.__init__", spy)
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3, Mbar=Mbar), space, initial, dt=0.02, t_max=1.0, method="expm"
        )
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.run["columns"] == (rank, 3 * rank) and grid.D.shape == (grid.n_t, 3 * rank)
        cfg = replace(cfg, method="rk4")
        assert two_time_correlation(rho0, gen, cfg, a, monitor=mon).run["columns"] == (None, None)
        (W,) = starts
        P = _sectors(space, gen, rho0)[0].P
        assert np.abs(W @ W.conj().T - rho0[np.ix_(P, P)]).max() <= 1e-15

    def test_readout_on_any_operand_sector(self, monkeypatch):
        # the D form reads a monitor N that is not diagonal as
        # Re tr(N W W^H), and |D_k|^2 = Tr[a rho(t_k) a']; an operand sector
        # other than Q0 x P (here one more column, a ground state) fails the
        # structural check and takes the U/X form
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, cfg, a, _ = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02), space, 2, dt=0.02, t_max=1.0, method="expm"
        )
        d, a_mat = space.dim, a
        fwd, Q0, _ = _sectors(space, gen, rho0)
        P, mon = fwd.P, np.zeros_like(rho0)
        mon[np.ix_(P, P)] = _random_rho(np.random.default_rng(3), len(P))
        form = _d_form(space, gen, rho0, mon)
        rows, values, traces = zip(*form.readout(9))
        # b = 4: one group of the blocks of nodes 0 .. 7, and the last
        # node's block of one row, a group of its own
        assert traces == (None,) * 2 and [len(D) for D in rows] == [8, 1]
        nodes = _factored_nodes(form, 9)
        for k, (D, m) in enumerate(zip(np.concatenate(rows), np.concatenate(values), strict=True)):
            rho = np.zeros_like(rho0)
            rho[np.ix_(P, P)] = _factored_matrix(form, nodes[k])
            assert abs(m - np.trace(mon @ rho).real) <= 1e-15
            assert abs(np.vdot(D, D) - np.trace(a_mat @ rho @ a_mat.conj().T)) <= 1e-15

        from omtc import dynamics

        closure, calls = dynamics._closure, []

        def wider(adjacency, seed):
            calls.append(closure(adjacency, seed))
            if len(calls) == 3:  # the operand sector, after the forward sector's two
                calls[-1] = np.union1d(calls[-1], Q0 * d + Q0[0])
            return calls[-1]

        monkeypatch.setattr("omtc.dynamics._closure", wider)
        grid = two_time_correlation(rho0, gen, cfg, a)
        assert grid.run["propagator"] == "dense/dense" and grid.run["adjoint_sector"] == (len(P) + 1) * len(Q0)
        assert _factors_of(gen, gen.superoperator(), calls[2]) is not None
        monkeypatch.setattr("omtc.dynamics._closure", closure)
        _assert_close_or_dark(grid_dense(grid), grid_dense(two_time_correlation(rho0, gen, cfg, a)),
                              grid.n_t)

    def test_diagonal_monitor_reads_populations(self):
        # a diagonal N (the optical-excitation monitor is the identity on P)
        # is read, like any other, as a quadratic form in the powers g^k;
        # it still reads Re tr(N W W^H), its imaginary part dropped
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, _, a, _ = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02), space, 2, dt=0.02, t_max=1.0, method="expm"
        )
        P, mon = _sectors(space, gen, rho0)[0].P, np.zeros_like(rho0)
        N = np.diag(np.random.default_rng(4).uniform(0.5, 1.5, len(P)) + 0.3j)
        mon[np.ix_(P, P)] = N
        form = _d_form(space, gen, rho0, mon)
        values = np.concatenate([m for _, m, _ in form.readout(9)])
        nodes = _factored_nodes(form, 9)
        for k, m in enumerate(values):
            assert abs(m - np.trace(N @ _factored_matrix(form, nodes[k])).real) <= 1e-15

    def test_ground_block_that_is_not_diagonal(self):
        # the model's ground block -iH[Q0, Q0] is diagonal (phonon energies),
        # so its eigenbasis is the identity; a phonon displacement acting
        # on the optical ground manifold alone mixes it, so the rotation by
        # V^H matters, and the D form must still match the dense path
        space = build_space(1, 2, excitation_cap=1)
        params = ModelParams(J=0.3, Mbar=0.02, gamma_a_coop=0.02)
        b = ladder_operators(space)["b"]
        P0 = np.diag((optical_excitation_operator(space).diagonal() == 0).astype(float))
        H = build_hamiltonian(params, space) + 0.4 * (P0 @ (b + b.conj().T) @ P0)
        gen = Generator(H, build_dissipators(params, space))
        A0 = gen.no_jump()[0][np.ix_(*[np.flatnonzero(P0.diagonal())] * 2)]
        assert np.abs(A0 - np.diag(np.diag(A0))).max() > 0.1
        for initial in (1, "symmetric"):
            rho0 = initial_state(params, space, initial)
            a, mon = ladder_operators(space)["a"], optical_excitation_operator(space)
            cfg = EvolutionConfig(dt=0.02, t_max=2.6, method="expm")
            grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
            assert grid.run["propagator"] == "factored/separable"
            _assert_same_spectra(grid, _unfactored(rho0, gen, cfg, a, mon))

    def test_missed_column_fails_smoke_check(self, monkeypatch):
        # the smoke check steps the forward pass's own factor W: a W that
        # misses a column of rho0[P, P] = W W^H must not pass
        from omtc import dynamics

        init = dynamics._SeparableKernel.__init__

        def missing_one(self, sector, bases, W, *args):
            init(self, sector, bases, W[:, :-1], *args)

        monkeypatch.setattr("omtc.dynamics._SeparableKernel.__init__", missing_one)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02), build_space(1, 2, excitation_cap=1), 2,
            dt=0.02, t_max=1.0, method="expm",
        )
        with pytest.raises(NumericalError, match="disagree on the forward smoke test"):
            two_time_correlation(rho0, gen, cfg, a, monitor=mon)

    @pytest.mark.parametrize("check", ["anti-Hermitian ground block", "B = A^H", "positive start"])
    def test_failed_set_up_check_falls_back_to_dense_path(self, check, monkeypatch):
        # each of the D form's set-up checks (_eigenbases and the positive
        # start in _kernel), failed on its own, sends the run to
        # the U/X form with both passes dense, the same code as without
        # Kronecker factors
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02), space, dt=0.02, t_max=1.0, method="expm"
        )
        from omtc import dynamics

        factors, calls = dynamics._kronecker_factors, []

        def skewed(gen, L, P, Q):
            A, B = factors(gen, L, P, Q)
            calls.append(P)
            if check == "B = A^H" and len(calls) == 1:
                return A, B * (1 + 1e-9)
            if check == "anti-Hermitian ground block" and len(calls) == 2:
                return A + 1e-9 * np.abs(A).max() * np.eye(len(A)), B
            return A, B

        if check == "positive start":
            P = np.flatnonzero(optical_excitation_operator(space).diagonal() == 1)
            rho0 = rho0.copy()
            rho0[P[-1], P[-1]] = -1e-9  # Hermitian, not positive semidefinite
        else:
            monkeypatch.setattr("omtc.dynamics._kronecker_factors", skewed)
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        dense = _unfactored(rho0, gen, cfg, a, mon)
        assert grid.run["propagator"] == dense.run["propagator"] == "dense/dense"
        assert _same_stacks(grid, dense)

    @pytest.mark.parametrize(
        "losses, propagators",
        [
            ({}, {"expm": ("factored", "separable"), "rk4": ("spectral", "spectral")}),
            # the phonon jumps land inside both sectors
            ({"gamma_M": 0.05}, {"expm": ("dense", "dense"), "rk4": ("rk4", "rk4")}),
            # n_c rho n_c stays in rho_11 and vanishes on rho_01: only the
            # operand sector is a Kronecker sum, so the run takes the
            # stepped U/X form
            ({"dephasing": 0.1}, {"expm": ("dense", "dense"), "rk4": ("rk4", "rk4")}),
        ],
    )
    def test_selection(self, losses, propagators):
        params = ModelParams(J=0.3, gamma_M=losses.get("gamma_M", 0.0), Mbar=0.02)
        space = build_space(1, 2, excitation_cap=1)
        diss = build_dissipators(params, space)
        if "dephasing" in losses:
            diss = tuple(
                replace(c, rate=losses["dephasing"]) if c.label == "photon-number dephasing" else c
                for c in diss
            )
        gen = Generator(build_hamiltonian(params, space), diss)
        rho0 = initial_state(params, space)
        a, mon = ladder_operators(space)["a"], optical_excitation_operator(space)
        for method, expected in propagators.items():
            cfg = EvolutionConfig(dt=0.02, t_max=1.0, method=method)
            grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
            assert grid.run["propagator"] == "/".join(expected)
            assert grid.run["smoke_max_diff"] < 1e-8
            if method == "rk4":  # the references are the step polynomial itself: roundoff only
                assert grid.run["smoke_max_diff"] < 1e-14

    def test_evolve_stays_dense(self, monkeypatch):
        params = ModelParams(J=0.3, Mbar=0.02)
        rho0, gen, cfg, _, mon = _correlation_point(
            params, build_space(1, 2, excitation_cap=1), dt=0.02, t_max=1.0, method="expm"
        )

        def not_here(*args, **kwargs):
            raise AssertionError("evolve looked for a factored form")

        monkeypatch.setattr("omtc.dynamics._kronecker_factors", not_here)
        monkeypatch.setattr("omtc.dynamics._SeparableKernel.__init__", not_here)
        assert len(evolve(rho0, gen, cfg, monitor=mon).states) == 51

    def test_trace_loss_rejected_at_set_up(self, monkeypatch):
        # a zero flux row: the jumps out of the readout sector are lost, so
        # the trace it carries in p would not be conserved
        from omtc import dynamics

        split = dynamics._ForwardSector._split

        def no_flux(self, *args):
            split(self, *args)
            self.M.data[self.M.indptr[-2] :] = 0.0

        def not_yet(*args, **kwargs):
            raise AssertionError("the D form was built before the trace check")

        monkeypatch.setattr("omtc.dynamics._ForwardSector._split", no_flux)
        monkeypatch.setattr("omtc.dynamics._SeparableKernel.__init__", not_yet)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(), build_space(1, 2, excitation_cap=1), dt=0.02, t_max=1.0, method="expm"
        )
        with pytest.raises(NumericalError, match="does not preserve the trace of the readout"):
            two_time_correlation(rho0, gen, cfg, a, monitor=mon)

    def test_p_carries_the_total_trace(self):
        # an unnormalized state with a ground share: p starts nonzero and the
        # total trace is not 1; p must follow the dense stepper's flux row
        space = build_space(1, 2, excitation_cap=1)
        params = ModelParams(J=0.4, gamma_a_coop=0.02)
        rho0, gen, _, _, _ = _correlation_point(params, space, "symmetric", dt=0.02, t_max=1.0)
        vac = space.ket(0, 0, 0, 0)
        rho0 = 0.5 * rho0 + 0.2 * np.outer(vac, vac.conj())
        fwd = _sectors(space, gen, rho0)[0]
        fwd.check_trace_rows()
        factored = _d_form(space, gen, rho0)
        herm = _HermitianCoordinates(fwd)
        dense = _sector_steps(herm.block, 0.02, "expm", 4)
        # the D form carries rho[P, P] as W W^H and p as tr rho0 - tr W W^H;
        # from node 4 on both passes step a block by the 4th power
        nodes = _factored_nodes(factored, 21)
        Z = np.concatenate([Y.copy() for Y in _row_groups(herm.coords(rho0), 21, 4, *dense)])  # one buffer
        assert Z[0, -1] == pytest.approx(0.2)
        for k, z in enumerate(Z):
            X, p = factored.state(nodes[k])
            assert np.abs(X - herm.V.dot(z)).max() <= 1e-13
            assert abs(p - z[-1]) <= 1e-13
        x, z = nodes[0], Z[0]
        for _ in range(20):  # node by node
            x, z = _step(factored.steps, x), _step(dense, z)
            assert np.abs(factored.state(x)[0] - herm.V.dot(z)).max() <= 1e-13

    def test_growing_step_rejected_at_set_up(self, monkeypatch):
        # the exact no-jump evolution never grows; with the eigenvalues of A
        # shifted by +1 the slowly decaying modes grow by about exp(dt) per
        # step, which the D form rejects at set-up: its pass has no trace to
        # drift
        eig = np.linalg.eig

        def shifted(F):
            alpha, V = eig(F)
            return alpha + 1.0, V

        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02), build_space(1, 2, excitation_cap=1), 1,
            dt=0.02, t_max=1.0, method="expm",
        )
        monkeypatch.setattr("numpy.linalg.eig", shifted)
        with pytest.raises(NumericalError, match="expm step at dt=0.02 is unstable.*unsound"):
            two_time_correlation(rho0, gen, cfg, a, monitor=mon)

    def test_complex_hamiltonian(self):
        # without channels every product index set is invariant and L is the
        # Kronecker sum of -iH and iH; a complex H makes iH non-symmetric,
        # and B = A^H still holds, so X = W W^H steps as W -> K_L W
        rng = np.random.default_rng(11)
        d = 4
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gen = Generator(m + m.conj().T, ())
        S = gen.superoperator()
        index = np.arange(d * d)
        A, B = _factors_of(gen, S, index)
        assert np.abs(B - A.conj().T).max() == 0.0
        W = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        X = W @ W.conj().T
        # no operand sector here: a 1 x 1 ground block and a zero operand
        bases = _eigenbases(((A, B), (np.zeros((1, 1)), None)))
        form = _SeparableKernel(None, bases, W, np.zeros((1, d)), X, None, 0.05)
        exact = linalg.expm(to_scipy(S).toarray() * 0.05) @ X.reshape(-1)
        x0 = form.start  # node 0, g^0: ones
        assert np.abs(_factored_matrix(form, x0) - X).max() <= 1e-13 * np.abs(X).max()
        assert np.abs(form.state(_step(form.steps, x0))[0] - exact).max() <= 1e-13 * np.abs(X).max()

    def test_kronecker_factors_need_a_product_sector(self):
        # rho_11 is the product P x P of the 9 one-excitation states, and
        # the operand sector rho_01 the product Q0 x P; the whole forward
        # sector, rho_11 + rho_00, is no product, and its hull P x P over
        # all 12 states holds the jumps from rho_11 to rho_00, so it has no
        # Kronecker factors
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, _, _, _ = _correlation_point(ModelParams(), space, dt=0.02, t_max=1.0)
        S = gen.superoperator()
        reads, a, _ = _readout(space)
        fwd = _ForwardSector(S, rho0, reads, a)
        assert fwd.hull() is fwd and fwd.product
        A, B = _kronecker_factors(gen.no_jump(), fwd.readout_block, fwd.P, fwd.P)
        assert A.shape == B.shape == (9, 9)
        A0, B0 = _kronecker_factors(gen.no_jump(), fwd.Sa, fwd.Q0, fwd.P)
        assert A0.shape == (3, 3) and np.array_equal(B0, B)
        whole = _ForwardSector(S, rho0, None, a)
        hull = whole.hull()
        assert len(whole.index) == 90 and len(hull.index) == len(hull.P) ** 2 == 144 and hull.closed
        assert _kronecker_factors(gen.no_jump(), hull.readout_block, hull.P, hull.P) is None
        assert _factors_of(gen, S, whole.index) is None



class TestSpectralKernel:
    @pytest.mark.parametrize("initial", [1, 2, "symmetric", "antisymmetric"])
    @settings(max_examples=5)
    @given(point=model_points(), t_max=st.sampled_from([0.4, 1.0, 2.6]), leak=st.floats(0.9, 1.0))
    def test_matches_stepped_rk4(self, initial, point, t_max, leak):
        # no mechanical losses: the spectral form against stepped RK4 over
        # the drawn J, delta_ac, gamma_a_coop and Mbar; b = 4, 4 and 8 at
        # n_max = 21, 51 and 131, and the drawn tolerances stop many runs
        # early, anywhere in a block.  A grid the eigen coordinates do not
        # resolve (a stop a few steps after a photonless start) is
        # computed stepped, bit for bit the stepped run.
        params, space, _ = point
        params = replace(params, gamma_M=0.0)
        rho0, gen, cfg, a, mon = _correlation_point(
            params, space, initial, dt=0.02, t_max=t_max, method="rk4", leak_tolerance=leak
        )
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        stepped = _unfactored(rho0, gen, cfg, a, mon)
        assert stepped.run["propagator"] == "rk4/rk4"
        if grid.run["propagator"] == "rk4/rk4":
            assert np.abs(grid_dense(stepped)).max() < 1e-2
            assert _same_stacks(grid, stepped)
        else:
            assert grid.run["propagator"] == "spectral/spectral"
            assert grid.run["smoke_max_diff"] < 1e-13
        assert grid.n_t == stepped.n_t
        assert grid.residual_excitation == pytest.approx(stepped.residual_excitation, rel=1e-12)
        _assert_same_spectra(grid, stepped)

    @settings(max_examples=6)
    @given(point=model_points(), t_max=st.sampled_from([0.4, 2.6]), leak=st.floats(0.9, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_full_support_and_dense_monitor_match_stepped_rk4(self, point, t_max, leak, seed):
        # a random Hermitian rho0 on all of P with a ground share, and a
        # positive monitor on P that is not diagonal, scaled to read 1 at
        # t = 0: Z_0 is full and the monitor reads every eigen coordinate
        params, space, _ = point
        params = replace(params, gamma_M=0.0)
        _, gen, cfg, a, _ = _correlation_point(
            params, space, dt=0.02, t_max=t_max, method="rk4", leak_tolerance=leak
        )
        rng = np.random.default_rng(seed)
        P = np.flatnonzero(optical_excitation_operator(space).diagonal() == 1)
        vac = space.ket(0, 0, 0, 0)
        rho0 = 0.2 * np.outer(vac, vac.conj())
        rho0[np.ix_(P, P)] = 0.8 * _random_rho(rng, len(P))
        mon = np.zeros_like(rho0)
        mon[np.ix_(P, P)] = _random_rho(rng, len(P))
        mon = mon / np.trace(mon @ rho0).real
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        stepped = _unfactored(rho0, gen, cfg, a, mon)
        assert grid.run["propagator"] == "spectral/spectral"
        assert grid.n_t == stepped.n_t
        assert grid.residual_excitation == pytest.approx(stepped.residual_excitation, rel=1e-12)
        _assert_same_spectra(grid, stepped)

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @pytest.mark.parametrize(
        "decades, propagators",
        [
            (0.5, {"rk4": ("spectral", "spectral"), "expm": ("factored", "separable")}),
            (4.0, {"rk4": ("rk4", "rk4"), "expm": ("dense", "dense")}),
        ],
    )
    def test_ill_conditioned_eigenbasis_falls_back_to_stepped_path(self, decades, propagators,
                                                                   method, monkeypatch):
        # eigenvectors rescaled over a range of decades are still an exact
        # eigenbasis; over half a decade the condition numbers stay below
        # SPECTRAL_CONDITION_LIMIT and the spectral form (rk4) or the D form
        # (expm, which steps W through the eigenbasis of A) still matches, over
        # four they exceed it and the run takes the stepped path, bit for
        # bit the run without Kronecker factors
        eig = np.linalg.eig

        def rescaled(F):
            w, V = eig(F)
            return w, V * np.logspace(0.0, decades, len(w))

        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02), build_space(1, 2, excitation_cap=1), 2,
            dt=0.02, t_max=1.0, method=method,
        )
        stepped = _unfactored(rho0, gen, cfg, a, mon)
        monkeypatch.setattr("numpy.linalg.eig", rescaled)
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        assert grid.run["propagator"] == "/".join(propagators[method])
        if decades > 1:
            assert _same_stacks(grid, stepped)
        else:
            _assert_same_spectra(grid, stepped)

    @pytest.mark.parametrize(
        "g_a, initial, monitor, leak, propagators",
        [
            # both runs stop at node 1 after a photonless start, where the
            # grid's largest entry is the photon population (g_a dt)^2:
            # 1.6e-5 at g_a = 0.2 lies below the roundoff the change of
            # basis leaves (about eps of the bound |C| <= 1, not of the
            # entry); 2.3e-3 at g_a = 2.4 does not
            (0.2, 1, "photons", 1e-2, ("rk4", "rk4")),
            (2.4, 1, "photons", 1e-2, ("spectral", "spectral")),
            (0.2, "symmetric", "excitation", 0.0, ("spectral", "spectral")),
        ],
    )
    def test_unresolved_grid_is_computed_stepped(self, g_a, initial, monitor, leak, propagators):
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(g_a=g_a, J=0.3, Mbar=0.02), space, initial, dt=0.02, t_max=1.0,
            method="rk4", leak_tolerance=leak,
        )
        if monitor == "photons":
            mon = a.conj().T @ a
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.3)
        stepped = _unfactored(rho0, gen, cfg, a, mon)
        assert grid.run["propagator"] == "/".join(propagators)
        assert grid.n_t == stepped.n_t == (2 if leak else 51)
        if propagators == ("rk4", "rk4"):
            assert _same_stacks(grid, stepped)
        _assert_same_spectra(grid, stepped)

    def test_unstable_step_rejected_at_set_up(self):
        # kappa = 200 at dt = 0.02 puts h (alpha_i + beta_j) = -4 on the
        # photon coherences, where |r| = 5: the spectral form has no trace
        # to drift, so the growth is caught in its factors
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(kappa=200.0, J=0.3, Mbar=0.02), build_space(1, 2, excitation_cap=1), 1,
            dt=0.02, t_max=1.0, method="rk4",
        )
        with pytest.raises(NumericalError, match="unstable.*reduce dt"):
            two_time_correlation(rho0, gen, cfg, a, monitor=mon)

    def test_stacks_pair_to_the_physical_operands(self):
        # X_k = V_0^-1 a rho(t_k) V_B and U_tau = N o H^tau: mapped back,
        # X is the stepped operand stack, and a Heisenberg pass of a' read
        # against any X_k gives the same C
        space = build_space(1, 2, excitation_cap=1)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3, Mbar=0.02, gamma_a_coop=0.02), space, "symmetric",
            dt=0.02, t_max=1.0, method="rk4",
        )
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        stepped = _unfactored(rho0, gen, cfg, a, mon)
        fwd, Q0, adj = _sectors(space, gen, rho0)
        S, P = gen.superoperator(), fwd.P
        factors = (_factors_of(gen, S, fwd.index), _factors_of(gen, S, adj))
        (_, V, _), (_, U), _ = _eigenbases(factors)
        X = U @ operand_stack(grid).reshape(grid.n_t, len(Q0), len(P)) @ V.conj().T
        assert np.abs(X.reshape(grid.n_t, -1) - stepped.X).max() <= 1e-13
        np.testing.assert_allclose(adjoint_stack(grid) @ operand_stack(grid).T,
                                   adjoint_stack(stepped) @ stepped.X.T,
                                   rtol=0, atol=1e-13)

    def test_rk4_factor_is_the_step_polynomial(self):
        # r(h S) x, S diagonal, equals one RK4 step of the stepper and four
        # Taylor terms of _taylor_step
        w = np.array([-0.3 + 2.0j, -1.0, 0.5j])
        x = np.array([1.0, 2.0 - 1.0j, 0.5j])
        steps = _sector_steps(sparse.csr_matrix(np.diag(w)), 0.05, "rk4")
        expected = _rk4_factor(0.05 * w) * x
        assert steps[1] is None and np.abs(_step(steps, x) - expected).max() <= 1e-15
        assert np.abs(_taylor_step(lambda v: w * v, x, 0.05, terms=4) - expected).max() <= 1e-15



def _spectral_factors(rng, width):
    """N and H for a spectral grid: |H| <= 1, with small |H| whose powers underflow."""
    N = rng.normal(size=width) + 1j * rng.normal(size=width)
    H = rng.uniform(0.0, 1.0, width) * np.exp(1j * rng.uniform(-np.pi, np.pi, width))
    H[rng.integers(width)] = np.exp(0.3j)  # |H| = 1 on one coordinate
    return N, H


class TestSpectralRows:
    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["elementwise", "dense", "sparse"]),
        n=st.integers(1, 400),
        b=st.sampled_from([1, 2, 8, 16, 64]),
        at=st.floats(0.0, 1.0),
        width=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="elementwise", n=100, b=16, at=0.0, width=3, seed=1)  # lo = 0
    @example(kind="elementwise", n=100, b=16, at=1.0, width=3, seed=2)  # the short last block, rows 96 .. 99
    @example(kind="dense", n=100, b=16, at=1.0, width=3, seed=3)
    @example(kind="sparse", n=100, b=16, at=1.0, width=3, seed=4)
    def test_rows_match_elementwise_blocks(self, kind, n, b, at, width, seed):
        # the accessor's (N o H^lo) o H^i, H^lo by squaring, against the
        # stack that _row_groups steps from N, to roundoff: both carry about
        # tau eps relative error in row tau, and |U| <= |N|.  The stack is
        # stepped by H and H^b (elementwise), by the dense E = diag(H) of
        # expm (B = diag(log H) / h) and E^b, or node by node by the sparse
        # RK4 step of a diagonal B, whose step factors r(h B) are then H.
        # So do the grid's rows, and a block at lo = 0 starts at N itself.
        rng = np.random.default_rng(seed)
        N, H = _spectral_factors(rng, width)
        if kind == "elementwise":
            steps = elementwise_steps(H, b)
        else:
            if kind == "sparse":  # h w inside RK4's stability region, one w = 0
                w = 20.0 * (rng.uniform(-1.0, 0.0, width) + 1j * rng.uniform(-1.0, 1.0, width))
                w[0] = 0.0
                H = _rk4_factor(0.05 * w)
            else:
                w = np.log(H) / 0.05
            steps = _sector_steps(sparse.csr_matrix(np.diag(w)), 0.05, "expm" if kind == "dense" else "rk4", b)
        stack = np.concatenate([Y.copy() for Y in _row_groups(N, n, b, *steps)])  # views of one buffer
        lo = b * int(at * ((n - 1) // b))
        hi = min(lo + b, n)
        spans = [(lo, hi), (0, min(b, n))]  # the table is b rows long
        rows, first = (U.copy() for U in spectral_blocks(N, H, spans))  # views of one buffer
        assert rows.shape == (hi - lo, width)
        bound = 4 * n * np.finfo(float).eps * np.abs(N)
        assert np.all(np.abs(rows - stack[lo:hi]) <= bound)
        grid = CorrelationGrid(dt=0.1, X=stack, N=N, H=H)
        assert np.all(np.abs(grid_rows(grid.adjoint_blocks, lo, hi) - stack[lo:hi]) <= bound)
        np.testing.assert_array_equal(first[0], N)

    @settings(max_examples=20)
    @given(
        spans=st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 64)), min_size=1, max_size=40),
        chunk=st.integers(1, 7),
        width=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_starts_are_the_bits_of_one_chunk(self, spans, chunk, width, seed):
        # spectral_blocks makes the starts N o H^lo SPAN_CHUNK spans at a
        # time; every row has the bits it has when all spans form one chunk.
        # Rows of one entry are left out: numpy multiplies a one-column
        # stack as one vector, whose SIMD body and tail round apart, and an
        # operand sector Q0 x P is never one entry wide (P holds a
        # one-photon state and the bright state it couples to)
        rng = np.random.default_rng(seed)
        N, H = _spectral_factors(rng, width)
        spans = [(lo, lo + rows) for lo, rows in spans]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omtc.grid.SPAN_CHUNK", len(spans))
            whole = [U.copy() for U in spectral_blocks(N, H, spans)]  # views of one buffer
            mp.setattr("omtc.grid.SPAN_CHUNK", chunk)
            chunked = [U.copy() for U in spectral_blocks(N, H, spans)]
        assert len(chunked) == len(whole) == len(spans)
        for a, b in zip(chunked, whole, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("b", [None, 8])
    @settings(max_examples=12)
    @given(
        n_t=st.integers(2, 150),
        width=st.integers(1, 4),
        dt=st.sampled_from([0.02, 0.5]),
        Gamma=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lag_sums_match_stored_u(self, b, n_t, width, dt, Gamma, seed):
        # the Gram pass reads its rows from the accessor; with the same rows
        # stored as U it gives the same sums to roundoff.  b = 8 covers many
        # blocks and a short last one, None is _block_size
        rng = np.random.default_rng(seed)
        N, H = _spectral_factors(rng, width)
        X = rng.normal(size=(n_t, width)) + 1j * rng.normal(size=(n_t, width))
        grid = CorrelationGrid(dt=dt, X=X, N=N, H=H)
        stored = CorrelationGrid(dt=dt, U=adjoint_stack(grid), X=X)
        with pytest.MonkeyPatch.context() as mp:
            if b is not None:
                mp.setattr("omtc.grid._block_size", lambda n: b)
            for n in sorted({1, n_t // 2, n_t - 1}):
                _, _, G_abs, A_abs = _double_sum_lag_sums(stored, Gamma, n)
                (G, A), (G_ref, A_ref) = grid.lag_sums(Gamma, n), stored.lag_sums(Gamma, n)
                assert np.all(np.abs(G - G_ref) <= 1e-12 * G_abs + 1e-300)
                assert np.all(np.abs(A - A_ref) <= 1e-12 * A_abs)
                assert abs(grid.lag_sums(Gamma, n)[0][0] - stored.lag_sums(Gamma, n)[0][0]) <= 1e-12 * G_abs[0]


    def test_lag_sums_hold_three_blocks(self):
        # the Gram pass holds its own block of w X; over a spectral grid it
        # makes its blocks of U rows in spectral_blocks, which adds the
        # power table, the one buffer that every block is made in and the
        # starts of SPAN_CHUNK spans (a quarter block here): at most 2.5
        # blocks, numpy's ufunc buffers included, beyond the same pass over
        # the rows stored as U, whose blocks are views.  |R_a| = 1024 and
        # b = 32, so a block (512 KiB) outweighs the n-long arrays
        n_t, width = 1024, 1024
        rng = np.random.default_rng(11)
        N, H = _spectral_factors(rng, width)
        X = rng.normal(size=(n_t, width)) + 1j * rng.normal(size=(n_t, width))
        grid = CorrelationGrid(dt=0.02, X=X, N=N, H=H)
        stored = CorrelationGrid(dt=0.02, U=adjoint_stack(grid).copy(), X=X)
        block = 16 * width * grid_module._block_size(n_t)
        peaks = []
        for g in (grid, stored):
            tracemalloc.start()
            try:
                g.lag_sums(0.05, n_t - 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.75 * block  # its block of w X, the n-long sums and numpy buffers
        assert peaks[0] < peaks[1] + 2.5 * block, (peaks[0] / block, peaks[1] / block)


def _eigen_factors(rng, q, p):
    """N, H, M, Z0 and G of a computed spectral grid: |G|, |H| <= 1 and N = conj(M)."""
    M = rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
    Z0 = rng.normal(size=p * p) + 1j * rng.normal(size=p * p)
    G = rng.uniform(0.0, 1.0, p * p) * np.exp(1j * rng.uniform(-np.pi, np.pi, p * p))
    _, H = _spectral_factors(rng, q * p)
    return {"N": M.conj().reshape(-1), "H": H, "M": M, "Z0": Z0, "G": G}


def _pass_stack(factors, n_max, b):
    """The operand stack over n_max nodes as a forward pass of one block at a time made it: blocks of Z, each times M."""
    blocks = block_pass(factors["Z0"], n_max, b, *elementwise_steps(factors["G"], b))
    return np.concatenate([_operands(factors["M"], Z) for Z in blocks])


class TestOperandRows:
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 300),
        extra=st.integers(0, 100),
        b=st.sampled_from([1, 2, 8, 16, 64]),
        q=st.integers(1, 3),
        p=st.integers(1, 4),
        cuts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=100, extra=0, b=16, q=2, p=3, cuts=[(0.0, 1.0)], seed=1)  # all rows in one span
    def test_rows_are_the_bits_the_pass_stored(self, n, extra, b, q, p, cuts, seed):
        # a pass over n + extra nodes cut at n stored these rows; any spans,
        # ascending or not, within a block or across blocks, read them back
        # bit for bit.  One exception: with |P| = 1 a last block of one row
        # is one complex product, which numpy rounds apart from the same
        # product inside a longer block, so the pass that went on past n
        # stored that row to within an ulp
        factors = _eigen_factors(np.random.default_rng(seed), q, p)
        stack = _pass_stack(factors, n + extra, b)[:n]
        grid = CorrelationGrid(dt=0.1, b=b, n_t=n, **factors)
        assert grid.X is None and grid.version == 4
        spans = [(min(lo, hi), max(lo, hi) + 1) for lo, hi in ((int(x * (n - 1)), int(y * (n - 1))) for x, y in cuts)]
        rows = operand_stack(grid)
        if p == 1 and extra and b > 1 and n % b == 1:
            assert np.abs(rows[-1] - stack[-1]).max() <= np.finfo(float).eps * np.abs(stack[-1]).max()
            stack[-1] = rows[-1]
        assert np.array_equal(rows, stack)
        for (lo, hi), block in zip(spans, grid.operand_blocks(spans), strict=True):
            assert np.array_equal(block, stack[lo:hi])

    def test_rows_of_a_run_are_its_kernels_pass(self, monkeypatch):
        # the kernel's own blocks over the full t_max, each times M, as the
        # forward pass made them before the grid kept factors: the grid's
        # rows are those, bit for bit, up to the leak stop
        kernels = []
        init = _SpectralKernel.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            kernels.append(self)

        monkeypatch.setattr("omtc.dynamics._SpectralKernel.__init__", spy)
        rho0, gen, cfg, a, mon = _correlation_point(
            ModelParams(J=0.3), build_space(1, 2, excitation_cap=1), dt=0.02, t_max=200.0, method="rk4",
        )
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        (kernel,) = kernels
        assert grid.run["propagator"] == "spectral/spectral" and 1 < grid.n_t < cfg.n_max
        stack = np.concatenate([_operands(kernel.M, Z) for Z in _nodes(kernel, cfg.n_max)])
        assert np.array_equal(operand_stack(grid), stack[: grid.n_t])

    @settings(max_examples=15)
    @given(
        n_t=st.integers(2, 200),
        b=st.sampled_from([1, 4, 16, 64]),
        q=st.integers(1, 3),
        p=st.integers(1, 3),
        Gamma=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dump_is_the_stored_stack(self, tmp_path_factory, n_t, b, q, p, Gamma, seed):
        # save writes the bytes of the grid that stores X, and the reload,
        # which reads X from the dump, gives the same lag sums, bit for bit
        factors = _eigen_factors(np.random.default_rng(seed), q, p)
        scalars = {"dt": 0.05, "kappa": 0.3, "param_hash": b"\x07" * 32, "residual_excitation": 1e-5}
        grid = CorrelationGrid(b=b, n_t=n_t, **factors, **scalars)
        stored = CorrelationGrid(X=grid_rows(grid.operand_blocks, 0, n_t), N=grid.N, H=grid.H, **scalars)
        path, other = (tmp_path_factory.mktemp("dump") / name for name in ("grid.bin", "stored.bin"))
        grid.save(path)
        stored.save(other)
        assert path.read_bytes() == other.read_bytes()
        loaded = CorrelationGrid.load(path)
        # the reload holds N and H; X stays in the dump
        assert loaded.n_t == n_t and loaded.memory_bytes == 16 * 2 * q * p
        assert grid.memory_bytes == 16 * (3 * q * p + 2 * p * p)
        for n in sorted({1, n_t // 2, n_t - 1}):
            for new, old in zip(grid.lag_sums(Gamma, n), loaded.lag_sums(Gamma, n), strict=True):
                assert np.array_equal(new, old)

    def test_factors_checked(self):
        factors = _eigen_factors(np.random.default_rng(0), 2, 3)
        CorrelationGrid(dt=0.1, b=4, n_t=5, **factors)
        for bad in ({"b": 0}, {"n_t": None}, {"G": factors["G"][:-1]}, {"N": factors["N"][:-1]}):
            with pytest.raises(ConfigurationError, match="eigen factors need"):
                CorrelationGrid(dt=0.1, **{"b": 4, "n_t": 5, **factors, **bad})
        with pytest.raises(ConfigurationError, match="either the stacks U and X or one"):
            CorrelationGrid(dt=0.1, b=4, n_t=5, X=np.zeros((5, 6)), **factors)

    def test_spectral_budget_counts_factors_not_a_stack(self):
        # N_m = 2: |P| = 9, |R_a| = 27, n_max = 1001 and b = 16.  The
        # spectral form needs its resolution column, 16 * 1001 B, and its
        # factors and blocks, 16 * (19 * 27 + 18 * 81) B: 47 552 B, where
        # the stack X took 16 * 27 * 1001 = 432 432 B
        space = build_space(1, 2, excitation_cap=1)
        need = 16 * 1001 + 16 * (19 * 27 + 18 * 81)

        def run(method, budget, **params):
            rho0, gen, cfg, a, mon = _correlation_point(
                ModelParams(J=0.3, **params), space, dt=0.02, t_max=20.0, method=method,
                leak_tolerance=0.0, max_grid_bytes=budget,
            )
            return two_time_correlation(rho0, gen, cfg, a, monitor=mon)

        grid = run("rk4", need)
        assert grid.run["propagator"] == "spectral/spectral" and grid.n_t == 1001
        with pytest.raises(NumericalError, match=re.escape(
            "run would need 0.0 MiB (resolution column 0.0 MiB for n_t <= 1001, eigen factors and "
            "row blocks 0.0 MiB), above the 0.0 MiB budget; use a coarser dt or a shorter t_max"
        )):
            run("rk4", need - 1)
        # the D form and the stepped form keep their messages
        with pytest.raises(NumericalError, match=re.escape(
            "run would need 0.0 MiB (factor stacks 0.0 MiB for n_t <= 1001), above the 0.0 MiB "
            "budget; use a coarser dt or a shorter t_max"
        )):
            run("expm", 16 * 3 * 1001 - 1)
        with pytest.raises(NumericalError, match=re.escape(
            "run would need 0.8 MiB (factor stacks 0.8 MiB for n_t <= 1001), above the 0.0 MiB "
            "budget; use a coarser dt or a shorter t_max"
        )):
            run("rk4", need, gamma_M=0.05)

    def test_operands_are_made_once_per_sweep(self, monkeypatch):
        # the forward pass makes no operand row; each sweep makes every row
        # it reads once, and the window capture reads the sweep's G[0]
        made = []

        def counted(M, Z):
            made.append(len(Z))
            return operands(M, Z)

        operands = grid_module._operands
        monkeypatch.setattr("omtc.grid._operands", counted)
        p = ModelParams(J=0.3, gamma_a=0.3)
        space = build_space(1, 2, excitation_cap=1)
        numerics = NumericsConfig(N_m=2, evolution=EvolutionConfig(dt=0.02, t_max=10.0, method="rk4"))
        filt = FilterParams(Gamma=0.05, n_points=41)
        rho0, gen, cfg, a, mon = _correlation_point(p, space, **vars(numerics.evolution))
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon)
        assert grid.run["propagator"] == "spectral/spectral" and made == []
        # the groups of whole blocks of b = 16 rows that hold rows 0 .. n,
        # as many blocks of Z (|P|^2 entries) as fit in GROUP_BYTES, the last
        # cut at n_t = 501
        group = 16 * (grid_module.GROUP_BYTES // (16 * grid.Z0.nbytes))
        for T in (grid.horizon, grid.horizon / 2):
            filtered_spectrum(grid, filt.deltas(), filt.Gamma, T)
            n = int(round(T / grid.dt))
            rows = min(501, (n // 16 + 1) * 16)
            assert grid.n_t == 501 and group > 16 and rows % 16 != 1
            assert made == [group] * (rows // group) + [rows % group] * (rows % group > 0)
            made.clear()
        result = stationary_spectrum(p, filt, numerics)
        assert result.metadata["propagator"] == "spectral/spectral"
        assert sum(made) == result.metadata["n_t"]


def _unitary(rng, m):
    """A random m x m unitary matrix."""
    return np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]


def _kernel_form(kind, rng, p, q, s, dt, b):
    """A D form (expm) or spectral form (rk4) on |P| = p readout rows and |Q0| = q, with a monitor, from random bases.

    Re alpha < 0, so no step factor grows; the D form's start has s columns.
    """
    alpha = -rng.uniform(0.05, 1.0, p) + 1j * rng.normal(size=p)
    V = _unitary(rng, p) + 0.3 * (rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)))
    bases = ((alpha, V, np.linalg.inv(V)), (rng.normal(size=q), _unitary(rng, q)), 2.0)
    a0 = rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
    W0 = rng.normal(size=(p, s)) + 1j * rng.normal(size=(p, s))
    rho0, N = W0 @ W0.conj().T, _random_rho(rng, p)
    sector = type("Sector", (), {"P": np.arange(p)})
    if kind == "expm":
        return _SeparableKernel(sector, bases, W0, a0, rho0, N, dt, b)
    return _SpectralKernel(sector, bases, a0, rho0, N, dt, b)


def _stepped_form(kind, b):
    """The stepped U/X form of a run with mechanical losses at N_m = 2, dense (expm) or sparse (rk4) steps."""
    space = build_space(1, 2, excitation_cap=1)
    rho0, gen, cfg, a, mon = _correlation_point(
        ModelParams(J=0.3, gamma_M=0.05), space, dt=0.05, t_max=1.0, method="expm" if kind == "dense" else "rk4",
    )
    fwd = _ForwardSector(gen.superoperator(), rho0, _readout(space)[0], a)
    return _SteppedForm(fwd, a, rho0, mon, cfg, b)


class TestRowGroups:
    @settings(max_examples=80)
    @given(
        kind=st.sampled_from(["expm", "rk4", "dense", "sparse"]),
        n=st.integers(1, 300),
        b=st.sampled_from([1, 2, 4, 16, 32]),
        per=st.integers(1, 9),
        p=st.integers(1, 4),
        q=st.integers(1, 3),
        s=st.integers(1, 3),
        stop=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="expm", n=100, b=4, per=3, p=2, q=1, s=1, stop=0.5, seed=1)  # a stop inside a group
    @example(kind="rk4", n=97, b=16, per=2, p=3, q=2, s=1, stop=1.0, seed=2)  # a last block of one node
    @example(kind="dense", n=100, b=4, per=3, p=2, q=1, s=1, stop=0.5, seed=1)
    @example(kind="sparse", n=97, b=16, per=2, p=3, q=2, s=1, stop=1.0, seed=2)
    def test_grouped_pass_is_the_per_block_pass(self, kind, n, b, per, p, q, s, stop, seed):
        # groups of `per` blocks of b nodes give the nodes, and the forward
        # pass the rows, n_t and residual, of a pass one block at a time,
        # bit for bit, with the leak stop at any node, inside a group or
        # not: the D and spectral forms (elementwise steps) and the stepped
        # form with dense (E, E^b) or sparse RK4 steps
        if kind in ("dense", "sparse"):
            form = _stepped_form(kind, b)
        else:
            form = _kernel_form(kind, np.random.default_rng(seed), p, q, s, 0.05, b)
        row_bytes = form.start.nbytes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omtc.dynamics._row_groups", block_pass)
            nodes = np.concatenate(list(block_pass(form.start, n, b, *form.steps)))
            monitor = np.concatenate([m for _, m, _ in form.readout(n)])
            k = min(int(stop * n), n - 1)
            leak = np.nextafter(monitor[k], np.inf) if k else 0.0  # the stop falls at node k or before
            config = type("Config", (), {"n_max": n, "leak_tolerance": leak})
            rows, residual = _forward_stack(form, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omtc.grid.GROUP_BYTES", per * b * row_bytes + row_bytes - 1)
            groups = [Y.copy() for Y in _nodes(form, n)]
            grouped, grouped_residual = _forward_stack(form, config)
        assert np.array_equal(np.concatenate(groups), nodes)
        sizes = [len(Y) for Y in groups]
        whole = per * b if b > 1 else 1
        assert all(size == whole for size in sizes[:-2]) and sum(sizes) == n
        assert (sizes[-1] == 1) == (b == 1 or n % b == 1) or len(sizes) == 1
        assert len(grouped) == len(rows) <= (k + 1 if k else n)
        assert np.array_equal(grouped.view(float), rows.view(float))
        assert grouped_residual == residual

    @pytest.mark.parametrize("kind", ["expm", "rk4", "dense", "sparse", "adjoint"])
    @pytest.mark.parametrize("b", [1, 2, 16, 64])
    def test_first_nodes_are_b_nodes_then_one(self, kind, b):
        # the smoke check reads nodes 0 .. b of a pass of b + 1 nodes: a
        # group of the first block, then the last block of one node as a
        # group of its own, for the D and spectral forms, the stepped form
        # with dense or sparse steps, and its adjoint pass; the nodes are
        # those of the pass one block at a time
        if kind in ("expm", "rk4"):
            form = _kernel_form(kind, np.random.default_rng(b), 3, 2, 2, 0.05, b)
            start, steps = form.start, form.steps
        else:
            form = _stepped_form("sparse" if kind == "sparse" else "dense", b)
            start, steps = (form.a, form.adjoint) if kind == "adjoint" else (form.start, form.steps)
        assert [len(Y) for Y in _row_groups(start, b + 1, b, *steps)] == [b, 1]
        nodes = _first_nodes(start, steps, b)
        np.testing.assert_array_equal(nodes, np.concatenate(list(block_pass(start, b + 1, b, *steps))))

    @pytest.mark.parametrize("advanced", [True, False])
    @pytest.mark.parametrize("b, per", [(1, 1), (4, 1), (4, 3), (16, 2)])
    def test_no_node_is_made_over_its_source(self, monkeypatch, advanced, b, per):
        # the buffer holds two blocks at least, so that a group of one
        # block is made beside the block before it: a step or b-step never
        # reads the memory it writes (numpy would copy an overlapping input
        # first), and the nodes are those of the pass one block at a time
        x0, g = np.ones(3, dtype=complex), np.array([0.9, 0.8j, -0.5])

        def apart(factor):
            def step(x, out):
                assert not np.shares_memory(x, out)
                return np.multiply(x, factor, out=out)
            return step

        steps = apart(g), apart(g**b) if advanced else None
        monkeypatch.setattr("omtc.grid.GROUP_BYTES", per * b * x0.nbytes)
        for n in (1, b + 1, 2 * b, 37):
            groups = [Y.copy() for Y in _row_groups(x0, n, b, *steps)]
            assert all(len(Y) <= max(per * b, 1) for Y in groups)
            np.testing.assert_array_equal(np.concatenate(groups), np.concatenate(list(block_pass(x0, n, b, *steps))))


def _stored_grids(rng, n_t, width):
    """An in-memory U/X grid (version 2) and spectral grid with stored X (version 4) of random stacks."""
    U, X = (rng.normal(size=(n_t, width)) + 1j * rng.normal(size=(n_t, width)) for _ in range(2))
    N, H = _spectral_factors(rng, width)
    scalars = {"dt": 0.05, "kappa": 0.3, "param_hash": b"\x09" * 32, "residual_excitation": 2e-5}
    return CorrelationGrid(U=U, X=X, **scalars), CorrelationGrid(X=X, N=N, H=H, **scalars)


class TestStreamedReload:
    @settings(max_examples=25)
    @given(
        n_t=st.integers(2, 300),
        width=st.integers(1, 5),
        b=st.integers(1, 70),
        Gamma=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reload_reads_the_stored_rows(self, tmp_path_factory, n_t, width, b, Gamma, seed):
        # a reload of either stored form holds no stack, and reads the
        # rows and lag sums of the in-memory grid bit for bit: spans of b
        # rows ascending, descending, and one span again
        tmp = tmp_path_factory.mktemp("reload")
        for grid in _stored_grids(np.random.default_rng(seed), n_t, width):
            path = tmp / f"grid{grid.version}.bin"
            grid.save(path)
            loaded = CorrelationGrid.load(path)
            assert loaded.version == grid.version and loaded.n_t == n_t
            assert loaded.memory_bytes == (0 if grid.version == 2 else 2 * 16 * width)
            ascending = [(lo, min(lo + b, n_t)) for lo in range(0, n_t, b)]
            spans = ascending + ascending[::-1] + ascending[:1]
            for read in ("adjoint_blocks", "operand_blocks"):
                for (lo, hi), new, old in zip(spans, getattr(loaded, read)(spans),
                                              getattr(grid, read)(spans), strict=True):
                    assert np.array_equal(new, old), (read, lo, hi)
            for n in sorted({1, n_t // 2, n_t - 1}):
                for new, old in zip(loaded.lag_sums(Gamma, n), grid.lag_sums(Gamma, n), strict=True):
                    assert np.array_equal(new, old)

    def test_reload_peak_memory_is_a_block(self, tmp_path):
        # load and a full sweep's lag sums of a version 4 dump whose X takes
        # 3 MiB trace less than a quarter of X (about 0.55 MB): what grows
        # with n_t is the sweep's n-long arrays, about 150 B a node, not X's
        # 1536 B; the rest is blocks of 64 rows
        _, grid = _stored_grids(np.random.default_rng(3), 2048, 96)
        path = tmp_path / "grid.bin"
        grid.save(path)
        assert grid.X.nbytes >= 2**20
        tracemalloc.start()
        try:
            loaded = CorrelationGrid.load(path)
            sums = loaded.lag_sums(0.05, grid.n_t - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.X.nbytes / 4
        for new, old in zip(sums, grid.lag_sums(0.05, grid.n_t - 1), strict=True):
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("change", ["truncate", "replace", "rewrite", "remove"])
    @pytest.mark.parametrize("version", [2, 4])
    def test_changed_dump_is_refused(self, tmp_path, change, version):
        # the next read after the dump changed is a ConfigurationError,
        # never other numbers: a dump cut short, another file put in its
        # place, or the same bytes rewritten in place with one row changed
        # (its mtime set a second on, as a rewrite within one tick of a
        # coarse file clock keeps the old one); a dump gone is the
        # FileNotFoundError of any missing file
        grid = _stored_grids(np.random.default_rng(5), 40, 3)[version == 4]
        path = tmp_path / "grid.bin"
        grid.save(path)
        loaded = CorrelationGrid.load(path)
        loaded.lag_sums(0.05, 39)
        data = path.read_bytes()
        if change == "truncate":
            path.write_bytes(data[:-16])
        elif change == "replace":
            other = tmp_path / "other.bin"
            other.write_bytes(data[:-16] + bytes(16))
            other.replace(path)
        elif change == "rewrite":
            before = path.stat().st_mtime_ns
            with open(path, "r+b") as fh:
                fh.seek(len(data) - 16)
                fh.write(bytes(16))
            os.utime(path, ns=(before + 10**9, before + 10**9))
        else:
            path.unlink()
        refused = (FileNotFoundError, None) if change == "remove" else (ConfigurationError, "after it was loaded")
        for read in (lambda: loaded.lag_sums(0.05, 39), lambda: operand_stack(loaded)):
            with pytest.raises(refused[0], match=refused[1]):
                read()

    @pytest.mark.parametrize("version", [2, 4])
    def test_save_onto_its_own_dump(self, tmp_path, version):
        # a loaded grid saved onto the dump it reads writes the same bytes
        # through a temporary file, and reads on from the new file
        grid = _stored_grids(np.random.default_rng(7), 150, 4)[version == 4]
        path = tmp_path / "grid.bin"
        grid.save(path)
        data = path.read_bytes()
        loaded = CorrelationGrid.load(path)
        loaded.save(path)
        assert path.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.bin"]
        for new, old in zip(loaded.lag_sums(0.05, 149), grid.lag_sums(0.05, 149), strict=True):
            assert np.array_equal(new, old)
        copy = tmp_path / "copy.bin"
        loaded.save(copy)
        assert copy.read_bytes() == data


def _double_sum_lag_sums(grid, Gamma, n):
    """Slow path: the per-column double sum over the correlation triangle.

    Returns G and A as CorrelationGrid.lag_sums defines them, plus the same
    sums over absolute values, which bound the roundoff of either path.
    """
    h = grid.dt
    t = np.arange(n + 1) * h
    w = np.full(n + 1, h)
    w[0] = w[n] = 0.5 * h
    q = w * np.exp(Gamma * (t - n * h))
    G = np.zeros(n + 1, dtype=complex)
    A = np.zeros(n + 1, dtype=complex)
    G_abs = np.zeros(n + 1)
    A_abs = np.zeros(n + 1)
    for k in range(n + 1):
        m = n + 1 - k
        col = grid_column(grid, k)[:m]
        if grid.D is None:  # |C[k+tau][k]| <= |U[tau]| . |X[k]| or |D[k+tau]| . |D[k]|
            col_abs = np.abs(grid_rows(grid.adjoint_blocks, 0, m)) @ np.abs(grid.X[k])
        else:
            col_abs = np.abs(grid.D[k : k + m]) @ np.abs(grid.D[k])
        G[:m] += (q[k] * q[k:]) * col
        A[:m] += (w[k] * w[k:]) * col
        G_abs[:m] += (q[k] * q[k:]) * col_abs
        A_abs[:m] += (w[k] * w[k:]) * col_abs
    return G, A, G_abs, A_abs


class TestLagSums:
    @settings(max_examples=25)
    @given(
        n_t=st.integers(2, 40),
        n_op=st.integers(1, 4),
        dt=st.sampled_from([0.02, 0.05, 0.5]),
        log_gamma=st.floats(-3.0, 3.5),
        seed=st.integers(0, 2**32 - 1),
    )
    # Gamma T = 1950: the factored form exp(Gamma t) of the weights overflows
    @example(n_t=40, n_op=3, dt=0.5, log_gamma=2.0, seed=0)
    def test_factored_sums_match_double_sum(self, n_t, n_op, dt, log_gamma, seed):
        rng = np.random.default_rng(seed)

        def stack():
            return rng.normal(size=(n_t, n_op)) + 1j * rng.normal(size=(n_t, n_op))

        grid = CorrelationGrid(dt=dt, U=stack(), X=stack())
        Gamma = 10.0**log_gamma
        for n in range(1, n_t):
            G, A = grid.lag_sums(Gamma, n)
            G_ref, A_ref, G_abs, A_abs = _double_sum_lag_sums(grid, Gamma, n)
            # the floor only covers subnormal results of an underflowed weight
            assert np.all(np.abs(G - G_ref) <= 1e-12 * G_abs + 1e-300)
            assert np.all(np.abs(A - A_ref) <= 1e-12 * A_abs)
            assert abs(grid.lag_sums(Gamma, n)[0][0] - G_ref[0]) <= 1e-12 * G_abs[0] + 1e-300

    @pytest.mark.parametrize("b", [None, 8, 64])
    @settings(max_examples=12)
    @given(
        n_t=st.integers(2, 50),
        n_op=st.integers(1, 4),
        dt=st.sampled_from([0.02, 0.5]),
        Gamma=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_recurrence_matches_per_row(self, b, n_t, n_op, dt, Gamma, seed):
        # b = 64 keeps every n + 1 below one block; b = 8 covers n + 1
        # below, at and between multiples of the block; None is _block_size
        rng = np.random.default_rng(seed)

        def stack():
            return rng.normal(size=(n_t, n_op)) + 1j * rng.normal(size=(n_t, n_op))

        grid = CorrelationGrid(dt=dt, U=stack(), X=stack())
        with pytest.MonkeyPatch.context() as mp:
            if b is not None:
                mp.setattr("omtc.grid._block_size", lambda n: b)
            for n in range(1, n_t):
                G, A = grid.lag_sums(Gamma, n)
                _, _, G_abs, A_abs = _double_sum_lag_sums(grid, Gamma, n)
                assert np.all(np.abs(G - _per_row_lag_sum(grid, Gamma, n)) <= 1e-12 * G_abs + 1e-300)
                assert np.all(np.abs(A - _per_row_lag_sum(grid, 0.0, n)) <= 1e-12 * A_abs)


class TestFftLagSums:
    @settings(max_examples=25)
    @given(
        n_t=st.integers(2, 40),
        width=st.integers(1, 20),
        dt=st.sampled_from([0.02, 0.05, 0.5]),
        log_gamma=st.floats(-3.0, 3.5),
        seed=st.integers(0, 2**32 - 1),
    )
    # Gamma T = 1950: the weights underflow for all but the last nodes
    @example(n_t=40, width=3, dt=0.5, log_gamma=2.0, seed=0)
    def test_d_form_sums_match_double_sum(self, n_t, width, dt, log_gamma, seed):
        # the FFT's roundoff is spread over all lags, so it is bounded by
        # 1e-12 of G[0] = sum_k q_k^2 |D_k|^2 >= |G[tau]| (Cauchy-Schwarz)
        rng = np.random.default_rng(seed)
        D = rng.normal(size=(n_t, width)) + 1j * rng.normal(size=(n_t, width))
        grid = CorrelationGrid(dt=dt, D=D)
        Gamma = 10.0**log_gamma
        for n in range(1, n_t):
            G, A = grid.lag_sums(Gamma, n)
            G_ref, A_ref, _, _ = _double_sum_lag_sums(grid, Gamma, n)
            assert np.abs(G - G_ref).max() <= 1e-12 * G_ref[0].real + 1e-300
            assert np.abs(A - A_ref).max() <= 1e-12 * A_ref[0].real
            assert abs(grid.lag_sums(Gamma, n)[0][0] - G_ref[0]) <= 1e-12 * G_ref[0].real + 1e-300

    @settings(max_examples=25)
    @given(
        n=st.integers(0, 300),
        width=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=300, width=33, seed=0)  # three column chunks, the last of one column
    def test_sums_in_one_buffer_are_the_two_buffer_sums(self, n, width, seed):
        # both weightings through one buffer, refilled, its tail zeroed and
        # transformed in place: the bits of a new padded array and its
        # transform per chunk of 16 columns and weighting
        rng = np.random.default_rng(seed)
        D = rng.normal(size=(n + 1, width)) + 1j * rng.normal(size=(n + 1, width))
        q, w = rng.uniform(0.0, 1.0, (2, n + 1))
        for new, old in zip(_autocorrelations(D, q, w), (autocorrelation(D, q), autocorrelation(D, w)), strict=True):
            assert np.array_equal(new.view(float), old.view(float))

    @pytest.mark.parametrize("width", [1, 9, 16, 40])
    def test_sums_hold_one_buffer(self, width):
        # the transient is one c x L buffer, c = min(16, width), and the
        # L-long real vectors of the power sum: at most 64 B per entry of L
        # (the sum, its two einsum terms and the half-length rfft, and
        # numpy's temporaries for a single column); the two-buffer form
        # held two such buffers at once
        n = 3000
        rng = np.random.default_rng(width)
        D = rng.normal(size=(n + 1, width)) + 1j * rng.normal(size=(n + 1, width))
        q, w = rng.uniform(0.0, 1.0, (2, n + 1))
        L, c = _fast_length(2 * n + 1), min(16, width)
        peaks = []
        for sums in (lambda: _autocorrelations(D, q, w), lambda: (autocorrelation(D, q), autocorrelation(D, w))):
            tracemalloc.start()
            try:
                sums()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 16 * c * L + 64 * L
        if c > 1:
            assert peaks[1] >= 2 * 16 * c * L

    def test_fast_length(self):
        smooth = [m for m in range(1, 4100) if m == 1 or max(_prime_factors(m)) <= 5]
        for n in range(1, 4000):
            assert _fast_length(n) == min(m for m in smooth if m >= n)


def _prime_factors(m):
    out, p = [], 2
    while m > 1:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    return out


def _per_row_lag_sum(grid, Gamma, n):
    """Slow path: the S_m recurrence over one n x |R_a| working copy, as before the row blocks."""
    h = grid.dt
    w = _trapezoid_weights(h, n)
    r = np.exp(-2.0 * Gamma * h)
    U, X = grid_rows(grid.adjoint_blocks, 0, n + 1), grid.X[: n + 1]
    S = w[:, None] * X
    for m in range(1, n + 1):
        S[m] += r * S[m - 1]
    sums = h * np.einsum("ti,ti->t", U, S[::-1])
    sums -= 0.5 * h * np.einsum("ti,t,ti->t", U, w[::-1], X[::-1])
    sums[0] -= 0.5 * h * w[0] * r**n * (U[0] @ X[0])
    return np.exp(-Gamma * h * np.arange(n + 1)) * sums
