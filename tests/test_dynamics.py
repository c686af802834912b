import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse

from omtc.dynamics import (
    CorrelationGrid,
    EvolutionConfig,
    Generator,
    check_step_size,
    evolve,
    heisenberg_apply,
    liouvillian_apply,
    two_time_correlation,
)
from omtc.errors import ConfigurationError, NumericalError
from omtc.hilbert import build_space, ladder_operators, optical_excitation_operator
from omtc.model import ModelParams, build_dissipators, build_hamiltonian, initial_state


def _random_rho(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _damped_cavity(kappa=0.2, N_m=0):
    p = ModelParams(g_a=0, g_M=0, gamma_a=0, kappa=kappa)
    space = build_space(1, N_m, excitation_cap=1)
    gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
    rho0 = np.outer(space.ket(0, 0, 1, 0), space.ket(0, 0, 1, 0).conj())
    return p, space, gen, rho0


class TestLiouvillianApply:
    def test_pure_commutator_when_rates_vanish(self):
        rng = np.random.default_rng(0)
        p = ModelParams(kappa=0, gamma_a=0)
        space = build_space(1, 1)
        H = build_hamiltonian(p, space)
        diss = build_dissipators(p, space)
        rho = _random_rho(rng, space.dim)
        out = liouvillian_apply(H, diss, rho)
        expected = -1j * (H.toarray() @ rho - rho @ H.toarray())
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_vacuum_is_stationary(self):
        p = ModelParams(gamma_M=0.1, Mbar=0.0, gamma_a_coop=0.03)
        space = build_space(1, 2)
        vac = np.outer(space.ket(0, 0, 0, 0), space.ket(0, 0, 0, 0).conj())
        out = liouvillian_apply(
            build_hamiltonian(p, space), build_dissipators(p, space), vac
        )
        assert abs(out).max() < 1e-14

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(1)
        p = ModelParams(gamma_M=0.05, Mbar=0.1, gamma_a_coop=0.02, J=0.3)
        space = build_space(1, 2)
        rho = _random_rho(rng, space.dim)
        out = liouvillian_apply(
            build_hamiltonian(p, space), build_dissipators(p, space), rho
        )
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
        assert abs(brute - gen.superoperator()).max() < 1e-12
        rho = _random_rho(rng, d)
        via_matrix = (gen.superoperator() @ rho.reshape(-1)).reshape(d, d)
        assert abs(via_matrix - gen.apply(rho)).max() < 1e-12

    def test_dimension_mismatch(self):
        p = ModelParams()
        space = build_space(1, 1)
        with pytest.raises(ConfigurationError):
            liouvillian_apply(
                build_hamiltonian(p, space), build_dissipators(p, space), np.eye(3)
            )


class TestHeisenbergAdjoint:
    def test_pairing_identity(self):
        # Tr[A' L(X)] == Tr[(L'(A))' X] for random matrices
        rng = np.random.default_rng(3)
        p = ModelParams(gamma_M=0.06, Mbar=0.2, gamma_a_coop=0.01, J=0.2)
        space = build_space(1, 1)
        H = build_hamiltonian(p, space)
        diss = build_dissipators(p, space)
        d = space.dim
        for _ in range(4):
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            lhs = np.trace(A.conj().T @ liouvillian_apply(H, diss, X))
            rhs = np.trace(heisenberg_apply(H, diss, A).conj().T @ X)
            assert abs(lhs - rhs) < 1e-10

    def test_identity_is_stationary_in_heisenberg_picture(self):
        p = ModelParams(gamma_M=0.05, Mbar=0.1)
        space = build_space(1, 1)
        out = heisenberg_apply(
            build_hamiltonian(p, space),
            build_dissipators(p, space),
            np.eye(space.dim, dtype=complex),
        )
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
        n_op = optical_excitation_operator(space).toarray()
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

    def test_trace_drift_aborts(self):
        p, space, gen, _ = _damped_cavity()

        class Leaky:
            # the steppers read superoperator(), so it has to leak as well
            dim = gen.dim

            def apply(self, rho):
                return gen.apply(rho) - 0.01 * rho

            apply_adjoint = gen.apply_adjoint

            def superoperator(self):
                return gen.superoperator() - 0.01 * sparse.identity(gen.dim**2)

        rho0 = np.eye(space.dim, dtype=complex) / space.dim
        with pytest.raises(NumericalError, match="trace drift"):
            evolve(rho0, Leaky(), EvolutionConfig(dt=0.05, t_max=50.0))

    def test_step_size_guard(self):
        check_step_size(0.02, ModelParams())
        with pytest.raises(ConfigurationError):
            check_step_size(0.05, ModelParams(g_a=2.4))


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

        a = ladder_operators(space)["a"]
        with pytest.raises(NumericalError, match="adjoint smoke test"):
            two_time_correlation(
                rho0, BrokenAdjoint(), EvolutionConfig(dt=0.02, t_max=1.0, method=method), a
            )

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
                assert abs(coarse.value(j, k) - fine.value(2 * j, 2 * k)) < 1e-6

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
                assert abs(coarse.value(j, k) - fine.value(2 * j, 2 * k)) < 1e-6


class TestTwoTimeCorrelation:
    def test_initial_photonless_state_gives_zero_origin(self):
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=1.0)
        grid = two_time_correlation(rho0, gen, cfg, a)
        assert abs(grid.value(0, 0)) < 1e-14

    def test_damped_cavity_analytic(self):
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        mon = optical_excitation_operator(space)
        cfg = EvolutionConfig(dt=0.02, t_max=400.0, method="rk4")
        grid = two_time_correlation(rho0, gen, cfg, a, monitor=mon, kappa=0.2)
        t = np.arange(grid.n_t) * grid.dt
        for k in (0, 17, 501, grid.n_t - 2):
            col = grid.column(k)
            exact = np.exp(-0.2 * (t[k:] + t[k]) / 2)
            assert np.abs((col - exact) / exact).max() < 1e-5

    def test_diagonal_matches_direct_trajectory(self):
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        n_op = (a.getH() @ a).toarray()
        cfg = EvolutionConfig(dt=0.02, t_max=3.0)
        grid = two_time_correlation(rho0, gen, cfg, a)
        traj = evolve(rho0, gen, cfg)
        for k in range(0, grid.n_t, 10):
            direct = np.trace(n_op @ traj.states[k]).real
            assert abs(grid.value(k, k).real - direct) < 1e-8
            assert abs(grid.value(k, k).imag) < 1e-10

    def test_conjugate_symmetry_by_independent_recomputation(self):
        # evolve the swapped-role operand rho(t') a' and compare against the
        # conjugate of the stored lower triangle
        p = ModelParams(J=0.3)
        space = build_space(1, 1, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"].toarray()
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
                upper, np.conj(grid.column(k)), atol=1e-10
            )

    def test_kernel_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        grid = two_time_correlation(rho0, gen, EvolutionConfig(dt=0.02, t_max=6.0), a)
        C = grid.to_dense()
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

    def test_thread_count_does_not_change_values(self):
        p = ModelParams()
        space = build_space(1, 2, excitation_cap=1)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        rho0 = initial_state(p, space)
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=8.0)
        g1 = two_time_correlation(rho0, gen, cfg, a, threads=1)
        g3 = two_time_correlation(rho0, gen, cfg, a, threads=3)
        assert np.array_equal(g1.data, g3.data)


def _rk4_once(gen, X, h):
    k1 = gen.apply(X)
    k2 = gen.apply(X + 0.5 * h * k1)
    k3 = gen.apply(X + 0.5 * h * k2)
    k4 = gen.apply(X + h * k3)
    return X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class TestGridStorage:
    def test_value_and_conjugate_access(self):
        data = np.array([1 + 0j, 2 + 1j, 3 - 1j], dtype=complex)  # n_t = 2
        grid = CorrelationGrid(dt=0.1, n_t=2, data=data)
        assert grid.value(1, 0) == 2 + 1j
        assert grid.value(0, 1) == 2 - 1j
        assert np.array_equal(grid.diagonal(), np.array([1 + 0j, 3 - 1j]))

    def test_save_load_roundtrip(self, tmp_path):
        _, space, gen, rho0 = _damped_cavity()
        a = ladder_operators(space)["a"]
        grid = two_time_correlation(
            rho0, gen, EvolutionConfig(dt=0.05, t_max=2.0), a,
            kappa=0.2, param_hash=b"\x01" * 32,
        )
        path = tmp_path / "grid.bin"
        grid.save(path)
        loaded = CorrelationGrid.load(path)
        assert loaded.n_t == grid.n_t
        assert loaded.dt == grid.dt
        assert loaded.kappa == grid.kappa
        assert loaded.param_hash == b"\x01" * 32
        np.testing.assert_array_equal(loaded.data, grid.data)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dump at all")
        with pytest.raises(ConfigurationError):
            CorrelationGrid.load(path)


def _brute_force_grid(gen, rho0, a, config):
    """Slow path: full d x d matrices, one forward propagation per column.

    C[j][k] = Tr[a' Phi_{t_j - t_k}(a rho(t_k))], stepped with gen.apply
    (RK4) or with the dense expm of the full superoperator.
    """
    d = gen.dim
    if config.method == "expm":
        P = linalg.expm(gen.superoperator().toarray() * config.dt)

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


@st.composite
def _model_points(draw):
    """Small spaces with every dissipation channel switched on."""
    N_m = draw(st.integers(0, 2))
    gamma_a = draw(st.floats(0.02, 0.3))
    params = ModelParams(
        g_a=draw(st.floats(0.2, 2.4)),
        g_M=draw(st.floats(0.1, 1.2)),
        delta_ac=draw(st.floats(-1.0, 1.0)),
        J=draw(st.floats(-1.0, 1.0)),
        kappa=draw(st.floats(0.05, 0.5)),
        gamma_a=gamma_a,
        gamma_a_coop=draw(st.floats(-1.0, 1.0)) * gamma_a,
        gamma_M=draw(st.floats(0.01, 0.3)),
        # the thermal weight must fit the phonon cutoff
        Mbar=draw(st.floats(1e-4, 1e-3 if N_m == 0 else 0.03)),
    )
    cap = draw(st.sampled_from([1, None]))
    initial = draw(st.sampled_from([1, 2, "symmetric", "antisymmetric"]))
    return params, build_space(1, N_m, cap), initial


class TestInvariantSectors:
    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @settings(max_examples=6, deadline=None)
    @given(point=_model_points())
    def test_sector_grid_matches_full_space_oracle(self, method, point):
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        rho0 = initial_state(params, space, initial)
        a = ladder_operators(space)["a"]
        cfg = EvolutionConfig(dt=0.02, t_max=0.4, method=method)
        grid = two_time_correlation(rho0, gen, cfg, a)
        brute = _brute_force_grid(gen, rho0, a.toarray(), cfg)
        full = np.tril(brute) + np.tril(brute, -1).conj().T
        # |C[j][k]| <= 1 for one excitation, so an absolute bound is relative
        assert np.abs(grid.to_dense() - full).max() <= 1e-12

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
        assert grids[1].sector_sizes == grids[None].sector_sizes == (90, 27)
        scale = np.abs(grids[1].data).max()
        assert np.abs(grids[1].data - grids[None].data).max() <= 1e-12 * scale
