import numpy as np
import pytest

from omtc.dynamics import CorrelationGrid, EvolutionConfig, Generator, two_time_correlation
from omtc.errors import ConfigurationError
from omtc.hilbert import build_space, ladder_operators
from omtc.model import ModelParams, build_dissipators, build_hamiltonian
from omtc.spectrum import (
    FilterParams,
    NumericsConfig,
    SpectrumResult,
    dominant_separation,
    filtered_counting_rate,
    filtered_spectrum,
    find_peaks,
    stationary_spectrum,
)


def _damped_cavity_grid(kappa=0.2, dt=0.02, t_max=40.0, detuning=0.0):
    p = ModelParams(g_a=0, g_M=0, gamma_a=0, kappa=kappa)
    space = build_space(1, 0, excitation_cap=1)
    ops = ladder_operators(space)
    H = build_hamiltonian(p, space)
    if detuning:
        H = H + detuning * (ops["a"].getH() @ ops["a"])
    gen = Generator(H, build_dissipators(p, space))
    rho0 = np.outer(space.ket(0, 0, 1, 0), space.ket(0, 0, 1, 0).conj())
    cfg = EvolutionConfig(dt=dt, t_max=t_max, method="expm")
    return two_time_correlation(rho0, gen, cfg, ops["a"], kappa=kappa)


def _result_from_arrays(deltas, intensity):
    return SpectrumResult(
        deltas=np.asarray(deltas),
        intensity=np.asarray(intensity),
        integrated_counts=np.zeros_like(np.asarray(intensity)),
        horizon=1.0,
        residual_excitation=None,
        peaks=[],
        params={},
        metadata={},
    )


class TestFilteredCountingRate:
    def test_zero_grid(self):
        n_t = 101
        grid = CorrelationGrid(
            dt=0.05, n_t=n_t, data=np.zeros(n_t * (n_t + 1) // 2, dtype=complex),
            kappa=0.2,
        )
        for delta in (-3.0, 0.0, 1.7):
            assert filtered_counting_rate(grid, delta, 0.05, 5.0) == 0.0

    def test_damped_cavity_closed_form(self):
        kappa = 0.2
        grid = _damped_cavity_grid(kappa=kappa)
        Gamma = 0.01 * kappa
        T = grid.horizon
        N = filtered_counting_rate(grid, 0.0, Gamma, T)
        amp = (np.exp(-kappa * T / 2) - np.exp(-Gamma * T)) / (Gamma - kappa / 2)
        closed = kappa * Gamma**2 * abs(amp) ** 2
        assert N == pytest.approx(closed, rel=1e-3)

    def test_line_at_zero_detuning_and_symmetric(self):
        grid = _damped_cavity_grid()
        Gamma = 0.002
        T = grid.horizon
        deltas = np.linspace(-1.0, 1.0, 41)
        N, _ = filtered_spectrum(grid, deltas, Gamma, T)
        assert np.argmax(N) == 20
        np.testing.assert_allclose(N, N[::-1], rtol=1e-9)

    def test_detuned_mode_peaks_at_its_frequency(self):
        # pins the spectral axis orientation: a mode at +delta in the
        # rotating frame must appear at Delta = +delta
        grid = _damped_cavity_grid(detuning=0.8)
        deltas = np.linspace(-2.0, 2.0, 81)
        N, _ = filtered_spectrum(grid, deltas, 0.02, grid.horizon)
        assert deltas[np.argmax(N)] == pytest.approx(0.8, abs=0.05)

    def test_real_within_tolerance(self):
        grid = _damped_cavity_grid()
        val = filtered_counting_rate(grid, 0.35, 0.01, grid.horizon)
        assert isinstance(val, float)

    def test_conjugated_grid_reflects_spectrum(self):
        grid = _damped_cavity_grid(detuning=0.5)
        flipped = CorrelationGrid(
            dt=grid.dt, n_t=grid.n_t, data=np.conj(grid.data), kappa=grid.kappa
        )
        deltas = np.linspace(-2.0, 2.0, 41)
        N, _ = filtered_spectrum(grid, deltas, 0.02, grid.horizon)
        N_flip, _ = filtered_spectrum(flipped, -deltas[::-1], 0.02, grid.horizon)
        np.testing.assert_allclose(N, N_flip[::-1], atol=1e-10)

    def test_snapping_rejects_out_of_range(self):
        grid = _damped_cavity_grid(t_max=5.0)
        with pytest.raises(ConfigurationError):
            filtered_counting_rate(grid, 0.0, 0.01, grid.horizon + 1.0)
        with pytest.raises(ConfigurationError):
            filtered_counting_rate(grid, 0.0, -0.01, grid.horizon)

    def test_integrated_counts_against_numeric_time_integral(self):
        grid = _damped_cavity_grid(t_max=15.0)
        Gamma = 0.05
        delta = 0.1
        T = grid.horizon
        _, I_closed = filtered_spectrum(grid, np.array([delta]), Gamma, T)
        ts = np.arange(1, grid.n_t, 4) * grid.dt
        Ns = [filtered_counting_rate(grid, delta, Gamma, t) for t in ts]
        numeric = np.trapezoid([0.0] + Ns, np.concatenate(([0.0], ts)))
        assert I_closed[0] == pytest.approx(numeric, rel=5e-3)


class TestFindPeaks:
    def test_single_lorentzian(self):
        x = np.linspace(-4, 4, 161)
        center, hwhm = 0.63, 0.4
        y = 1.0 / (1.0 + ((x - center) / hwhm) ** 2)
        peaks = find_peaks(_result_from_arrays(x, y), 0.1)
        assert len(peaks) == 1
        assert abs(peaks[0].position - center) < (x[1] - x[0])
        # the parabolic fit estimates a Lorentzian FWHM as sqrt(2) hwhm
        assert peaks[0].width == pytest.approx(np.sqrt(2) * hwhm, rel=0.05)

    def test_symmetric_doublet(self):
        x = np.linspace(-4, 4, 321)
        y = np.exp(-((x - 1.5) ** 2) / 0.05) + np.exp(-((x + 1.5) ** 2) / 0.05)
        peaks = find_peaks(_result_from_arrays(x, y), 0.5)
        assert len(peaks) == 2
        assert peaks[0].height == pytest.approx(peaks[1].height, rel=0.01)
        assert peaks[0].position == pytest.approx(-peaks[1].position, abs=1e-6)

    def test_threshold_filters_small_bumps(self):
        x = np.linspace(0, 10, 101)
        y = np.exp(-((x - 3) ** 2)) + 0.05 * np.exp(-((x - 8) ** 2))
        assert len(find_peaks(_result_from_arrays(x, y), 0.2)) == 1
        assert len(find_peaks(_result_from_arrays(x, y), 0.01)) == 2

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            find_peaks(_result_from_arrays([0, 1], [1, 2]), 0.5)
        with pytest.raises(ConfigurationError):
            find_peaks(_result_from_arrays(np.arange(5), np.ones(5)), 1.5)

    def test_doubling_resolution_keeps_positions(self):
        grid = _damped_cavity_grid(detuning=0.5)
        base = FilterParams(Gamma=0.02, delta_min=-2, delta_max=2, n_points=81)
        fine = FilterParams(Gamma=0.02, delta_min=-2, delta_max=2, n_points=161)
        spacing = 4.0 / 80
        results = {}
        for fp in (base, fine):
            N, I = filtered_spectrum(grid, fp.deltas(), fp.Gamma, grid.horizon)
            res = _result_from_arrays(fp.deltas(), N)
            results[fp.n_points] = find_peaks(res, 0.2)
        for p_coarse in results[81]:
            nearest = min(results[161], key=lambda q: abs(q.position - p_coarse.position))
            assert abs(nearest.position - p_coarse.position) <= spacing

    def test_dominant_separation(self):
        x = np.linspace(-4, 4, 321)
        y = (
            np.exp(-((x - 2.0) ** 2) / 0.02)
            + 0.8 * np.exp(-((x + 1.0) ** 2) / 0.02)
            + 0.1 * np.exp(-((x - 0.5) ** 2) / 0.02)
        )
        peaks = find_peaks(_result_from_arrays(x, y), 0.05)
        assert dominant_separation(peaks) == pytest.approx(3.0, abs=0.05)


class TestStationarySpectrum:
    def _run(self, **overrides):
        params = ModelParams(**overrides)
        numerics = NumericsConfig(
            evolution=EvolutionConfig(dt=0.02, t_max=60.0, method="expm"),
            N_c=1,
            N_m=2,
            excitation_cap=1,
        )
        filt = FilterParams(Gamma=0.05, delta_min=-6, delta_max=6, n_points=121)
        return stationary_spectrum(params, filt, numerics)

    def test_intensities_nonnegative(self):
        res = self._run(g_a=1.0, g_M=0.4)
        assert res.intensity.min() >= 0.0
        assert res.integrated_counts.min() >= 0.0
        assert np.all(np.diff(res.deltas) > 0)

    def test_metadata_and_horizon(self):
        res = self._run(g_a=1.0, g_M=0.4)
        assert res.metadata["n_t"] == int(round(res.horizon / 0.02)) + 1
        assert res.residual_excitation < 1e-4 or res.horizon == 60.0

    def test_sector_sizes_in_metadata(self, tmp_path):
        res = self._run(g_a=1.0, g_M=0.4)
        # N_m = 2: rho_11 and rho_00 blocks (81 + 9), a rho in the 0-1 block
        assert (res.metadata["forward_sector"], res.metadata["adjoint_sector"]) == (90, 27)
        path = tmp_path / "grid.bin"
        res.grid.save(path)
        assert CorrelationGrid.load(path).sector_sizes is None

    def test_grid_reuse_with_matching_hash(self):
        params = ModelParams(g_a=1.0, g_M=0.4)
        numerics = NumericsConfig(
            evolution=EvolutionConfig(dt=0.02, t_max=30.0, method="expm"),
            N_c=1, N_m=2, excitation_cap=1,
        )
        filt = FilterParams(Gamma=0.05, delta_min=-6, delta_max=6, n_points=61)
        first = stationary_spectrum(params, filt, numerics)
        again = stationary_spectrum(params, filt, numerics, grid=first.grid)
        np.testing.assert_array_equal(first.intensity, again.intensity)

    def test_step_guard_enforced(self):
        numerics = NumericsConfig(
            evolution=EvolutionConfig(dt=0.1, t_max=10.0), N_c=1, N_m=0,
        )
        with pytest.raises(ConfigurationError, match="too coarse"):
            stationary_spectrum(ModelParams(), FilterParams(), numerics)

    def test_grid_reuse_rejects_wrong_parameters(self):
        params = ModelParams(g_a=1.0, g_M=0.4)
        numerics = NumericsConfig(
            evolution=EvolutionConfig(dt=0.02, t_max=30.0, method="expm"),
            N_c=1, N_m=2, excitation_cap=1,
        )
        filt = FilterParams(Gamma=0.05, delta_min=-6, delta_max=6, n_points=61)
        first = stationary_spectrum(params, filt, numerics)
        other = ModelParams(g_a=1.1, g_M=0.4)
        with pytest.raises(ConfigurationError, match="hash"):
            stationary_spectrum(other, filt, numerics, grid=first.grid)
