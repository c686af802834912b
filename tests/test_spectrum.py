import json
import tracemalloc
from dataclasses import astuple, fields
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import model_points
from oracles import adjoint_stack, operand_stack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omtc.dynamics import (
    CorrelationGrid,
    EvolutionConfig,
    Generator,
    config_hash,
    two_time_correlation,
)
from omtc.errors import ConfigurationError
from omtc.grid import RUN_KEYS, _fast_length
from omtc.hilbert import build_space, ladder_operators
from omtc.model import ModelParams, build_dissipators, build_hamiltonian, initial_state
from omtc.spectrum import (
    FilterParams,
    NumericsConfig,
    Peak,
    SpectrumResult,
    _chirp,
    _evaluate,
    canonical_param_string,
    dominant_separation,
    filtered_counting_rate,
    filtered_spectrum,
    find_peaks,
    stationary_spectrum,
)


def _damped_cavity_grid(kappa=0.2, dt=0.02, t_max=40.0, detuning=0.0, method="expm"):
    p = ModelParams(g_a=0, g_M=0, gamma_a=0, kappa=kappa)
    space = build_space(1, 0, excitation_cap=1)
    ops = ladder_operators(space)
    H = build_hamiltonian(p, space)
    if detuning:
        H = H + detuning * (ops["a"].conj().T @ ops["a"])
    gen = Generator(H, build_dissipators(p, space))
    rho0 = np.outer(space.ket(0, 0, 1, 0), space.ket(0, 0, 1, 0).conj())
    cfg = EvolutionConfig(dt=dt, t_max=t_max, method=method)
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
        zeros = np.zeros((101, 3), dtype=complex)
        grid = CorrelationGrid(dt=0.05, U=zeros, X=zeros, kappa=0.2)
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
        # conj(U[tau] . X[k]) = conj(U[tau]) . conj(X[k]) (rk4, U from the
        # spectral form's accessor) and
        # conj(conj(D[j]) . D[k]) = D[j] . conj(D[k]) (expm, the D form)
        deltas = np.linspace(-2.0, 2.0, 41)
        for method in ("expm", "rk4"):
            grid = _damped_cavity_grid(detuning=0.5, method=method)
            if grid.D is None:
                flipped = CorrelationGrid(dt=grid.dt, U=np.conj(adjoint_stack(grid)), X=np.conj(operand_stack(grid)),
                                          kappa=grid.kappa)
            else:
                flipped = CorrelationGrid(dt=grid.dt, D=np.conj(grid.D), kappa=grid.kappa)
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


def _direct_sweep(grid, deltas, Gamma, n, G, A):
    """Slow path: the full phase matrix exp(-i Delta tau), one exp per pair.

    Returns the rate and counts as _evaluate defines them, plus the sums of
    their absolute terms, which bound the roundoff of either path.
    """
    h, kappa = grid.dt, grid.kappa
    tau = np.arange(1, n + 1) * h
    lags = np.stack([G[1:], np.exp(-Gamma * tau) * A[1:]], axis=1)
    sums = (np.exp(-1j * np.outer(deltas, tau)) @ lags).real
    rate = kappa * Gamma**2 * (G[0].real + 2.0 * sums[:, 0])
    counts = (kappa * Gamma / 2.0) * (A[0].real + 2.0 * sums[:, 1]) - rate / (2.0 * Gamma)
    abs_lags = np.abs(lags).sum(axis=0)
    rate_abs = kappa * Gamma**2 * (abs(G[0]) + 2.0 * abs_lags[0])
    counts_abs = (kappa * Gamma / 2.0) * (abs(A[0]) + 2.0 * abs_lags[1]) + rate_abs / (2.0 * Gamma)
    return rate, counts, rate_abs, counts_abs


class TestChirpSweep:
    @settings(max_examples=30)
    @given(
        n=st.integers(1, 3000),
        log_gamma=st.floats(-3.0, np.log10(5.0)),
        dt=st.sampled_from([0.01, 0.02, 0.05]),
        n_deltas=st.sampled_from([1, 130, 191]),
        seed=st.integers(0, 2**32 - 1),
    )
    # n = 1 and 2 are the shortest convolutions, 1024 is a power of two,
    # 1025 pads to the next fast length, 1759 is a prime; n = 3000 at
    # dt = 0.05 over |Delta| <= 50 has the largest chirp phases
    @example(n=1, log_gamma=-1.0, dt=0.02, n_deltas=1, seed=0)
    @example(n=2, log_gamma=-1.0, dt=0.02, n_deltas=130, seed=1)
    @example(n=1024, log_gamma=-2.0, dt=0.02, n_deltas=130, seed=2)
    @example(n=1025, log_gamma=-2.0, dt=0.02, n_deltas=191, seed=3)
    @example(n=1759, log_gamma=-2.3, dt=0.02, n_deltas=191, seed=4)
    @example(n=3000, log_gamma=-2.0, dt=0.05, n_deltas=191, seed=5)
    def test_matches_direct_phase_matrix(self, n, log_gamma, dt, n_deltas, seed):
        rng = np.random.default_rng(seed)

        def sums():
            return rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)

        G, A = sums(), sums()
        Gamma = 10.0**log_gamma
        grid = SimpleNamespace(dt=dt, kappa=0.3)
        # an evenly spaced grid within +-50, rising or falling
        start, stop = rng.uniform(-50.0, 50.0, size=2)
        deltas = np.linspace(start, stop, n_deltas)
        rate, counts = _evaluate(grid, deltas, Gamma, n, G, A)
        rate_ref, counts_ref, rate_abs, counts_abs = _direct_sweep(grid, deltas, Gamma, n, G, A)
        # the counts column cancels at small n, so the bound is the sum of
        # absolute terms, not the column maximum
        assert np.all(np.abs(rate - rate_ref) <= 1e-12 * rate_abs)
        assert np.all(np.abs(counts - counts_ref) <= 1e-12 * counts_abs)

    @settings(max_examples=20)
    @given(
        n=st.integers(1, 3000),
        n_deltas=st.sampled_from([1, 2, 130, 1281]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_transforms_are_the_expression(self, n, n_deltas, seed):
        # the FFTs transform x and the kernel in place, in the two buffers;
        # the sums are those of the expression with new arrays, bit for bit
        rng = np.random.default_rng(seed)
        G, A = rng.normal(size=(2, n + 1)) + 1j * rng.normal(size=(2, n + 1))
        grid, Gamma = SimpleNamespace(dt=0.02, kappa=0.3), 0.05
        deltas = np.linspace(-8.0, 8.0, n_deltas) if n_deltas > 1 else np.array([0.7])
        h, P = grid.dt, len(deltas)
        w, L, m = _chirp((deltas[-1] - deltas[0]) / max(P - 1, 1) * h / 2, max(n, P)), _fast_length(n + P), np.arange(n + 1)
        x, kernel = np.zeros((2, L), dtype=complex), np.zeros(L, dtype=complex)
        x[:, : n + 1] = [G, np.exp(-Gamma * h * m) * A] * (np.exp(-1j * deltas[0] * h * m) * w[: n + 1].conj())
        x[:, 0] *= 0.5
        kernel[:P], kernel[L - n :] = w[:P], w[n:0:-1]
        sums = (np.fft.ifft(np.fft.fft(x) * np.fft.fft(kernel))[:, :P] * w[:P].conj()).real
        rate = 2.0 * grid.kappa * Gamma**2 * sums[0]
        counts = grid.kappa * Gamma * sums[1] - rate / (2.0 * Gamma)
        for new, old in zip(_evaluate(grid, deltas, Gamma, n, G, A), (rate, counts), strict=True):
            assert np.array_equal(new.view(np.int64), old.view(np.int64))

    def test_arrays_grow_by_96_bytes_a_node(self):
        # x (two rows) and the kernel, 48 B per entry of L >= n + P, the
        # chirp w (16 B), the lags m (8 B) and the phase and decay of the
        # lags (24 B); the FFTs add no array of their own.  Each length
        # runs once first, so that numpy's FFT plans are cached
        grid, deltas = SimpleNamespace(dt=0.02, kappa=0.3), np.linspace(-8.0, 8.0, 321)
        peaks = []
        for n in (16000, 32000):
            G = A = np.ones(n + 1, dtype=complex)
            _evaluate(grid, deltas, 0.01, n, G, A)
            tracemalloc.start()
            try:
                _evaluate(grid, deltas, 0.01, n, G, A)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 100 * 16000

    def test_chirp_phases_to_roundoff(self):
        # at dt = 0.05 and a step of 100 / 190 the phase c j^2 reaches
        # 1.3e5 rad, where c j^2 rounded in double is off by up to 1.4e-11
        if np.finfo(np.longdouble).precision <= np.finfo(float).precision:
            pytest.skip("no extended precision for the reference")
        c, k = 100.0 / 190.0 * 0.05 / 2.0, 3191
        j = np.arange(k + 1, dtype=np.longdouble)
        reference = np.exp(1j * (np.longdouble(c) * j * j))
        assert np.abs(_chirp(c, k) - reference).max() <= 1e-14

    def test_uneven_detunings_rejected(self):
        grid = _damped_cavity_grid(t_max=5.0)
        deltas = np.linspace(-1.0, 1.0, 21)
        deltas[7] += 1e-6
        with pytest.raises(ConfigurationError, match="evenly spaced"):
            filtered_spectrum(grid, deltas, 0.05, grid.horizon)
        with pytest.raises(ConfigurationError, match="evenly spaced"):
            filtered_spectrum(grid, [0.0, 0.1, 0.3], 0.05, grid.horizon)
        with pytest.raises(ConfigurationError, match="no detunings"):
            filtered_spectrum(grid, [], 0.05, grid.horizon)


class TestNonNegativity:
    @pytest.mark.parametrize("method", ["rk4", "expm"])
    @settings(max_examples=5)
    @given(point=model_points(), log_gamma=st.floats(-2.3, -0.3))
    def test_unclamped_rate_nonnegative(self, method, point, log_gamma):
        # with an exact CP step C is a Gram matrix, so the rate is a
        # nonnegative quadratic form up to roundoff of
        # kappa Gamma^2 (sum_k q_k)^2 max|C|, and |C| <= |a|^2 = 1 at N_c = 1
        params, space, initial = point
        gen = Generator(build_hamiltonian(params, space), build_dissipators(params, space))
        grid = two_time_correlation(
            initial_state(params, space, initial), gen,
            EvolutionConfig(dt=0.02, t_max=12.0, method=method),
            ladder_operators(space)["a"], kappa=params.kappa,
        )
        Gamma = 10.0**log_gamma
        deltas = np.linspace(-6.0, 6.0, 241)
        for n in (grid.n_t - 1, (grid.n_t - 1) // 3):
            rate, _ = filtered_spectrum(grid, deltas, Gamma, n * grid.dt)
            w = np.full(n + 1, grid.dt)
            w[0] = w[n] = 0.5 * grid.dt
            q = w * np.exp(-Gamma * grid.dt * np.arange(n, -1, -1))
            assert rate.min() >= -1e-12 * params.kappa * Gamma**2 * q.sum() ** 2


def _find_peaks_loop(result, min_height_fraction):
    """find_peaks point by point, as it was before it ran over arrays: its oracle."""
    x, y = result.deltas, result.intensity
    threshold = min_height_fraction * float(np.max(y))
    peaks = []
    for i in range(1, len(x) - 1):
        if not (y[i - 1] < y[i] >= y[i + 1]):
            continue
        if y[i] < threshold:
            continue
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        hx = x[i + 1] - x[i]
        if denom >= 0.0:
            peaks.append(Peak(float(x[i]), float(y[i]), float(hx)))
            continue
        shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
        pos = x[i] + shift * hx
        height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
        width = 2.0 * np.sqrt(max(height, 0.0) * hx**2 / -denom)
        peaks.append(Peak(float(pos), float(height), float(width)))
    return peaks


def _bits(peaks):
    return [tuple(value.hex() for value in astuple(peak)) for peak in peaks]


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

    @settings(max_examples=200)
    @given(
        n=st.integers(3, 200),
        levels=st.integers(2, 8),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, levels=2, fraction=0.5, seed=0)
    def test_peaks_are_the_loops_bits(self, n, levels, fraction, seed):
        # uneven steps, plateaus (a few levels, powers of two times a
        # scale) and points one ulp below their right neighbour: below a
        # plateau at a power of two the curvature rounds to 0, the
        # denom >= 0 branch; every peak has the loop's bits
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 10.0
        y = 2.0 ** rng.integers(0, levels, n) * rng.choice([1.0, rng.uniform(0.1, 10.0)])
        below = np.flatnonzero(rng.random(n - 1) < 0.3)
        y[below] = np.nextafter(y[below + 1], -np.inf)
        result = _result_from_arrays(x, y)
        assert _bits(find_peaks(result, fraction)) == _bits(_find_peaks_loop(result, fraction))

    def test_width_takes_the_step_squared_by_pow(self):
        # h = 0.5129835547887271: h**2 by the C library's pow and h * h
        # differ in the last bit, and so does the width of this peak
        h = 0.5129835547887271
        result = _result_from_arrays(np.array([-1.0, 0.0, h]), np.array([0.0, 1.0, 0.5]))
        (peak,) = find_peaks(result, 0.5)
        assert _bits([peak]) == _bits(_find_peaks_loop(result, 0.5))
        assert peak.width == 2.0 * np.sqrt(peak.height * h**2 / 1.5) != 2.0 * np.sqrt(peak.height * (h * h) / 1.5)

    def test_flat_curvature_keeps_the_point(self):
        # 1 - 2^-53, 1, 1: the curvature (1 - 2^-53) - 2 + 1 rounds to 0, so
        # the peak is the point itself with the step as its width
        x = np.array([0.0, 0.5, 1.25, 2.0, 3.0])
        y = np.array([0.0, 1.0 - 2.0**-53, 1.0, 1.0, 0.0])
        result = _result_from_arrays(x, y)
        assert find_peaks(result, 0.5) == _find_peaks_loop(result, 0.5) == [Peak(1.25, 1.0, 0.75)]

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
        assert list(res.params) == [f.name for f in fields(ModelParams)]
        assert "threads" not in res.metadata

    def test_sector_sizes_in_metadata(self, tmp_path):
        res = self._run(g_a=1.0, g_M=0.4)
        # N_m = 2 in the exchange basis: the rho_11 block of the six bright
        # one-excitation states and the start's dark one (49; rho_00 is
        # carried only by its trace p), a rho in the 0-1 block (3 x 7)
        assert (res.metadata["forward_sector"], res.metadata["adjoint_sector"]) == (49, 21)
        # expm without mechanical losses: both passes factored, one column
        # of rho_11 and one of rho_01 per one-photon state
        assert res.metadata["columns"] == (1, 3)
        path = tmp_path / "grid.bin"
        res.grid.save(path)
        loaded = CorrelationGrid.load(path)
        assert loaded.run is None

    @pytest.mark.parametrize("method", ["expm", "rk4"])
    @pytest.mark.parametrize("gamma_M", [0.0, 0.05])
    def test_metadata_is_one_record(self, tmp_path, method, gamma_M):
        # the D, spectral and both stepped forms, and a reload of each dump:
        # one key set in one order, JSON as it stands, and the grid's run
        # record copied into it unrenamed
        params = ModelParams(g_a=1.0, g_M=0.4, gamma_M=gamma_M)
        numerics = NumericsConfig(
            evolution=EvolutionConfig(dt=0.05, t_max=5.0, method=method), N_c=1, N_m=2,
        )
        filt = FilterParams(Gamma=0.05, delta_min=-4, delta_max=4, n_points=41)
        res = stationary_spectrum(params, filt, numerics)
        path = tmp_path / "grid.bin"
        res.grid.save(path)
        again = stationary_spectrum(params, filt, numerics, grid=CorrelationGrid.load(path))
        keys = ["n_t", "grid_memory_bytes", "dim", *RUN_KEYS, "window_capture", "clipped_points",
                "wall_clock_s"]
        assert list(res.metadata) == list(again.metadata) == keys
        for metadata in (res.metadata, again.metadata):
            json.dumps(metadata)  # TypeError for a value that is not JSON
        for key in RUN_KEYS[:-1]:
            assert res.metadata[key] == res.grid.run[key]
            assert again.metadata[key] is None
        forms = {("expm", 0.0): "factored/separable", ("rk4", 0.0): "spectral/spectral",
                 ("expm", 0.05): "dense/dense", ("rk4", 0.05): "rk4/rk4"}
        assert res.metadata["propagator"] == forms[method, gamma_M]
        stages = ["setup", "smoke", "forward", *(["adjoint"] if gamma_M else [])]
        assert list(res.metadata["stage_s"]) == ["model", *stages, "sweep"]
        assert again.metadata["stage_s"] is None

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


def _spectrum_of(grid, filt):
    """stationary_spectrum on a ready grid, under the default parameters' hash."""
    params, numerics = ModelParams(), NumericsConfig()
    grid.param_hash = config_hash(canonical_param_string(params, numerics, 1))
    return stationary_spectrum(params, filt, numerics, grid=grid)


class TestWindowCapture:
    def test_full_period_captures_everything(self):
        grid = _damped_cavity_grid(t_max=10.0)
        edge = np.pi / grid.dt
        # more points than lags: the trapezoid rule is exact on the period
        filt = FilterParams(Gamma=0.05, delta_min=-edge, delta_max=edge, n_points=grid.n_t + 2)
        res = _spectrum_of(grid, filt)
        assert res.metadata["window_capture"] == pytest.approx(1.0, abs=1e-9)
        assert res.metadata["clipped_points"] == 0

    def test_zero_grid_has_no_capture(self):
        zeros = np.zeros((101, 3), dtype=complex)
        grid = CorrelationGrid(dt=0.05, U=zeros, X=zeros, kappa=0.2)
        res = _spectrum_of(grid, FilterParams())
        assert res.metadata["window_capture"] is None

    def test_window_cutting_the_line(self):
        grid = _damped_cavity_grid(t_max=10.0)
        res = _spectrum_of(grid, FilterParams(Gamma=0.05, delta_min=-0.2, delta_max=0.2))
        assert 0.0 < res.metadata["window_capture"] < 1.0

    def test_clamped_noise_counted_and_capture_unclamped(self):
        # rk4 keeps the U/X form, so the grid has a negative multiple (the D
        # form's C = D^H D is positive semidefinite by construction)
        grid = _damped_cavity_grid(t_max=10.0, method="rk4")
        filt = FilterParams(Gamma=0.05, delta_min=-2.0, delta_max=2.0, n_points=81)
        res = _spectrum_of(grid, filt)
        # a tiny negative multiple of the grid: every entry is clamp noise
        tiny = CorrelationGrid(dt=grid.dt, U=adjoint_stack(grid), X=-1e-12 * operand_stack(grid), kappa=grid.kappa)
        noise = _spectrum_of(tiny, filt)
        assert noise.metadata["clipped_points"] == 2 * filt.n_points
        assert np.all(noise.intensity == 0.0) and np.all(noise.integrated_counts == 0.0)
        assert noise.metadata["window_capture"] == pytest.approx(
            res.metadata["window_capture"], rel=1e-9
        )
