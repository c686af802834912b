"""Filtered emission spectra from the two-time correlation grid.

The counting rate behind a Lorentzian filter of bandwidth Gamma at
detuning Delta, evaluated at time T, is

    N(T; Delta, Gamma) = kappa Gamma^2 * double integral over [0,T]^2 of
        exp(-(Gamma - i Delta)(T - t')) exp(-(Gamma + i Delta)(T - t''))
        <a'(t') a(t'')> dt' dt''

computed by trapezoidal quadrature on the correlation mesh.  Because the
filter kernel depends on t' and t'' only through exp(-Gamma(T-t)) factors
and a phase in the lag t' - t'', the double sum collapses to per-lag
reductions that are independent of Delta.  The grid computes them from
its factor stacks (CorrelationGrid.lag_sums: a blocked Gram recurrence
over U and X, or two FFT autocorrelations of D).  The detunings form an
evenly spaced grid (FilterParams.deltas), so the phase sums over the lags
for every detuning at once are one chirp z-transform, a convolution taken
by FFTs in O((n_t + P) log(n_t + P)) for P detunings (see _evaluate); an
uneven grid is a ConfigurationError.  The result is assembled as
2 Re(lower triangle) + diagonal, so it is real by construction.

correlation_grid builds the grid (or checks a dumped one) and the head
of the run's metadata; stationary_spectrum sweeps it.  The metadata is
one JSON-serializable record with the same keys for every run: n_t,
grid_memory_bytes and dim, then the grid's run record
(CorrelationGrid.run, keyed by grid.RUN_KEYS; every value None for a
dumped grid), with stage_s extended by the model build and the sweep
with its lag sums when this call ran the propagation, then the
share of the emission that falls inside the detuning window
(window_capture, from G[0] of the sweep's own lag sums), the number of quadrature-noise entries its clamp set to
zero (clipped_points) and wall_clock_s.

A second output column integrates the counting rate over the whole run,
int_0^T N(t) dt, the detector-counts reading of the same data (the time
integral is carried out in closed form under the fixed quadrature
weights).
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import DEFAULT_PEAK_FRACTION, FilterParams, NumericsConfig, canonical_param_string
from .dynamics import (
    CorrelationGrid,
    Generator,
    check_step_size,
    config_hash,
    two_time_correlation,
)
from .errors import ConfigurationError
from .grid import RUN_KEYS, _fast_length
from .hilbert import build_space, ladder_operators, optical_excitation_operator, to_exchange
from .model import ModelParams, build_dissipators, build_hamiltonian, initial_state

@dataclass(frozen=True)
class Peak:
    position: float
    height: float
    width: float


@dataclass
class SpectrumResult:
    deltas: np.ndarray
    intensity: np.ndarray
    integrated_counts: np.ndarray
    horizon: float
    residual_excitation: float | None
    peaks: list
    params: dict
    metadata: dict
    grid: CorrelationGrid | None = None


def _snap_to_node(grid: CorrelationGrid, T: float) -> int:
    """Nearest grid node for the evaluation time; never interpolates."""
    n = int(round(T / grid.dt))
    if abs(T - n * grid.dt) > 0.5 * grid.dt + 1e-12 or n < 1 or n > grid.n_t - 1:
        raise ConfigurationError(
            f"evaluation time T={T} is not within half a step of a grid node "
            f"(dt={grid.dt}, horizon={grid.horizon})"
        )
    return n


def _chirp(c: float, k: int) -> np.ndarray:
    """exp(i c j^2) for j = 0 .. k, to roundoff however large c j^2 grows.

    c = hi + lo with hi rounded to 53 - bits(k^2) significant bits, so
    hi j^2 is exact and the exponential reduces the exact phase; the
    rounding of lo j^2 is at most 2^(bits(k^2) - 53) eps of the phase.
    c j^2 rounded in one product would be off by up to eps c k^2 / 2,
    about 1e-11 rad at k = 3000, h = 0.05 and a detuning step of 0.5.
    """
    j2 = np.arange(k + 1, dtype=float) ** 2
    e = math.frexp(c)[1] - 53 + (k * k).bit_length()
    hi = math.ldexp(round(math.ldexp(c, -e)), e)
    return np.exp(1j * (hi * j2)) * np.exp(1j * ((c - hi) * j2))


def _evaluate(grid, deltas, Gamma, n, G, A):
    """Counting rate and integrated counts at the reduced lag sums.

    The detunings must be an arithmetic progression Delta_p = Delta_0 + p d
    (to 1e-12 of the largest; ConfigurationError otherwise), so the phase
    sums S_p = sum_m exp(-i Delta_p m h) L_m over the lags m = 0 .. n (lag 0
    halved, so each column is 2 Re S) are one chirp z-transform (Bluestein):
    with p m = (p^2 + m^2 - (m - p)^2) / 2 and w_j = exp(i d h j^2 / 2),
    S_p = conj(w_p) sum_m x_m w_(m-p), x_m = exp(-i Delta_0 m h) conj(w_m)
    L_m, a convolution taken by zero-padded FFTs of length >= n + P, each
    transform in place in one of two buffers (x, a row per sum, and the
    kernel w), which are all that grows with n.
    """
    h, kappa, P = grid.dt, grid.kappa, len(deltas)
    if not P:
        raise ConfigurationError("no detunings to sweep")
    step = (deltas[-1] - deltas[0]) / max(P - 1, 1)
    if np.max(np.abs(deltas[0] + step * np.arange(P) - deltas)) > 1e-12 * np.abs(deltas).max():
        raise ConfigurationError("the detunings must be evenly spaced")
    w, L, m = _chirp(step * h / 2, max(n, P)), _fast_length(n + P), np.arange(n + 1)
    x, kernel = np.zeros((2, L), dtype=complex), np.zeros(L, dtype=complex)
    # x filled in place: the exponentials in their arguments' arrays, and
    # conj(w) parked in x's second row until the decayed A overwrites it
    phase, decay = -1j * deltas[0] * h * m, -Gamma * h * m
    np.multiply(np.exp(phase, out=phase), np.conjugate(w[: n + 1], out=x[1, : n + 1]), out=phase)
    np.multiply(G, phase, out=x[0, : n + 1])
    np.multiply(np.exp(decay, out=decay), A, out=x[1, : n + 1])
    np.multiply(x[1, : n + 1], phase, out=x[1, : n + 1])
    x[:, 0] *= 0.5
    kernel[:P], kernel[L - n :] = w[:P], w[n:0:-1]
    # the two FFT buffers, transformed, multiplied and transformed back in place
    np.fft.fft(x, out=x)
    np.multiply(x, np.fft.fft(kernel, out=kernel), out=x)
    sums = (np.fft.ifft(x, out=x)[:, :P] * w[:P].conj()).real
    rate = 2.0 * kappa * Gamma**2 * sums[0]
    counts = kappa * Gamma * sums[1] - rate / (2.0 * Gamma)
    return rate, counts


def filtered_counting_rate(grid: CorrelationGrid, Delta: float, Gamma: float, T: float) -> float:
    """Single-point N(T; Delta, Gamma); real by symmetrized summation."""
    N, _ = filtered_spectrum(grid, np.array([Delta]), Gamma, T)
    return float(N[0])


def filtered_spectrum(grid: CorrelationGrid, deltas, Gamma: float, T: float, zero_lag: bool = False):
    """Vector sweep of (counting rate, integrated counts) over evenly spaced detunings (or one).

    With zero_lag, also G[0] = sum_k q_k^2 C[k][k] of the lag sums that the
    sweep reduced (CorrelationGrid.lag_sums), so the caller needs no second
    pass over the grid.
    """
    if Gamma <= 0:
        raise ConfigurationError(f"Gamma must be > 0, got {Gamma}")
    n = _snap_to_node(grid, T)
    G, A = grid.lag_sums(Gamma, n)
    rate, counts = _evaluate(grid, np.asarray(deltas, dtype=float), Gamma, n, G, A)
    return (rate, counts, complex(G[0])) if zero_lag else (rate, counts)


def find_peaks(result: SpectrumResult, min_height_fraction: float) -> list:
    """Local maxima above a fraction of the global maximum.

    Positions and heights are refined by a three-point quadratic fit; the
    width column is the FWHM of that parabola.  A point whose neighbours
    do not curve down (denominator >= 0) keeps its own position and height
    and the step as its width.  The scan and the fit run over arrays with
    the float operations of a point-by-point loop, in its order, so every
    value has the loop's bits: hx^2 is a Python float power, as numpy's
    array square (a product) rounds apart from the C library's pow.
    """
    if not 0.0 < min_height_fraction < 1.0:
        raise ConfigurationError(
            f"min_height_fraction must be in (0, 1), got {min_height_fraction}"
        )
    x, y = np.asarray(result.deltas, dtype=float), np.asarray(result.intensity, dtype=float)
    if len(x) < 3:
        raise ConfigurationError("peak finding needs at least 3 sweep points")
    threshold = min_height_fraction * float(np.max(y))
    left, mid, right = y[:-2], y[1:-1], y[2:]
    i = np.flatnonzero((left < mid) & (mid >= right) & ~(mid < threshold))
    left, mid, right, at = left[i], mid[i], right[i], x[1:-1][i]
    hx = x[2:][i] - at
    denom = left - 2.0 * mid + right
    position, height, width = at.copy(), mid.copy(), hx.copy()
    fit = ~(denom >= 0.0)
    denom, hx, drop = denom[fit], hx[fit], left[fit] - right[fit]
    shift = 0.5 * drop / denom
    position[fit] = at[fit] + shift * hx
    height[fit] = mid[fit] - 0.25 * drop * shift
    top = height[fit]
    squares = np.array([step**2 for step in hx.tolist()])
    width[fit] = 2.0 * np.sqrt(np.where(0.0 > top, 0.0, top) * squares / -denom)
    return [Peak(*values) for values in zip(position.tolist(), height.tolist(), width.tolist())]


def dominant_separation(peaks: list) -> float:
    """Distance between the two tallest peaks."""
    if len(peaks) < 2:
        raise ConfigurationError("need at least two peaks for a separation")
    tallest = sorted(peaks, key=lambda p: p.height, reverse=True)[:2]
    return abs(tallest[0].position - tallest[1].position)


def correlation_grid(
    params: ModelParams,
    numerics: NumericsConfig,
    initial: int | str = 1,
    grid: CorrelationGrid | None = None,
):
    """The run's correlation grid and the head of its metadata record.

    Builds the model in the atoms' exchange basis (hilbert.to_exchange;
    see model): H and the channels from space.exchange_ladder and rho0
    rotated, while a and the monitor keep their matrices, so the bright
    and dark states fall into separate sectors; then propagates
    (two_time_correlation).  Or takes a previously dumped grid after a
    parameter-hash consistency check.  The head holds n_t, grid_memory_bytes, dim and the grid's run record
    (every value None for a dumped grid), its stage_s led by the model
    build.
    """
    t0 = time.perf_counter()
    expected_hash = config_hash(canonical_param_string(params, numerics, initial))
    stages = None  # seconds per stage, known only when this call ran the propagation
    if grid is None:
        check_step_size(numerics.evolution.dt, params)
        space = build_space(numerics.N_c, numerics.N_m, numerics.excitation_cap)
        ladder = space.exchange_ladder
        H = build_hamiltonian(params, space, ladder)
        diss = build_dissipators(params, space, ladder)
        gen = Generator(H, diss)
        rho0 = to_exchange(space, initial_state(params, space, initial))
        a_op = ladder_operators(space)["a"]
        monitor = optical_excitation_operator(space)
        stages = {"model": time.perf_counter() - t0}
        grid = two_time_correlation(
            rho0,
            gen,
            numerics.evolution,
            a_op,
            monitor=monitor,
            kappa=params.kappa,
            param_hash=expected_hash,
        )
        dim = space.dim
        stages.update(grid.run["stage_s"])
    else:
        if grid.param_hash != expected_hash:
            raise ConfigurationError(
                "correlation dump was produced with different parameters "
                "(hash mismatch); re-simulate or fix the config"
            )
        dim = build_space(numerics.N_c, numerics.N_m, numerics.excitation_cap).dim
    head = {"n_t": grid.n_t, "grid_memory_bytes": grid.memory_bytes, "dim": dim}
    return grid, {**head, **(grid.run or dict.fromkeys(RUN_KEYS)), "stage_s": stages}


def stationary_spectrum(
    params: ModelParams,
    filt: FilterParams,
    numerics: NumericsConfig,
    initial: int | str = 1,
    peak_fraction: float = DEFAULT_PEAK_FRACTION,
    grid: CorrelationGrid | None = None,
) -> SpectrumResult:
    """Full pipeline: simulate, build the grid, sweep the filter detuning.

    The grid (correlation_grid) is evaluated at the adaptive horizon
    (excitation below the leak tolerance, capped by t_max).  Passing a
    previously dumped grid skips the simulation after a parameter-hash
    consistency check.
    """
    t0 = time.perf_counter()
    grid, metadata = correlation_grid(params, numerics, initial, grid)
    stages = metadata["stage_s"]

    T = grid.horizon
    deltas = filt.deltas()
    t_sweep = time.perf_counter()
    intensity, integrated, zero_lag = filtered_spectrum(grid, deltas, filt.Gamma, T, zero_lag=True)
    if stages is not None:
        stages["sweep"] = time.perf_counter() - t_sweep
    # over a full period 2 pi / h of Delta the rate integrates to
    # 2 pi kappa Gamma^2 Re G[0] / h, so this is the share of the emission
    # that falls inside the window
    total = 2.0 * np.pi * grid.kappa * filt.Gamma**2 * zero_lag.real
    capture = float(np.trapezoid(intensity, deltas) * grid.dt / total) if total else None
    # tiny negative values are quadrature noise on a PSD kernel
    clipped = 0
    for column in (intensity, integrated):
        noise = (column < 0) & (column > -1e-9)
        clipped += int(np.count_nonzero(noise))
        column[noise] = 0.0

    result = SpectrumResult(
        deltas=deltas,
        intensity=intensity,
        integrated_counts=integrated,
        horizon=T,
        residual_excitation=grid.residual_excitation,
        peaks=[],
        params=asdict(params),
        metadata={
            **metadata,
            "window_capture": capture,
            "clipped_points": clipped,
            "wall_clock_s": None,  # filled below; excluded from file output
        },
        grid=grid,
    )
    result.peaks = find_peaks(result, peak_fraction)
    result.metadata["wall_clock_s"] = time.perf_counter() - t0
    return result

