import numpy as np
import pytest
from conftest import model_points
from hypothesis import given, settings
from hypothesis import strategies as st

from omtc.dynamics import Generator
from omtc.errors import ConfigurationError
from omtc.hilbert import BasisIndex, build_space, ladder_operators
from omtc.model import (
    DipoleGeometry,
    ModelParams,
    build_dissipators,
    build_hamiltonian,
    ddi_strength,
    dephasing_rate,
    initial_state,
    thermal_weight,
)

FIG2 = ModelParams()  # defaults are the reference strong-strong point


class TestModelParams:
    def test_defaults_match_reference_point(self):
        assert (FIG2.g_a, FIG2.g_M, FIG2.kappa, FIG2.gamma_a) == (2.4, 1.2, 0.2, 0.05)
        assert (FIG2.delta_ac, FIG2.J, FIG2.gamma_M, FIG2.Mbar) == (0, 0, 0, 0)

    def test_beta_equals_g_M(self):
        assert ModelParams(g_M=1.2).beta == 1.2

    def test_cp_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(gamma_a=0.05, gamma_a_coop=0.1)
        # equality is the subradiant edge case and must be allowed
        ModelParams(gamma_a=0.05, gamma_a_coop=0.05)
        ModelParams(gamma_a=0.05, gamma_a_coop=-0.05)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(kappa=-0.1)
        with pytest.raises(ConfigurationError):
            ModelParams(Mbar=-0.5)


class TestDdiStrength:
    def test_unit_ratio(self):
        geom = DipoleGeometry(gamma_0=2.0, c_0=1.0, omega_eg=1.0, r=1.0)
        assert ddi_strength(geom) == pytest.approx(1.5)

    def test_cubic_law(self):
        near = DipoleGeometry(gamma_0=1.0, c_0=1.0, omega_eg=1.0, r=1.0)
        far = DipoleGeometry(gamma_0=1.0, c_0=1.0, omega_eg=1.0, r=2.0)
        assert ddi_strength(near) / ddi_strength(far) == pytest.approx(8.0)

    def test_direct_evaluation(self):
        geom = DipoleGeometry(gamma_0=1.0, c_0=1.0, omega_eg=2.0, r=0.5)
        assert ddi_strength(geom) == pytest.approx(0.75)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            DipoleGeometry(gamma_0=1.0, c_0=1.0, omega_eg=0.0, r=1.0)


class TestThermalWeight:
    def test_zero_temperature(self):
        assert thermal_weight(0.0, 0) == 1.0
        assert thermal_weight(0.0, 3) == 0.0

    def test_direct_substitution(self):
        assert thermal_weight(1.0, 0) == pytest.approx(0.5)

    def test_partial_sum_geometric(self):
        total = sum(thermal_weight(0.1, m) for m in range(9))
        # geometric series partial sum: 1 - (Mbar/(1+Mbar))^9
        assert total == pytest.approx(1.0 - (0.1 / 1.1) ** 9)
        assert total >= 0.999


class TestHamiltonian:
    def test_phonon_energy_only(self):
        p = ModelParams(g_a=0, g_M=0, delta_ac=0, J=0)
        space = build_space(1, 3)
        H = build_hamiltonian(p, space)
        b = ladder_operators(space)["b"]
        np.testing.assert_allclose(H, b.conj().T @ b, atol=1e-15)

    def test_hermitian(self):
        for space in (build_space(1, 4, 1), build_space(2, 3)):
            H = build_hamiltonian(FIG2, space)
            assert abs(H - H.conj().T).max() < 1e-12

    def test_conserves_optical_excitation(self):
        from omtc.hilbert import optical_excitation_operator

        space = build_space(2, 2)
        H = build_hamiltonian(ModelParams(J=0.7, delta_ac=-0.3), space)
        N = optical_excitation_operator(space)
        assert abs(H @ N - N @ H).max() < 1e-12

    def test_single_excitation_atomic_block(self):
        # at g_M = 0: symmetric state at -delta_ac + J, antisymmetric at
        # -delta_ac - J, and only the symmetric one couples to |gg,1>
        p = ModelParams(g_a=1.7, g_M=0.0, delta_ac=0.4, J=0.9)
        space = build_space(1, 0, excitation_cap=1)
        H = build_hamiltonian(p, space)
        eg = space.ket(1, 0, 0, 0)
        ge = space.ket(0, 1, 0, 0)
        ph = space.ket(0, 0, 1, 0)
        sym = (eg + ge) / np.sqrt(2)
        anti = (eg - ge) / np.sqrt(2)
        assert np.vdot(sym, H @ sym) == pytest.approx(-0.4 + 0.9)
        assert np.vdot(anti, H @ anti) == pytest.approx(-0.4 - 0.9)
        assert np.vdot(ph, H @ sym) == pytest.approx(np.sqrt(2) * 1.7)
        assert abs(np.vdot(ph, H @ anti)) < 1e-14

    def test_capped_equals_projected(self):
        full = build_space(2, 3)
        capped = build_space(2, 3, excitation_cap=1)
        sel = np.array([full.index(s) for s in capped.basis])
        Hf = build_hamiltonian(FIG2, full)
        Hc = build_hamiltonian(FIG2, capped)
        np.testing.assert_array_equal(Hf[np.ix_(sel, sel)], Hc)


class TestCappedProjection:
    """The capped ladder, H and channels are the projections of the uncapped ones, bit for bit."""

    @settings(max_examples=25)
    @given(point=model_points(), N_c=st.integers(1, 2), N_m=st.integers(0, 3))
    def test_capped_operators_are_projections(self, point, N_c, N_m):
        params = point[0]
        full, capped = build_space(N_c, N_m), build_space(N_c, N_m, excitation_cap=1)
        sel = np.ix_(*[[full.index(s) for s in capped.basis]] * 2)
        ops_f, ops_c = ladder_operators(full), ladder_operators(capped)
        for name, op in ops_c.items():
            np.testing.assert_array_equal(ops_f[name][sel], op, err_msg=name)
        np.testing.assert_array_equal(build_hamiltonian(params, full)[sel], build_hamiltonian(params, capped))
        for cf, cc in zip(build_dissipators(params, full), build_dissipators(params, capped), strict=True):
            assert (cf.label, cf.rate) == (cc.label, cc.rate)
            np.testing.assert_array_equal(cf.op1[sel], cc.op1, err_msg=cf.label)
            np.testing.assert_array_equal(cf.op2[sel], cc.op2, err_msg=cf.label)

class TestDissipators:
    def test_three_nonzero_channels_without_mechanics(self):
        p = ModelParams(gamma_M=0, gamma_a_coop=0)
        spec = build_dissipators(p, build_space(1, 2, 1))
        assert len(spec) == 8
        labels = [c.label for c in spec if c.rate != 0.0]
        assert labels == ["atom1 decay", "atom2 decay", "cavity decay"]

    def test_zero_temperature_limits(self):
        p = ModelParams(gamma_M=0.05, Mbar=0.0)
        spec = build_dissipators(p, build_space(1, 2, 1))
        by_label = {c.label: c for c in spec}
        assert by_label["mechanical heating"].rate == 0.0
        assert by_label["photon-number dephasing"].rate == 0.0
        assert by_label["mechanical damping"].rate == pytest.approx(0.05)

    def test_dephasing_prefactor(self):
        # the channel contributes (rate/2) L[a'a] with
        # rate/2 = (2 beta)^2 gamma_M / ln(1 + 1/Mbar)
        p = ModelParams(g_M=1.2, gamma_M=0.05, Mbar=0.1)
        prefactor = (2 * 1.2) ** 2 * 0.05 / np.log(11.0)
        assert prefactor == pytest.approx(0.120105, abs=1e-5)
        assert dephasing_rate(p) == pytest.approx(2 * prefactor)

    def test_displaced_jump_operators(self):
        space = build_space(1, 3, 1)
        p = ModelParams(gamma_M=0.1, Mbar=0.2)
        spec = build_dissipators(p, space)
        ops = ladder_operators(space)
        n_c = ops["a"].conj().T @ ops["a"]
        by_label = {c.label: c for c in spec}
        down = by_label["mechanical damping"]
        assert down.op2 is down.op1
        np.testing.assert_allclose(down.op1, ops["b"] - 1.2 * n_c, atol=1e-15)
        assert down.rate == pytest.approx(0.1 * 1.2)
        assert by_label["mechanical heating"].rate == pytest.approx(0.1 * 0.2)

    def test_atomic_rate_matrix_psd(self):
        p = ModelParams(gamma_a=0.05, gamma_a_coop=0.05)
        mat = np.array([[p.gamma_a, p.gamma_a_coop], [p.gamma_a_coop, p.gamma_a]])
        assert np.linalg.eigvalsh(mat).min() >= -1e-15

    def test_zero_temperature_sector_is_closed(self):
        # on the full space at Mbar = 0, no jump operator connects the
        # <=1-excitation sector to anything above it, so the cap is exact
        full = build_space(2, 3)
        p = ModelParams(gamma_M=0.1, Mbar=0.0, gamma_a_coop=0.02)
        spec = build_dissipators(p, full)
        inside = np.array([s.optical_excitations <= 1 for s in full.basis])
        for c in spec:
            if c.rate == 0.0:
                continue
            for op in (c.op1, c.op2):
                leak = op[np.ix_(~inside, inside)]
                assert abs(leak).max() == 0.0, c.label
        H = build_hamiltonian(p, full)
        assert abs(H[np.ix_(~inside, inside)]).max() == 0.0

    def test_generator_annihilates_trace(self):
        # uncapped space so no truncation leakage can hide in the check
        rng = np.random.default_rng(11)
        space = build_space(1, 2)
        p = ModelParams(gamma_M=0.08, Mbar=0.0, gamma_a_coop=0.02, J=0.5)
        H = build_hamiltonian(p, space)
        diss = build_dissipators(p, space)
        for _ in range(5):
            m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(
                size=(space.dim, space.dim)
            )
            rho = m + m.conj().T
            rho /= np.trace(rho).real
            out = Generator(H, diss).apply(rho)
            assert abs(np.trace(out)) < 1e-10

    def test_capped_generator_annihilates_trace_at_zero_temperature(self):
        rng = np.random.default_rng(3)
        space = build_space(1, 3, excitation_cap=1)
        p = ModelParams(gamma_M=0.08, Mbar=0.0, gamma_a_coop=0.01)
        gen = Generator(build_hamiltonian(p, space), build_dissipators(p, space))
        m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(
            size=(space.dim, space.dim)
        )
        rho = m + m.conj().T
        assert abs(np.trace(gen.apply(rho))) < 1e-10


class TestInitialState:
    def test_zero_temperature_pure_state(self):
        space = build_space(1, 2, 1)
        rho = initial_state(FIG2, space)
        i = space.index(BasisIndex(1, 0, 0, 0))
        assert rho[i, i] == pytest.approx(1.0)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.count_nonzero(rho) == 1

    def test_excited_atom_selector(self):
        space = build_space(1, 0, 1)
        rho2 = initial_state(FIG2, space, excited_atom=2)
        i = space.index(BasisIndex(0, 1, 0, 0))
        assert rho2[i, i] == pytest.approx(1.0)

    def test_superposition_states(self):
        space = build_space(1, 0, 1)
        for kind, sign in (("symmetric", +1), ("antisymmetric", -1)):
            rho = initial_state(FIG2, space, excited_atom=kind)
            i = space.index(BasisIndex(1, 0, 0, 0))
            j = space.index(BasisIndex(0, 1, 0, 0))
            assert rho[i, i] == pytest.approx(0.5)
            assert rho[j, j] == pytest.approx(0.5)
            assert rho[i, j] == pytest.approx(sign * 0.5)
            vals = np.linalg.eigvalsh(rho)
            assert vals.min() > -1e-15

    def test_thermal_populations(self):
        space = build_space(1, 8, 1)
        p = ModelParams(Mbar=0.1)
        rho = initial_state(p, space)
        assert np.trace(rho).real == pytest.approx(1.0)
        raw = np.array([(0.1 / 1.1) ** m / 1.1 for m in range(9)])
        expected = raw / raw.sum()
        for m in range(9):
            i = space.index(BasisIndex(1, 0, 0, m))
            assert rho[i, i].real == pytest.approx(expected[m])

    def test_undersized_phonon_space_rejected(self):
        space = build_space(1, 1, 1)
        with pytest.raises(ConfigurationError):
            initial_state(ModelParams(Mbar=2.0), space)

    def test_invalid_selector(self):
        with pytest.raises(ConfigurationError):
            initial_state(FIG2, build_space(1, 0, 1), excited_atom=3)
