from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from omtc.dressed import (
    branch_head_energy,
    displaced_fock_overlap,
    dressed_eigenvalue,
    effective_detuning,
    mixing_angle,
    predicted_lines,
    rabi_separation,
    transition_weight,
)
from omtc.errors import ConfigurationError
from omtc.hilbert import build_space
from omtc.model import ModelParams, build_hamiltonian

FIG2 = ModelParams()


class TestMixingAngle:
    def test_reference_point(self):
        # tan(2 Theta) = 2 sqrt(2) 2.4 / 1.44 = 4.7140
        theta = mixing_angle(FIG2)
        assert np.tan(2 * theta) == pytest.approx(2 * np.sqrt(2) * 2.4 / 1.44)
        assert theta == pytest.approx(0.6809, abs=2e-4)

    def test_strong_coupling_limit(self):
        theta = mixing_angle(ModelParams(g_a=1e6, g_M=1.2))
        assert theta == pytest.approx(np.pi / 4, abs=1e-5)

    def test_weak_mixing_limit(self):
        theta = mixing_angle(ModelParams(g_a=0.01, delta_ac=-50.0))
        assert 0 <= theta < 0.01

    def test_degenerate_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            mixing_angle(ModelParams(g_a=0.0, g_M=0.0, delta_ac=0.0, J=0.0))

    def test_asymmetry_trend_with_ddi(self):
        # raising J shrinks sin(Theta) and grows cos(Theta)
        thetas = [mixing_angle(ModelParams(J=J)) for J in (0.0, 0.3, 0.6, 1.0)]
        s = [np.sin(t) ** 2 for t in thetas]
        c = [np.cos(t) ** 2 for t in thetas]
        assert all(a > b for a, b in zip(s, s[1:]))
        assert all(a < b for a, b in zip(c, c[1:]))


class TestEigenvalues:
    def test_tavis_cummings_limit(self):
        p = ModelParams(g_M=0.0, J=0.0, delta_ac=0.0)
        root2 = np.sqrt(2) * p.g_a
        assert dressed_eigenvalue(p, 0, +1) == pytest.approx(root2)
        assert dressed_eigenvalue(p, 0, -1) == pytest.approx(-root2)

    def test_reference_separation(self):
        sep = dressed_eigenvalue(FIG2, 0, +1) - dressed_eigenvalue(FIG2, 0, -1)
        assert sep == pytest.approx(np.sqrt(1.44**2 + 8 * 2.4**2))
        assert sep == pytest.approx(6.9393, abs=1e-4)
        assert rabi_separation(FIG2) == pytest.approx(sep)

    def test_ladder_spacing_exact(self):
        for branch in (+1, -1):
            for m in range(4):
                step = dressed_eigenvalue(FIG2, m + 1, branch) - dressed_eigenvalue(
                    FIG2, m, branch
                )
                assert step == pytest.approx(1.0, abs=1e-12)

    def test_separation_monotone_in_ddi(self):
        seps = [rabi_separation(ModelParams(J=J)) for J in np.linspace(0, 1.5, 7)]
        diffs = np.diff(seps)
        assert np.all(diffs > 0)

    def test_detuning_and_ddi_enter_through_their_difference(self):
        a = ModelParams(J=1.0, delta_ac=1.0)
        b = ModelParams(J=0.0, delta_ac=0.0)
        assert effective_detuning(a) == effective_detuning(b)
        assert rabi_separation(a) == rabi_separation(b)

    @settings(max_examples=50)
    @given(
        J=st.floats(-2.0, 2.0), delta_ac=st.floats(-2.0, 2.0), shift=st.floats(-2.0, 2.0),
        g_a=st.floats(0.1, 3.0), g_M=st.floats(0.0, 1.5),
    )
    def test_oracle_depends_only_on_the_difference(self, J, delta_ac, shift, g_a, g_M):
        # shifting J and delta_ac together leaves D = J - delta_ac, so every
        # quantity of the oracle, to the roundoff of forming D
        a = ModelParams(g_a=g_a, g_M=g_M, J=J, delta_ac=delta_ac)
        b = replace(a, J=J + shift, delta_ac=delta_ac + shift)
        for f in (mixing_angle, rabi_separation):
            assert f(b) == pytest.approx(f(a), rel=1e-12, abs=1e-12)
        for m in range(3):
            for branch in (-1, +1):
                assert dressed_eigenvalue(b, m, branch) == pytest.approx(
                    dressed_eigenvalue(a, m, branch), rel=1e-12, abs=1e-12)
        lines_a, lines_b = predicted_lines(a, 4).lines, predicted_lines(b, 4).lines
        assert [(ln.branch, ln.m) for ln in lines_a] == [(ln.branch, ln.m) for ln in lines_b]
        for la, lb in zip(lines_a, lines_b):
            assert lb.position == pytest.approx(la.position, rel=1e-12, abs=1e-12)
            assert lb.weight == pytest.approx(la.weight, rel=1e-12, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            dressed_eigenvalue(FIG2, -1, +1)
        with pytest.raises(ConfigurationError):
            dressed_eigenvalue(FIG2, 0, 2)


class TestDisplacedOverlap:
    def test_identity_displacement(self):
        assert displaced_fock_overlap(2, 2, 0.0) == 1.0
        assert displaced_fock_overlap(2, 3, 0.0) == 0.0

    def test_vacuum_survival(self):
        assert displaced_fock_overlap(0, 0, 1.2) ** 2 == pytest.approx(np.exp(-1.44))

    def test_unitarity_of_column(self):
        total = sum(displaced_fock_overlap(n, 3, 1.2) ** 2 for n in range(41))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_against_truncated_exponential(self):
        # brute force: exponentiate beta (b' - b) on a truncated space
        beta = 1.2
        N = 60
        b = np.diag(np.sqrt(np.arange(1, N)), k=1)
        D = expm(beta * (b.T - b))
        for n, m in [(0, 0), (0, 3), (2, 1), (5, 5), (4, 7)]:
            assert displaced_fock_overlap(n, m, beta) == pytest.approx(
                D[n, m], abs=1e-10
            )

    def test_matches_scipy_special_closed_form(self):
        # the closed form as evaluated with scipy.special before the
        # recurrence replaced it; the package itself does not import scipy.special
        from scipy.special import eval_genlaguerre, gammaln

        def reference(n, m, beta):
            lo, hi = min(n, m), max(n, m)
            amp = beta ** (n - m) if n >= m else (-beta) ** (m - n)
            ratio = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
            return ratio * amp * np.exp(-0.5 * beta**2) * eval_genlaguerre(lo, hi - lo, beta**2)

        for beta in np.linspace(-3.0, 3.0, 25):
            for n in range(41):
                for m in range(41):
                    ref = reference(n, m, beta)
                    assert abs(displaced_fock_overlap(n, m, beta) - ref) <= 1e-13

    def test_matrix_unitary_to_truncation(self):
        beta = 0.9
        N = 30
        U = np.array(
            [[displaced_fock_overlap(n, m, beta) for m in range(N)] for n in range(N)]
        )
        gram = U.T @ U
        # rows touching the cutoff lose weight; the low block is clean
        low = gram[:10, :10]
        np.testing.assert_allclose(low, np.eye(10), atol=1e-10)


class TestTransitionWeight:
    def test_no_mechanics_selects_head(self):
        p = ModelParams(g_M=0.0)
        assert transition_weight(p, +1, 0) > 0
        assert transition_weight(p, +1, 1) == 0.0
        assert transition_weight(p, -1, 2) == 0.0

    def test_reference_value(self):
        w = transition_weight(FIG2, +1, 0)
        assert w == pytest.approx(0.2 * np.sin(0.6809) ** 2 * np.exp(-1.44), abs=2e-5)
        assert w == pytest.approx(0.018765, abs=2e-5)

    def test_completeness(self):
        total = sum(
            transition_weight(FIG2, b, m) for b in (+1, -1) for m in range(60)
        )
        assert total == pytest.approx(FIG2.kappa, abs=1e-10)


class TestBrightDarkDecoupling:
    def test_random_parameters(self):
        # rotating the two atoms into bright/dark combinations leaves the
        # dark one cavity-decoupled with coupling sqrt(2) g_a on the bright
        rng = np.random.default_rng(42)
        space = build_space(1, 0, excitation_cap=1)
        for _ in range(8):
            p = ModelParams(
                g_a=rng.uniform(0.2, 3.0),
                g_M=0.0,
                J=rng.uniform(-1.0, 1.0),
                delta_ac=rng.uniform(-1.0, 1.0),
            )
            H = build_hamiltonian(p, space)
            eg = space.ket(1, 0, 0, 0)
            ge = space.ket(0, 1, 0, 0)
            ph = space.ket(0, 0, 1, 0)
            bright = (eg + ge) / np.sqrt(2)
            dark = (eg - ge) / np.sqrt(2)
            assert abs(np.vdot(ph, H @ dark)) < 1e-12
            assert np.vdot(ph, H @ bright) == pytest.approx(np.sqrt(2) * p.g_a)
            assert np.vdot(dark, H @ dark) == pytest.approx(-p.delta_ac - p.J)


class TestPredictedLines:
    def test_symmetric_jc_limit(self):
        p = ModelParams(g_M=0.0, J=0.0, delta_ac=0.0)
        sticks = predicted_lines(p, 5)
        assert len(sticks.lines) == 2
        positions = sorted(ln.position for ln in sticks.lines)
        root2 = np.sqrt(2) * p.g_a
        assert positions[0] == pytest.approx(-root2)
        assert positions[1] == pytest.approx(root2)
        for ln in sticks.lines:
            assert ln.weight == pytest.approx(p.kappa / 2)

    def test_same_branch_spacing(self):
        sticks = predicted_lines(FIG2, 4)
        for branch in (+1, -1):
            pos = sorted(ln.position for ln in sticks.lines if ln.branch == branch)
            steps = np.diff(pos)
            np.testing.assert_allclose(steps, 1.0, atol=1e-12)

    def test_weights_bounded_by_kappa(self):
        for J in (0.0, 0.5, 1.0):
            sticks = predicted_lines(ModelParams(J=J), 8)
            assert sticks.total_weight() <= ModelParams().kappa + 1e-12

    def test_head_positions_track_branch_head_energy(self):
        sticks = predicted_lines(FIG2, 3)
        for branch in (+1, -1):
            head = [ln for ln in sticks.lines if ln.branch == branch and ln.m == 0]
            assert head[0].position == pytest.approx(branch_head_energy(FIG2, branch))

    def test_branch_heads_against_exact_diagonalization(self):
        # the closed-form heads must track the exact single-excitation
        # eigenvalues to a few 1e-2 omega_M in the strong-strong regime
        for J in (0.0, 0.5, 1.0):
            p = ModelParams(J=J)
            space = build_space(1, 24, excitation_cap=1)
            H = build_hamiltonian(p, space)
            exc = [i for i, s in enumerate(space.basis) if s.optical_excitations == 1]
            w, V = np.linalg.eigh(H[np.ix_(exc, exc)])
            init = space.ket(1, 0, 0, 0)[exc]
            pop = np.abs(V.T @ init) ** 2
            # branch heads: the most-populated eigenstates that carry
            # photon weight (the dark state holds half the population but
            # never couples to the cavity)
            photonic = [i for i, s in enumerate(space.basis) if s.photon == 1]
            sel = [exc.index(i) for i in photonic]
            phot_weight = (np.abs(V[sel, :]) ** 2).sum(axis=0)
            order = np.argsort(pop * (phot_weight > 0.1))[::-1]
            exact = sorted(w[i] for i in order[:2])
            predicted = sorted(
                branch_head_energy(p, b) for b in (+1, -1)
            )
            np.testing.assert_allclose(predicted, exact, atol=0.05)

    def test_invalid_m_max(self):
        with pytest.raises(ConfigurationError):
            predicted_lines(FIG2, -1)
