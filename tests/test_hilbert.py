import numpy as np
import pytest

from omtc.errors import ConfigurationError
from omtc.hilbert import (
    BasisIndex,
    build_space,
    expectation,
    ladder_operators,
    optical_excitation_operator,
)


def test_dimensions():
    assert build_space(1, 0).dim == 8
    assert build_space(1, 8, excitation_cap=1).dim == 36
    assert build_space(2, 3).dim == 48
    # the cap keeps |gg,0>, |eg,0>, |ge,0>, |gg,1> per phonon level
    assert build_space(2, 3, excitation_cap=1).dim == 16


def test_cutoff_validation():
    with pytest.raises(ConfigurationError):
        build_space(0, 4)
    with pytest.raises(ConfigurationError):
        build_space(1, -1)
    with pytest.raises(ConfigurationError):
        build_space(1, 4, excitation_cap=2)


def test_index_bijection():
    for space in (build_space(2, 3), build_space(2, 3, excitation_cap=1)):
        for i, state in enumerate(space.basis):
            assert space.index(state) == i
        assert len({space.index(s) for s in space.basis}) == space.dim


def test_phonon_fastest_ordering():
    space = build_space(1, 2)
    first = [space.state(i) for i in range(3)]
    assert [s.phonon for s in first] == [0, 1, 2]
    assert all(s.photon == 0 and s.atom1 == 0 and s.atom2 == 0 for s in first)


def test_ladder_matrix_elements():
    space = build_space(2, 3)
    ops = ladder_operators(space)
    # a|n=1> = sqrt(1)|n=0>
    src = space.index(BasisIndex(0, 0, 1, 0))
    dst = space.index(BasisIndex(0, 0, 0, 0))
    assert ops["a"][dst, src] == pytest.approx(1.0)
    # b'b counts phonons
    bdb = ops["b"].conj().T @ ops["b"]
    v = space.ket(0, 0, 0, 3)
    assert np.vdot(v, bdb @ v) == pytest.approx(3.0)
    # sigma1 maps e -> g on atom 1 only
    src = space.index(BasisIndex(1, 0, 0, 2))
    dst = space.index(BasisIndex(0, 0, 0, 2))
    assert ops["sigma1"][dst, src] == pytest.approx(1.0)
    assert np.count_nonzero(ops["sigma1"]) == ops["sigma1"].shape[0] // 2


def test_number_operators_return_labels():
    space = build_space(2, 3)
    ops = ladder_operators(space)
    n_c = (ops["a"].conj().T @ ops["a"]).diagonal().real
    n_m = (ops["b"].conj().T @ ops["b"]).diagonal().real
    for i, s in enumerate(space.basis):
        assert n_c[i] == pytest.approx(s.photon)
        assert n_m[i] == pytest.approx(s.phonon)


def test_photon_commutator_below_cutoff():
    space = build_space(3, 0)
    a = ladder_operators(space)["a"]
    comm = a @ a.conj().T - a.conj().T @ a
    for i, s in enumerate(space.basis):
        if s.photon < space.N_c:
            assert comm[i, i] == pytest.approx(1.0)


def test_strict_lowering_in_flat_index():
    # the fixed ordering makes every lowering operator strictly lower triangular
    space = build_space(2, 2)
    for name, op in ladder_operators(space).items():
        row, col = np.nonzero(op)
        assert np.all(row < col), name


def test_daggers_are_exact():
    space = build_space(2, 2)
    for op in ladder_operators(space).values():
        diff = op.conj().T.conj().T - op
        assert np.all(diff == 0)


def test_capped_operators_are_projections():
    full = build_space(2, 2)
    capped = build_space(2, 2, excitation_cap=1)
    sel = np.array([full.index(s) for s in capped.basis])
    ops_f = ladder_operators(full)
    ops_c = ladder_operators(capped)
    for name in ("a", "b", "sigma1", "sigma2"):
        proj = ops_f[name][np.ix_(sel, sel)]
        assert np.array_equal(proj, ops_c[name]), name


def test_expectation():
    space = build_space(1, 1)
    eye = np.eye(space.dim)
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[space.index(BasisIndex(0, 0, 1, 0)), space.index(BasisIndex(0, 0, 1, 0))] = 1.0
    ops = ladder_operators(space)
    assert expectation(ops["a"].conj().T @ ops["a"], rho) == pytest.approx(1.0)
    assert expectation(optical_excitation_operator(space), rho) == pytest.approx(1.0)
    assert expectation(eye, rho) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        expectation(ops["a"], np.eye(3))


def test_expectation_real_for_hermitian():
    rng = np.random.default_rng(7)
    space = build_space(1, 2)
    d = space.dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    herm = m + m.conj().T
    assert abs(expectation(herm, rho).imag) < 1e-12
