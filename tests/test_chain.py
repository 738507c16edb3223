import math

import numpy as np
import pytest

from qchain import chain, sampling
from qchain.chain import (
    ChainParams,
    build_coupling_matrix,
    creator_vector,
    mode_indices,
    mode_spectrum,
    real_mode_basis,
)
from qchain.wavefunction import _oscillator2d_frequency


def test_mode_basis_beyond_the_cell_bound_is_refused(monkeypatch):
    # the basis and a draw share one bound: 2^28 cells allow N up to 16383
    assert sampling._MAX_POINT_CELLS == chain._MAX_POINT_CELLS
    assert 16383**2 <= chain._MAX_POINT_CELLS < 16385**2
    monkeypatch.setattr(chain, "_MAX_POINT_CELLS", 49)
    assert real_mode_basis(ChainParams(n_sites=7)).basis.shape == (7, 7)
    with pytest.raises(ValueError, match=r"^a mode basis holds at most 49 cells \(N x N\), "
                                         r"not 9 x 9$"):
        real_mode_basis(ChainParams(n_sites=9))


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(n_sites=4)
    with pytest.raises(ValueError):
        ChainParams(n_sites=0)
    with pytest.raises(ValueError):
        ChainParams(n_sites=-3)
    with pytest.raises(ValueError):
        ChainParams(n_sites=True)  # bool is not a site count
    with pytest.raises(ValueError):
        ChainParams(n_sites=3, mass=0.0)
    with pytest.raises(ValueError):
        ChainParams(n_sites=3, kappa=-1.0)
    with pytest.raises(ValueError):
        ChainParams(n_sites=3, gamma=-0.1)
    for name in ("mass", "kappa", "gamma"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be .* finite"):
                ChainParams(n_sites=3, **{name: bad})
    # finite parameters whose mode frequencies overflow or underflow to zero
    for params in ({"mass": 1e-320}, {"gamma": 1e308}, {"kappa": 1e-320, "mass": 1e300},
                   {"mass": np.float64(1e-320)}):
        with pytest.raises(ValueError, match="mode frequencies outside the range of a double"):
            ChainParams(n_sites=3, **params)
    assert ChainParams(n_sites=3, mass=1e-300, kappa=1e-300).mass == 1e-300  # tiny but in range
    # gamma = 0 decouples the sites but stays valid
    assert ChainParams(n_sites=3, gamma=0.0).max_wavenumber == 1
    assert ChainParams(n_sites=15).max_wavenumber == 7


def test_oscillator2d_range_error_names_no_gamma():
    # the 2D oscillator has no gamma, so its range error does not name one
    with pytest.raises(ValueError, match="mode frequencies outside the range of a double") as err:
        _oscillator2d_frequency(0, 0, 1e-320, 1.0)
    assert str(err.value).startswith("mass=1e-320 and kappa=1.0 put ")
    assert "gamma" not in str(err.value)


def test_mode_indices_order():
    assert list(mode_indices(ChainParams(n_sites=5))) == [-2, -1, 0, 1, 2]
    assert list(mode_indices(ChainParams(n_sites=1))) == [0]


def test_coupling_matrix_small_cases():
    m3 = build_coupling_matrix(ChainParams(n_sites=3))
    # ring of three: every site neighbors both others, wrap terms land on
    # the plain off-diagonals
    assert np.array_equal(m3, [[3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])

    m5 = build_coupling_matrix(ChainParams(n_sites=5, kappa=2.0, gamma=0.5))
    assert np.array_equal(m5[0], [3.0, -0.5, 0.0, 0.0, -0.5])
    assert np.array_equal(m5, m5.T)

    # single site: the neighbor coupling cancels against its own wrap-around
    m1 = build_coupling_matrix(ChainParams(n_sites=1, kappa=1.5, gamma=2.0))
    assert np.array_equal(m1, [[1.5]])


@pytest.mark.parametrize("kappa,gamma", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)])
def test_spectrum_matches_dense_eigensolver(kappa, gamma):
    for n in range(1, 33, 2):
        params = ChainParams(n_sites=n, kappa=kappa, gamma=gamma)
        dense = np.sort(np.linalg.eigvalsh(build_coupling_matrix(params)))
        ours = np.sort(mode_spectrum(params))
        assert np.max(np.abs(ours - dense) / dense) < 1e-9


def test_spectrum_exact_symmetry_and_center():
    spec = mode_spectrum(ChainParams(n_sites=31, kappa=1.7, gamma=0.3))
    assert np.array_equal(spec, spec[::-1])  # omega_k == omega_{-k} bitwise
    assert spec[15] == 1.7  # k = 0 entry is exactly kappa


def test_n3_frozen_values():
    # kappa = gamma = m = 1: omega = 1 + 2(1 - cos(2 pi k / 3))
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    assert np.allclose(mode_spectrum(params), [4.0, 1.0, 4.0], rtol=0, atol=1e-15)
    assert np.allclose(basis.frequencies, [2.0, 1.0, 2.0], rtol=0, atol=1e-15)


def test_modes_are_eigenvectors():
    params = ChainParams(n_sites=11, kappa=1.3, gamma=0.7)
    basis = real_mode_basis(params)
    d = build_coupling_matrix(params)
    resid = d @ basis.basis - basis.basis * mode_spectrum(params)[None, :]
    assert np.max(np.abs(resid)) < 1e-12


def test_basis_orthonormal():
    for n in (1, 3, 7, 15, 31):
        basis = real_mode_basis(ChainParams(n_sites=n))
        gram = basis.basis.T @ basis.basis
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def test_b_creator_vectors_are_the_basis_rows():
    basis = real_mode_basis(ChainParams(n_sites=7))
    for site in range(1, 8):
        assert np.array_equal(basis.basis[site - 1], creator_vector(7, "b", site))
    with pytest.raises(ValueError):
        creator_vector(7, "b", 0)
    with pytest.raises(ValueError):
        creator_vector(7, "b", 8)


@pytest.mark.parametrize("kind", ["c", "A", "B", "", "ab"])
def test_creator_vector_refuses_an_unknown_kind(kind):
    with pytest.raises(ValueError, match=rf"^kind must be 'a' or 'b', got {kind!r}$"):
        creator_vector(5, kind, 2)


def test_uniform_vector_projects_onto_k0():
    # constant displacement is purely the k=0 mode with weight c*sqrt(N)
    basis = real_mode_basis(ChainParams(n_sites=15))
    c = 0.37
    normal = basis.basis.T @ np.full(15, c)
    expected = np.zeros(15)
    expected[7] = c * np.sqrt(15)
    assert np.max(np.abs(normal - expected)) < 1e-13


def test_k1_profile_sign_changes_at_n15():
    # zeros of cos+sin at 3N/8 = 5.625 and 7N/8 = 13.125 for k=1, so the
    # site values flip sign between 5|6 and between 13|14
    values = np.array([creator_vector(15, "b", site)[7 + 1] for site in range(1, 16)])
    flips = [site for site in range(1, 15) if values[site - 1] * values[site] < 0]
    assert flips == [5, 13]


def test_basis_arrays_read_only():
    basis = real_mode_basis(ChainParams(n_sites=5))
    with pytest.raises(ValueError):
        basis.frequencies[0] = 0.0
    with pytest.raises(ValueError):
        basis.basis[0, 0] = 0.0
