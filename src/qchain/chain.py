"""Normal-mode decomposition of a periodic chain of coupled harmonic oscillators.

The chain consists of N identical masses on a ring.  Each mass is bound to its
rest position with stiffness ``kappa`` and to its two neighbours with coupling
``gamma``, so the potential energy is (1/2) q^T D q with a circulant coupling
matrix D.  Circulants diagonalize in the discrete Fourier basis, which gives
the closed-form spectrum

    omega_k = kappa + 2 * gamma * (1 - cos(2*pi*k/N)),  k = -(N-1)/2 .. (N-1)/2,

and the real combinations of the Fourier eigenvectors,

    f_k(n) = (cos(2*pi*k*n/N) + sin(2*pi*k*n/N)) / sqrt(N),  sites n = 1 .. N,

form a real orthonormal eigenbasis.  In these coordinates the chain separates
into N independent oscillators with angular frequency Omega_k =
sqrt(omega_k / mass) each.

N is restricted to odd values so that the wave numbers come in exact +-k pairs
with no special half-integer mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainParams",
    "ModeBasis",
    "mode_indices",
    "mode_profile",
    "build_coupling_matrix",
    "mode_spectrum",
    "real_mode_basis",
]


@dataclass(frozen=True)
class ChainParams:
    """Physical configuration of the chain: site count, mass, and stiffnesses."""

    n_sites: int
    mass: float = 1.0
    kappa: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        n = self.n_sites
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_sites must be an integer, got {n!r}")
        if n < 1 or n % 2 == 0:
            raise ValueError(f"n_sites must be a positive odd integer, got {n}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")

    @property
    def max_wavenumber(self) -> int:
        """Largest wave number; modes run k = -max_wavenumber .. +max_wavenumber."""
        return (self.n_sites - 1) // 2


@dataclass(frozen=True)
class ModeBasis:
    """Spectrum and real orthonormal mode basis of a chain.

    Attributes
    ----------
    params : ChainParams
        The chain this basis belongs to.
    omegas : ndarray, shape (N,)
        Eigenvalues of the coupling matrix, ordered by wave number
        k = -(N-1)/2 .. (N-1)/2.  Dimensionally a stiffness.
    basis : ndarray, shape (N, N)
        Orthonormal matrix; column for wave number k holds the real mode
        profile over sites 1..N.  Rows are sites, columns are modes, columns
        ordered by ascending k (same order as ``omegas``).
    frequencies : ndarray, shape (N,)
        Angular frequencies Omega_k = sqrt(omegas / mass) of the decoupled
        oscillators, same ordering.

    All arrays are read-only; instances are immutable and safe to share
    between concurrent evaluation tasks.
    """

    params: ChainParams
    omegas: np.ndarray
    basis: np.ndarray
    frequencies: np.ndarray


def mode_indices(params: ChainParams) -> np.ndarray:
    """Wave numbers k = -(N-1)/2 .. (N-1)/2 in the canonical (ascending) order."""
    h = params.max_wavenumber
    return np.arange(-h, h + 1)


def mode_profile(n_sites: int, site: int) -> np.ndarray:
    """Values of every real mode at one 1-based site, ordered by wave number.

    This is a row of the mode basis matrix.  It depends only on the site
    count, not on mass or stiffness.
    """
    if not 1 <= site <= n_sites:
        raise ValueError(f"site must be in 1..{n_sites}, got {site}")
    h = (n_sites - 1) // 2
    k = np.arange(-h, h + 1)
    theta = 2.0 * np.pi * k * site / n_sites
    return (np.cos(theta) + np.sin(theta)) / np.sqrt(n_sites)


def build_coupling_matrix(params: ChainParams) -> np.ndarray:
    """Circulant coupling matrix of the chain.

    kappa + 2*gamma on the diagonal, -gamma on both off-diagonals and in the
    two wrap-around corners (periodic boundary).  Each row is the previous
    row rotated right by one.
    """
    n = params.n_sites
    mat = np.zeros((n, n))
    np.fill_diagonal(mat, params.kappa + 2.0 * params.gamma)
    idx = np.arange(n)
    mat[idx, (idx + 1) % n] -= params.gamma
    mat[idx, (idx - 1) % n] -= params.gamma
    return mat


def mode_spectrum(params: ChainParams) -> np.ndarray:
    """Eigenvalues of the coupling matrix, by wave number (ascending).

    Closed form for a circulant: omega_k = kappa + 2*gamma*(1 - cos(2*pi*k/N)).
    Built from |k| so the spectrum is exactly symmetric in +-k, and the k=0
    entry is exactly kappa.
    """
    k = mode_indices(params)
    angles = 2.0 * np.pi * np.abs(k) / params.n_sites
    return params.kappa + 2.0 * params.gamma * (1.0 - np.cos(angles))


def real_mode_basis(params: ChainParams) -> ModeBasis:
    """Diagonalize the chain: spectrum, real orthonormal mode basis, frequencies."""
    n = params.n_sites
    basis = np.empty((n, n))
    for j in range(n):
        basis[j, :] = mode_profile(n, j + 1)
    omegas = mode_spectrum(params)
    frequencies = np.sqrt(omegas / params.mass)
    for arr in (omegas, basis, frequencies):
        arr.setflags(write=False)
    return ModeBasis(params=params, omegas=omegas, basis=basis, frequencies=frequencies)

