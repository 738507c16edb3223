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

import math
from dataclasses import dataclass

import numpy as np

# Cells of an array of doubles that a draw (samples x n_dims) or a mode basis
# (N x N) may hold: 2 GiB.  N = 1001 at 20000 samples is 2e7; N <= 16383.
_MAX_POINT_CELLS = 2**28

__all__ = [
    "ChainParams",
    "ModeBasis",
    "mode_indices",
    "creator_vector",
    "build_coupling_matrix",
    "mode_spectrum",
    "real_mode_basis",
]


def _check_integer(name: str, value):
    """Require an int or numpy integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_oscillator(mass: float, kappa: float, gamma: float | None = None):
    """Require a positive finite mass and kappa, a finite non-negative gamma if
    one is given, and mode frequencies that neither overflow nor underflow to zero.

    NaN fails every comparison, so it is rejected too.
    """
    if not 0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if gamma is not None and not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be non-negative and finite, got {gamma}")
    mass, kappa = float(mass), float(kappa)  # no numpy overflow warnings
    spread = 0.0 if gamma is None else 4.0 * float(gamma)
    # every squared frequency omega_k / mass lies in [kappa, kappa + 4 * gamma] / mass
    if not (kappa / mass > 0 and (kappa + spread) / mass < math.inf):
        named = f"mass={mass} and kappa={kappa}" if gamma is None else (
            f"mass={mass}, kappa={kappa} and gamma={float(gamma)}")
        raise ValueError(f"{named} put the mode frequencies outside the range of a double")


@dataclass(frozen=True)
class ChainParams:
    """Physical configuration of the chain: site count, mass, and stiffnesses."""

    n_sites: int
    mass: float = 1.0
    kappa: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        n = self.n_sites
        _check_integer("n_sites", n)
        if n < 1 or n % 2 == 0:
            raise ValueError(f"n_sites must be a positive odd integer, got {n}")
        _check_oscillator(self.mass, self.kappa, self.gamma)

    @property
    def max_wavenumber(self) -> int:
        """Largest wave number; modes run k = -max_wavenumber .. +max_wavenumber."""
        return (self.n_sites - 1) // 2


@dataclass(frozen=True)
class ModeBasis:
    """Real orthonormal mode basis of a chain and its mode frequencies.

    Attributes
    ----------
    params : ChainParams
        The chain this basis belongs to.
    basis : ndarray, shape (N, N)
        Orthonormal matrix; column for wave number k holds the real mode
        profile over sites 1..N.  Rows are sites, columns are modes, columns
        ordered by ascending k = -(N-1)/2 .. (N-1)/2.
    frequencies : ndarray, shape (N,)
        Angular frequencies Omega_k = sqrt(omega_k / mass) of the decoupled
        oscillators, same ordering, with omega_k from :func:`mode_spectrum`.

    All arrays are read-only; instances are immutable and safe to share
    between concurrent evaluation tasks.
    """

    params: ChainParams
    basis: np.ndarray
    frequencies: np.ndarray


def mode_indices(params: ChainParams) -> np.ndarray:
    """Wave numbers k = -(N-1)/2 .. (N-1)/2 in the canonical (ascending) order."""
    h = params.max_wavenumber
    return np.arange(-h, h + 1)


def creator_vector(n_sites: int, kind: str, index: int) -> np.ndarray:
    """Mode-space vector of ``a[index]`` (kind "a"), the unit vector of that wave
    number, or of ``b[index]`` (kind "b"), the mode profile at that 1-based site.
    """
    if kind not in ("a", "b"):
        raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")
    name = "wave number" if kind == "a" else "site"
    _check_integer(name, index)
    h = (n_sites - 1) // 2
    if kind == "a":
        if not -h <= index <= h:
            raise ValueError(f"wave number {index} out of range -{h}..{h} for {n_sites} sites")
        return (np.arange(n_sites) == index + h).astype(float)
    if not 1 <= index <= n_sites:
        raise ValueError(f"site {index} out of range 1..{n_sites}")
    theta = 2.0 * np.pi * np.arange(-h, h + 1) * index / n_sites
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
    """Diagonalize the chain: real orthonormal mode basis and mode frequencies.

    Raises ``ValueError`` before any allocation if the N x N basis exceeds
    ``_MAX_POINT_CELLS`` cells.
    """
    n = params.n_sites
    if n * n > _MAX_POINT_CELLS:
        raise ValueError(f"a mode basis holds at most {_MAX_POINT_CELLS} cells (N x N), "
                         f"not {n} x {n}")
    basis = np.array([creator_vector(n, "b", site) for site in range(1, n + 1)])
    frequencies = np.sqrt(mode_spectrum(params) / params.mass)
    for arr in (basis, frequencies):
        arr.setflags(write=False)
    return ModeBasis(params=params, basis=basis, frequencies=frequencies)

