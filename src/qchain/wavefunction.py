"""Position-space wavefunction evaluation for chain states.

Each creator of a state is a vector c in mode space (``a[k]`` the unit vector
of mode k, ``b[n]`` the mode profile at site n).  In the dimensionless mode
coordinates y (normal coordinates times sqrt(m*Omega_k)), prod_j (c_j.a^+)^m_j
vac has the wavefunction psi0(y) :prod_j L_j^m_j:, the Wick product of the
linear forms L_j = sqrt(2) c_j.y with pair contractions c_i.c_j (Wick, Phys.
Rev. 80, 268, 1950).  It is computed divided by sqrt(prod_j m_j!), which keeps
it O(1); a FockState term |nu> is that quotient for unit vectors.  The vacuum
psi0 is summed in log space and exponentiated once per sample; values below
the smallest double still underflow to zero.  The 2D oscillator eigenstate
(nu1, nu2) is the same sum over two modes: two unit creators, applied nu1
and nu2 times.

All functions here are pure; evaluation can fan out over a shared immutable
basis and state from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, ModeBasis, build_coupling_matrix
from .fock import FockState, energy_eigenvalue

__all__ = [
    "CreatorState",
    "evaluate",
    "evaluate_batch",
    "evaluate_oscillator2d",
    "hamiltonian_residual",
]

# Samples are evaluated in blocks of about this many coordinates (rows times
# sites), so each block's temporaries stay in cache and the cost is linear in
# the sample count.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class CreatorState:
    """A chain state as a sum of products of creators applied to the vacuum.

    ``vectors`` holds one distinct creator per row, in mode space (columns
    by ascending wave number).  ``monomials`` is a tuple of (coefficient,
    multiplicities), one multiplicity per row; the state is the sum of
    coefficient * prod_j (c_j.a^+)^m_j vac.
    """

    params: ChainParams
    vectors: np.ndarray  # (p, N), real or complex
    monomials: tuple


def _weighted_terms(state):
    """Creator vectors and (weight, multiplicities) pairs, one per term of the
    state, which is the sum of weight * psi0 * W(m); see :func:`_wick_power`.
    A FockState gives one unit vector per occupied mode and its amplitudes."""
    if isinstance(state, CreatorState):  # weight = coefficient * sqrt(prod_j m_j!)
        return state.vectors, [(c * math.prod(math.sqrt(t) for m in mult for t in range(2, m + 1)),
                                mult) for c, mult in state.monomials]
    items = state.sorted_terms()
    used = sorted({k for occ, _ in items for k, nu in enumerate(occ) if nu})
    unit_rows = np.array(used, dtype=int)[:, None] == np.arange(state.params.n_sites)
    return unit_rows.astype(float), [(amp, tuple(occ[k] for k in used)) for occ, amp in items]


def _wick_power(lin: np.ndarray, gram: np.ndarray, mult: tuple, memo: dict) -> np.ndarray:
    """Normalized Wick power W(m) = :prod_j L_j^m_j: / sqrt(prod_j m_j!) over the samples.

    ``lin`` holds L_j (one row per creator), ``gram`` the contractions G_ij,
    ``memo`` values by multiplicities, starting with the empty product.  With
    n = m - e_j for the last occupied j, W(m) = (L_j W(n) - sum_i sqrt(n_i)
    G_ij W(n - e_i)) / sqrt(m_j) stays O(1) at any occupation.  It runs on a
    stack, not by recursion, so a thousand quanta need no deep call stack.
    """
    stack = [mult]
    while stack:
        m = stack.pop()
        if m in memo:
            continue
        j = max(i for i, k in enumerate(m) if k)
        n = m[:j] + (m[j] - 1,) + m[j + 1 :]
        parts = [(lin[j], n)] + [(-math.sqrt(n[i]) * gram[i, j], n[:i] + (n[i] - 1,) + n[i + 1 :])
                                 for i in np.flatnonzero(gram[: j + 1, j]) if n[i]]
        missing = [r for _, r in parts if r not in memo]
        if missing:
            stack += [m] + missing
            continue
        memo[m] = sum(f * memo[r] for f, r in parts) / math.sqrt(m[j])
    return memo[mult]


def evaluate_batch(state, basis: ModeBasis, points) -> np.ndarray:
    """Evaluate the wavefunction of ``state`` at many configurations at once.

    Parameters
    ----------
    state : CreatorState or FockState
    points : array_like, shape (M, N)
        One configuration per row, site coordinates in site order.

    Returns
    -------
    ndarray, shape (M,), complex
        Wavefunction values; the M=1 row matches :func:`evaluate` on that
        point up to BLAS rounding in the coordinate transform.
    """
    if state.params != basis.params:
        raise ValueError("state and basis belong to different chains")
    vectors, terms = _weighted_terms(state)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = basis.params.n_sites
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"expected points of shape (M, {n}), got {points.shape}")

    scale = np.sqrt(basis.params.mass * basis.frequencies)
    rows = max(1, _BLOCK_ELEMENTS // n)
    out = np.empty(points.shape[0], dtype=complex)
    for start in range(0, points.shape[0], rows):
        normal = points[start : start + rows] @ basis.basis  # normal coordinates, row per sample
        out[start : start + rows] = _wick_sum(vectors, terms, normal * scale, scale)
    return out


def _wick_sum(vectors, terms, y, scale) -> np.ndarray:
    """psi0(y) * sum of weight * W(m) over ``terms`` at the dimensionless mode
    coordinates ``y`` (row per sample); ``scale`` is sqrt(m*Omega) per mode."""
    # Vacuum envelope: Gaussians and normalization prefactors.
    log_env = 0.25 * float(np.sum(np.log(scale * scale / np.pi))) - 0.5 * np.sum(
        y * y, axis=1
    )
    envelope = np.exp(log_env)

    weights = [complex(w) for w, _ in terms]
    if not np.iscomplexobj(vectors) and not any(w.imag for w in weights):
        weights = [w.real for w in weights]  # real creators and weights: real arithmetic
    lin = math.sqrt(2.0) * (vectors @ y.T)  # L_j, one row per creator
    gram = vectors @ vectors.T
    vac = {(0,) * len(vectors): np.ones(y.shape[0])}
    acc = sum(w * _wick_power(lin, gram, mult, dict(vac)) for w, (_, mult) in zip(weights, terms))
    return (acc * envelope).astype(complex)


def evaluate(state: CreatorState | FockState, basis: ModeBasis, q) -> complex:
    """Wavefunction value of ``state`` at a single configuration q."""
    q = np.asarray(q, dtype=float)
    n = basis.params.n_sites
    if q.shape != (n,):
        raise ValueError(f"expected a length-{n} configuration, got shape {q.shape}")
    return complex(evaluate_batch(state, basis, q[None, :])[0])


def evaluate_oscillator2d(nu1: int, nu2: int, mass: float, kappa: float, points) -> np.ndarray:
    """Separable two-dimensional oscillator eigenstate on (q1, q2) samples.

    Product of two normalized 1D eigenfunctions with the common angular
    frequency sqrt(kappa/mass), orders nu1 along the first coordinate and
    nu2 along the second: the creators are the two unit vectors, applied
    nu1 and nu2 times.
    """
    if nu1 < 0 or nu2 < 0:
        raise ValueError("quantum numbers must be non-negative")
    if not (mass > 0 and kappa > 0):
        raise ValueError(f"mass and kappa must be positive, got {mass} and {kappa}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected points of shape (M, 2), got {points.shape}")
    omega_ang = math.sqrt(kappa / mass)
    scale = np.full(2, math.sqrt(mass * omega_ang))
    return _wick_sum(np.eye(2), [(1.0, (nu1, nu2))], points * scale, scale)


def hamiltonian_residual(state: FockState, basis: ModeBasis, q, h: float | None = None,
                         floor_ref: float | None = None) -> float:
    """Deviation of the finite-difference energy of an eigenstate at q.

    Applies the chain Hamiltonian (central second differences for the
    kinetic part, exact quadratic potential) to the wavefunction at q,
    divides by the wavefunction value, and returns the absolute deviation
    from the occupation's energy.  Numerical oracle that the frequency
    convention and eigenfunctions are mutually consistent.

    ``h`` defaults to 1e-3 of the narrowest mode's oscillator length, which
    balances truncation against cancellation at double precision.  Points
    where |psi(q)| < 1e-6 * floor_ref are rejected (near-nodal division);
    ``floor_ref`` defaults to |psi(0)|, which is zero for odd-parity states,
    so callers probing those should pass a scale such as the batch maximum.
    """
    if len(state.terms) != 1:
        raise ValueError("residual check requires a single-occupation eigenstate")
    q = np.asarray(q, dtype=float)
    n = basis.params.n_sites
    if q.shape != (n,):
        raise ValueError(f"expected a length-{n} configuration, got shape {q.shape}")
    if h is None:
        sigma_min = 1.0 / math.sqrt(2.0 * basis.params.mass * float(basis.frequencies.max()))
        h = 1e-3 * sigma_min
    if floor_ref is None:
        floor_ref = abs(evaluate(state, basis, np.zeros(n)))

    eye = h * np.eye(n)
    stencil = np.concatenate([q[None, :], q[None, :] + eye, q[None, :] - eye])
    vals = evaluate_batch(state, basis, stencil)
    center = vals[0]
    if abs(center) < 1e-6 * floor_ref:
        raise ValueError("wavefunction magnitude below the rejection floor at this point")

    laplacian = complex(np.sum(vals[1 : n + 1] + vals[n + 1 :] - 2.0 * center)) / (h * h)
    coupling = build_coupling_matrix(basis.params)
    potential = 0.5 * float(q @ coupling @ q)
    applied = -laplacian / (2.0 * basis.params.mass) + potential * center
    (occ, _amp), = state.terms.items()
    return abs(applied / center - energy_eigenvalue(occ, basis))
