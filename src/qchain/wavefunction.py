"""Position-space wavefunction evaluation for chain states and the 2D oscillator.

A state is either form of :mod:`~qchain.fock`.  Each creator of a state is a
vector c in mode space (``a[k]`` the unit vector of mode k, ``b[n]`` the mode
profile at site n).  In the dimensionless mode coordinates y (normal
coordinates times sqrt(m*Omega_k)), prod_j (c_j.a^+)^m_j vac has the
wavefunction psi0(y) :prod_j L_j^m_j:, the Wick product of the linear forms
L_j = sqrt(2) c_j.y with pair contractions c_i.c_j (Wick, Phys. Rev. 80, 268,
1950).  It is computed divided by sqrt(prod_j m_j!), which keeps it O(1); a
FockState term |nu> is that quotient for unit vectors.  The vacuum psi0 is
summed in log space and exponentiated once per sample; values below the
smallest double still underflow to zero.  The 2D oscillator eigenstate
(nu1, nu2) is the same sum over two unit creators, applied nu1 and nu2 times,
with the identity as its coordinate transform.  Both kinds run one loop, which
checks the points (shape, finiteness), plans the Wick recursion once per call
and forms y = (points @ transform) * scale and the Wick sum per sample block.

All functions here are pure; evaluation can fan out over a shared immutable
basis and state from any number of workers.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import ModeBasis, _check_integer, _check_oscillator, build_coupling_matrix
from .fock import CreatorState, FockState, energy_eigenvalue, expand_state

__all__ = [
    "evaluate",
    "evaluate_batch",
    "evaluate_oscillator2d",
    "hamiltonian_residual",
]

# Samples are evaluated in blocks of about this many coordinates (rows times
# sites).  Each block transforms its own rows and runs the Wick plan on them,
# so its temporaries stay in cache and the cost is linear in the sample count.
_BLOCK_ELEMENTS = 1 << 15


def _weighted_terms(state):
    """Creator vectors and (weight, multiplicities) pairs, one per term of the
    state, which is the sum of weight * psi0 * W(m); see :func:`_wick_plan`.
    A FockState gives one unit vector per occupied mode and its amplitudes."""
    if isinstance(state, CreatorState):  # weight = coefficient * sqrt(prod_j m_j!)
        return state.vectors, [(c * math.prod(math.sqrt(t) for m in mult for t in range(2, m + 1)),
                                mult) for c, mult in state.monomials]
    items = state.sorted_terms()
    used = sorted({k for occ, _ in items for k, nu in enumerate(occ) if nu})
    unit_rows = np.array(used, dtype=int)[:, None] == np.arange(state.params.n_sites)
    return unit_rows.astype(float), [(amp, tuple(occ[k] for k in used)) for occ, amp in items]


def _wick_plan(gram: np.ndarray, mults) -> list:
    """Steps (m, j, n, parts), each after the steps it reads, that form the
    normalized Wick power W(m) = :prod_j L_j^m_j: / sqrt(prod_j m_j!) of every
    m in ``mults`` from W(0) = 1 and the contractions G_ij in ``gram``.  With
    n = m - e_j for the last occupied j, W(m) = (L_j W(n) - sum_i sqrt(n_i)
    G_ij W(n - e_i)) / sqrt(m_j) stays O(1) at any occupation; ``parts`` holds
    its (factor, n - e_i) pairs.  The walk uses a stack, not recursion, so a
    thousand quanta need no deep call stack.
    """
    done, plan, stack = {(0,) * len(gram)}, [], list(mults)
    while stack:
        m = stack.pop()
        if m in done:
            continue
        j = max(i for i, k in enumerate(m) if k)
        n = m[:j] + (m[j] - 1,) + m[j + 1 :]
        parts = [(-math.sqrt(n[i]) * gram[i, j], n[:i] + (n[i] - 1,) + n[i + 1 :])
                 for i in np.flatnonzero(gram[: j + 1, j]) if n[i]]
        missing = [r for r in [n] + [r for _, r in parts] if r not in done]
        if missing:
            stack += [m] + missing
            continue
        done.add(m)
        plan.append((m, j, n, parts))
    return plan


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
        point up to BLAS rounding in the coordinate transform.  Its last bits
        can change with the BLAS build and thread count: with OpenBLAS 0.3.31,
        1 and 2 threads differ at N = 201 and 301 but not at 11, 15, 31, 51, 101.
    """
    if state.params != basis.params:
        raise ValueError("state and basis belong to different chains")
    scale = np.sqrt(basis.params.mass * basis.frequencies)
    return _evaluate(*_weighted_terms(state), points, scale, basis.basis)


def _evaluate(vectors, terms, points, scale, transform) -> np.ndarray:
    """psi0(y) * sum of weight * W(m) over ``terms`` at each row of ``points``, with
    y = (points @ transform) * scale.  The point check, arithmetic type,
    contractions, normalization and Wick plan are done once per call; y, the
    envelope and the Wick sum once per block."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != len(transform):
        raise ValueError(f"expected points of shape (M, {len(transform)}), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must have finite coordinates")
    weights = [complex(w) for w, _ in terms]
    if not np.iscomplexobj(vectors) and not any(w.imag for w in weights):
        weights = [w.real for w in weights]  # real creators and weights: real arithmetic
    gram = vectors @ vectors.T
    plan = _wick_plan(gram, [mult for _, mult in terms])
    log_norm = 0.25 * float(np.sum(np.log(scale * scale / np.pi)))
    rows = max(1, _BLOCK_ELEMENTS // len(scale))
    out = np.empty(len(points), dtype=complex)
    for start in range(0, len(points), rows):
        y = points[start : start + rows] @ transform
        y *= scale
        envelope = np.exp(log_norm - 0.5 * np.sum(y * y, axis=1))
        lin = math.sqrt(2.0) * (vectors @ y.T)  # L_j, one row per creator
        memo = {(0,) * len(vectors): np.ones(len(y))}  # W by multiplicities
        for m, j, n, parts in plan:
            memo[m] = sum([lin[j] * memo[n]] + [f * memo[r] for f, r in parts]) / math.sqrt(m[j])
        out[start : start + len(y)] = envelope * sum(
            w * memo[mult] for w, (_, mult) in zip(weights, terms))
    return out


def evaluate(state: CreatorState | FockState, basis: ModeBasis, q) -> complex:
    """Wavefunction value of ``state`` at a single configuration q."""
    q = np.asarray(q, dtype=float)
    n = basis.params.n_sites
    if q.shape != (n,):
        raise ValueError(f"expected a length-{n} configuration, got shape {q.shape}")
    return complex(evaluate_batch(state, basis, q[None, :])[0])


def _oscillator2d_frequency(nu1: int, nu2: int, mass: float, kappa: float) -> float:
    """Check the 2D oscillator's parameters; returns its angular frequency."""
    _check_integer("nu1", nu1)
    _check_integer("nu2", nu2)
    if nu1 < 0 or nu2 < 0:
        raise ValueError(f"quantum numbers must be non-negative, got ({nu1}, {nu2})")
    _check_oscillator(mass, kappa)
    return math.sqrt(kappa / mass)


def evaluate_oscillator2d(nu1: int, nu2: int, mass: float, kappa: float, points) -> np.ndarray:
    """Separable two-dimensional oscillator eigenstate on (q1, q2) samples.

    Product of two normalized 1D eigenfunctions with the common angular
    frequency sqrt(kappa/mass), orders nu1 along the first coordinate and
    nu2 along the second: the creators are the two unit vectors, applied
    nu1 and nu2 times.
    """
    omega_ang = _oscillator2d_frequency(nu1, nu2, mass, kappa)
    scale = np.full(2, math.sqrt(mass * omega_ang))
    return _evaluate(np.eye(2), [(1.0, (nu1, nu2))], points, scale, np.eye(2))


def hamiltonian_residual(state: CreatorState | FockState, basis: ModeBasis, q,
                         floor_ref: float | None = None) -> float:
    """Deviation of the finite-difference energy of an eigenstate at q.

    Applies the chain Hamiltonian (central second differences for the
    kinetic part, exact quadratic potential) to the wavefunction at q,
    divides by the wavefunction value, and returns the absolute deviation
    from the occupation's energy.  Numerical oracle that the frequency
    convention and eigenfunctions are mutually consistent.

    The step is 1e-3 of the narrowest mode's oscillator length, which
    balances truncation against cancellation at double precision.  Points
    where |psi(q)| < 1e-6 * floor_ref are rejected (near-nodal division);
    ``floor_ref`` defaults to |psi(0)|, which is zero for odd-parity states,
    so callers probing those should pass a scale such as the batch maximum.
    A ``CreatorState`` is expanded into its occupation-number terms first.
    """
    if isinstance(state, CreatorState):
        state = expand_state(state)
    if len(state.terms) != 1:
        raise ValueError("residual check requires a single-occupation eigenstate")
    q = np.asarray(q, dtype=float)
    n = basis.params.n_sites
    if q.shape != (n,):
        raise ValueError(f"expected a length-{n} configuration, got shape {q.shape}")
    h = 1e-3 * (1.0 / math.sqrt(2.0 * basis.params.mass * float(basis.frequencies.max())))
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
