"""Occupation-number states of the chain and the operators that build them.

A state is a finite complex-linear combination of occupation-number basis
states.  Each basis state is a tuple of quantum numbers, one per wave number
in the canonical mode order, and the basis is orthonormal.  Every creator is
a vector c in mode space, the operator sum_k c_k a^+_k: ``a[k]`` is the unit
vector of mode k and ``b[n]`` the mode profile at site n.  One kernel,
:func:`apply_creator`, applies any such vector with the normalized ladder
convention (factor sqrt(nu+1)), so norms and inner products are meaningful.

States are immutable; every operation returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainParams, ModeBasis, mode_profile

__all__ = [
    "FockState",
    "vacuum",
    "apply_creator",
    "apply_create",
    "apply_create_local",
    "linear_combine",
    "inner_product",
    "norm",
    "energy_eigenvalue",
    "dump_state",
]


@dataclass(frozen=True)
class FockState:
    """Finite superposition of occupation-number basis states.

    ``terms`` maps an occupation tuple (quantum numbers by ascending wave
    number) to its complex amplitude.  Zero amplitudes are never stored, so
    algebraic identities (commuting creators, exact cancellation) hold
    bit-exactly on the term maps.
    """

    params: ChainParams
    terms: dict = field(default_factory=dict)

    def sorted_terms(self):
        """Terms as a list of (occupation, amplitude), canonically ordered."""
        return sorted(self.terms.items())


def vacuum(params: ChainParams) -> FockState:
    """The ground state: all quantum numbers zero, amplitude one."""
    return FockState(params, {(0,) * params.n_sites: 1.0 + 0.0j})


def apply_creator(state: FockState, vector) -> FockState:
    """Apply the creator sum_k vector[k] a^+_k, a vector in mode space.

    Each term fans out into one term per non-zero slot, with the ladder factor
    sqrt(nu_k + 1), so creation on a normalized eigenstate yields a normalized
    eigenstate.  Terms that cancel exactly are pruned.
    """
    vector, n_sites = np.asarray(vector), state.params.n_sites
    if vector.shape != (n_sites,):
        raise ValueError(f"creator vector must have shape ({n_sites},), got {vector.shape}")
    weights = [(slot, vector[slot].item()) for slot in np.flatnonzero(vector).tolist()]
    out = {}
    for occ, amp in state.terms.items():
        for slot, weight in weights:
            nu = occ[slot]
            raised = occ[:slot] + (nu + 1,) + occ[slot + 1 :]
            contrib = weight * amp * math.sqrt(nu + 1)
            out[raised] = out.get(raised, 0.0 + 0.0j) + contrib
    out = {occ: amp for occ, amp in out.items() if amp != 0}
    return FockState(state.params, out)


def apply_create(state: FockState, k: int) -> FockState:
    """Raise the occupation of wave-number mode k on every term."""
    h = state.params.max_wavenumber
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"wave number must be an integer, got {k!r}")
    if not -h <= k <= h:
        raise ValueError(f"wave number {k} out of range -{h}..{h}")
    return apply_creator(state, (np.arange(state.params.n_sites) == k + h).astype(float))


def apply_create_local(state: FockState, site: int) -> FockState:
    """Create an excitation localized at a 1-based site: the creator is its mode profile."""
    n_sites = state.params.n_sites
    if isinstance(site, bool) or not isinstance(site, (int, np.integer)):
        raise ValueError(f"site must be an integer, got {site!r}")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    return apply_creator(state, mode_profile(n_sites, int(site)))


def linear_combine(pairs) -> FockState:
    """Complex-linear combination of states sharing the same chain parameters.

    ``pairs`` is a sequence of (coefficient, state).  Terms that cancel
    exactly are pruned, so ``psi + (-1)*psi`` is the empty state.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (coefficient, state) pair")
    params = pairs[0][1].params
    out = {}
    for coeff, state in pairs:
        if state.params != params:
            raise ValueError("cannot combine states with different chain parameters")
        coeff = complex(coeff)
        for occ, amp in state.terms.items():
            out[occ] = out.get(occ, 0.0 + 0.0j) + coeff * amp
    out = {occ: amp for occ, amp in out.items() if amp != 0}
    return FockState(params, out)


def inner_product(a: FockState, b: FockState) -> complex:
    """Hermitian inner product, antilinear in the first argument."""
    if a.params != b.params:
        raise ValueError("cannot take inner product of states with different chain parameters")
    total = 0.0 + 0.0j
    for occ in sorted(set(a.terms) & set(b.terms)):
        total += a.terms[occ].conjugate() * b.terms[occ]
    return total


def norm(state: FockState) -> float:
    return math.sqrt(inner_product(state, state).real)


def energy_eigenvalue(occ, basis: ModeBasis) -> float:
    """Energy of one occupation: sum over modes of Omega_k * (nu_k + 1/2)."""
    occ = tuple(int(nu) for nu in occ)
    if len(occ) != basis.params.n_sites:
        raise ValueError(f"occupation length {len(occ)} != {basis.params.n_sites} modes")
    if any(nu < 0 for nu in occ):
        raise ValueError("quantum numbers must be non-negative")
    total = 0.0
    for nu, freq in zip(occ, basis.frequencies):
        total += freq * (nu + 0.5)
    return total


def dump_state(state: FockState) -> str:
    """Line-oriented text dump: one term per line, canonically ordered.

    Format per line: amplitude real part, amplitude imaginary part, then the
    quantum numbers in ascending wave-number order, space-separated, floats
    with 17 significant digits.
    """
    lines = []
    for occ, amp in state.sorted_terms():
        nums = " ".join(str(nu) for nu in occ)
        lines.append(f"{amp.real:.17g} {amp.imag:.17g} {nums}")
    return "\n".join(lines) + "\n" if lines else ""
