"""Chain states in their two forms, and the operators that build them.

Every creator is a vector c in mode space, the operator sum_k c_k a^+_k
(:func:`~qchain.chain.creator_vector`).  A :class:`CreatorState` is a sum of
monomials over creator vectors, the form expressions build and evaluation
uses.  A :class:`FockState` is a finite complex-linear combination of
orthonormal occupation-number basis states, each a tuple of quantum numbers
by ascending wave number.  :func:`apply_creator` applies any creator with the
normalized ladder convention (factor sqrt(nu+1)), so norms and inner products
are meaningful; :func:`expand_state` turns a CreatorState into a FockState.
States are immutable; every operation returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainParams, ModeBasis, _check_integer, creator_vector

# Occupation terms x non-zero creator slots one creation may fan out to:
# b[1] ... b[5] vac at N = 31 needs 1.44 million, b[1] ... b[6] vac 10 million.
# expand_state checks every creation of a state against it before the first.
_MAX_EXPANSION = 2_000_000

__all__ = [
    "CreatorState",
    "FockState",
    "vacuum",
    "apply_creator",
    "apply_create",
    "apply_create_local",
    "linear_combine",
    "expand_state",
    "inner_product",
    "norm",
    "energy_eigenvalue",
    "dump_state",
]


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

    def __eq__(self, other):
        if not isinstance(other, CreatorState):
            return NotImplemented
        return (self.params == other.params and self.monomials == other.monomials
                and np.array_equal(self.vectors, other.vectors))


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


def _check_expansion(terms: int, slots: int):
    """Refuse a creation that fans ``terms`` occupation terms out over ``slots`` modes
    when that exceeds ``_MAX_EXPANSION`` term-mode pairs."""
    if terms * slots > _MAX_EXPANSION:
        raise ValueError(f"expanding {terms} occupation terms over {slots} "
                         f"modes exceeds the bound of {_MAX_EXPANSION} term-mode pairs")


def apply_creator(state: FockState, vector) -> FockState:
    """Apply the creator sum_k vector[k] a^+_k, a vector in mode space.

    Each term fans out into one term per non-zero slot, with the ladder factor
    sqrt(nu_k + 1), so creation on a normalized eigenstate yields a normalized
    eigenstate.  Terms that cancel exactly are pruned.  Raises ``ValueError``
    before any work if the terms times the slots exceed a fixed bound.
    """
    vector, n_sites = np.asarray(vector), state.params.n_sites
    if vector.shape != (n_sites,):
        raise ValueError(f"creator vector must have shape ({n_sites},), got {vector.shape}")
    weights = [(slot, vector[slot].item()) for slot in np.flatnonzero(vector).tolist()]
    _check_expansion(len(state.terms), len(weights))
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
    return apply_creator(state, creator_vector(state.params.n_sites, "a", k))


def apply_create_local(state: FockState, site: int) -> FockState:
    """Create an excitation localized at a 1-based site: the creator is its mode profile."""
    return apply_creator(state, creator_vector(state.params.n_sites, "b", site))


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


def expand_state(state: CreatorState) -> FockState:
    """Occupation-number terms of a creator state: each monomial applies its
    creator vectors to ``vac``, last row first.

    Raises ``ValueError`` before any creation if a creation step could exceed
    the bound of :func:`apply_creator`.  After q quanta from creators whose
    non-zero slots span U, a monomial has at most the terms before times the
    slots of the last creator, and at most C(|U| + q - 1, q), the occupations
    of q quanta in U.
    """
    steps = [[row for row, m in reversed(list(enumerate(mult))) for _ in range(m)]
             for _, mult in state.monomials]
    slots = [set(np.flatnonzero(vector).tolist()) for vector in state.vectors]
    for rows in steps:
        terms, support = 1, set()
        for q, row in enumerate(rows, start=1):
            _check_expansion(terms, len(slots[row]))
            support |= slots[row]
            terms = min(terms * len(slots[row]), math.comb(len(support) + q - 1, q))
    pairs = []
    for (coeff, _), rows in zip(state.monomials, steps):
        fock = vacuum(state.params)
        for row in rows:
            fock = apply_creator(fock, state.vectors[row])
        pairs.append((coeff, fock))
    return linear_combine(pairs) if pairs else FockState(state.params, {})


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
    occ = tuple(occ)
    for nu in occ:
        _check_integer("quantum number", nu)
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
