"""Reference wavefunction values, written independently of the qchain package.

Every state the workloads use is a product of creators applied to ``vac``.
Each creator is a vector c in mode space: ``a[k]`` is the unit vector of mode
k, ``b[n]`` the mode profile at site n, and a parenthesised sum such as
``(a[1] + i a[-1])`` the matching linear combination.  In the dimensionless
mode coordinates y, such a state is psi0(y) times the Wick-ordered product of
the linear forms L_j = sqrt(2) c_j.y, with pair contractions c_i.c_j.  For a
single occupation (all creators on distinct or repeated plane-wave modes)
this is the product of normalised Hermite functions, the textbook closed form.

Values are returned relative to the batch's largest magnitude and computed
in log space, so deep tails that underflow in linear arithmetic still come
out as small finite ratios.
"""

from __future__ import annotations

import math
import re

import numpy as np

_FACTOR = re.compile(r"\s*(?:\(([^()]*)\)|([ab])\[(-?\d+)\])")
_SUMMAND = re.compile(r"\s*([+-]?)\s*(i\s+)?([ab])\[(-?\d+)\]\s*")


def parse_creators(state: str):
    """Creators of a product state ``f1 f2 ... vac`` as lists of (coef, kind, index).

    Accepts ``a[k]``, ``b[n]`` and parenthesised sums of those with optional
    ``i`` coefficients, which covers every workload state.
    """
    body = state.strip()
    if not body.endswith("vac"):
        raise ValueError(f"reference states end in 'vac': {state!r}")
    body = body[: -len("vac")]
    creators, pos = [], 0
    while body[pos:].strip():
        match = _FACTOR.match(body, pos)
        if not match:
            raise ValueError(f"unsupported factor at {pos} in {state!r}")
        if match.group(1) is not None:
            terms = []
            for sign, imag, kind, index in _SUMMAND.findall(match.group(1)):
                coef = (1j if imag else 1.0) * (-1.0 if sign == "-" else 1.0)
                terms.append((coef, kind, int(index)))
            creators.append(terms)
        else:
            creators.append([(1.0, match.group(2), int(match.group(3)))])
        pos = match.end()
    return creators


def chain_modes(n_sites: int):
    """Real orthonormal mode matrix (sites x modes, ascending k) and angular frequencies.

    f_k(n) = (cos(2 pi k n / N) + sin(2 pi k n / N)) / sqrt(N) and
    Omega_k = sqrt((kappa + 2 gamma (1 - cos(2 pi |k| / N))) / m), at the
    defaults m = kappa = gamma = 1 that every workload uses.
    """
    h = (n_sites - 1) // 2
    k = np.arange(-h, h + 1)
    sites = np.arange(1, n_sites + 1)[:, None]
    theta = 2.0 * np.pi * k * sites / n_sites
    basis = (np.cos(theta) + np.sin(theta)) / np.sqrt(n_sites)
    return basis, np.sqrt(1.0 + 2.0 * (1.0 - np.cos(2.0 * np.pi * np.abs(k) / n_sites)))


def creator_vectors(creators, basis: np.ndarray) -> np.ndarray:
    """Mode-space vectors of the creators, one row each."""
    n = basis.shape[0]
    h = (n - 1) // 2
    rows = np.zeros((len(creators), n), dtype=complex)
    for j, terms in enumerate(creators):
        for coef, kind, index in terms:
            if kind == "a":
                rows[j, index + h] += coef
            else:
                rows[j] += coef * basis[index - 1]
    return rows


def wick_product(lin: np.ndarray, contraction: np.ndarray) -> np.ndarray:
    """Wick-ordered product :L_1 ... L_p: over M samples.

    ``lin`` is (M, p), ``contraction`` is (p, p).  Uses
    :L_1..L_p: = L_p :L_1..L_{p-1}: - sum_i G_ip :L_1..(no L_i)..L_{p-1}:.
    """
    memo = {(): np.ones(lin.shape[0], dtype=complex)}

    def product(idx):
        if idx not in memo:
            rest, last = idx[:-1], idx[-1]
            out = lin[:, last] * product(rest)
            for j, i in enumerate(rest):
                out = out - contraction[i, last] * product(rest[:j] + rest[j + 1:])
            memo[idx] = out
        return memo[idx]

    return product(tuple(range(lin.shape[1])))


def relative_values(points, basis, frequencies, creator_rows, real_part: bool):
    """psi / max|psi| over the batch (max|Re psi| when ``real_part``), at m = 1."""
    y = (np.asarray(points, dtype=float) @ basis) * np.sqrt(frequencies)
    log_env = -0.5 * np.sum(y * y, axis=1)
    wick = wick_product(math.sqrt(2.0) * (y @ creator_rows.T), creator_rows @ creator_rows.T)
    scale = np.abs(wick.real) if real_part else np.abs(wick)
    with np.errstate(divide="ignore"):
        log_mag = np.log(scale) + log_env
    top = int(np.argmax(log_mag))
    if not np.isfinite(log_mag[top]):
        raise ValueError("reference batch is identically zero")
    return wick * np.exp(log_env - log_env[top]) / scale[top]


class Reference:
    """Reference for one workload item: draws its points and evaluates psi on them."""

    def __init__(self, n_dims: int, creators, frequencies, basis):
        self.n_dims = n_dims
        self.basis = basis
        self.frequencies = frequencies
        self.rows = creator_vectors(creators, basis)
        # the documented default box: three times the widest mode's length scale
        self.window = 3.0 * float(np.max(1.0 / np.sqrt(frequencies)))

    @classmethod
    def chain(cls, n_sites: int, state: str):
        basis, frequencies = chain_modes(n_sites)
        return cls(n_sites, parse_creators(state), frequencies, basis)

    @classmethod
    def oscillator2d(cls, nu1: int, nu2: int):
        """Separable 2D oscillator at m = kappa = 1: nu1 quanta on q1, nu2 on q2."""
        creators = [[(1.0, "a", 0)]] * nu1 + [[(1.0, "a", 1)]] * nu2
        # the 2-mode "basis" is the identity; index k + h with h = 0 picks mode k
        return cls(2, creators, np.ones(2), np.eye(2))

    def points(self, seed: int, samples: int) -> np.ndarray:
        """The documented draw: PCG64(seed), uniform on [-L, L]^N, C order."""
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.uniform(-self.window, self.window, size=(samples, self.n_dims))

    def relative(self, points, real_part: bool) -> np.ndarray:
        return relative_values(points, self.basis, self.frequencies, self.rows, real_part)
