"""Uniform configuration sampling and the sample-table text format.

Samples are drawn i.i.d. uniform from the hypercube [-L, L]^N by a named,
seeded generator (numpy's PCG64), so a fixed (seed, sample count, dimension,
window) tuple reproduces the exact same points.  The generator identifier and
all draw parameters travel with every output so figures can be regenerated
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import ModeBasis
from .fock import FockState
from .wavefunction import CreatorState, evaluate_batch, evaluate_oscillator2d

__all__ = [
    "RNG_ID",
    "RenderSpec",
    "SampleBatch",
    "default_window",
    "draw_samples",
    "sample_chain_state",
    "sample_oscillator2d",
    "dump_samples",
    "load_samples",
]

RNG_ID = "numpy-PCG64"

COLOR_MODES = ("diverging_real", "phase_hue")


@dataclass(frozen=True)
class RenderSpec:
    """Sampling and rendering parameters for one figure.

    ``window`` is the half-width L of the sampling hypercube.  ``seed`` feeds
    the deterministic generator.  ``color_mode`` picks the value-to-color
    map; the chart type follows from the renderer.
    """

    sample_count: int = 20000
    window: float = 3.0
    seed: int = 0
    color_mode: str = "diverging_real"
    width: int = 900
    height: int = 560

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not self.window > 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")
        if self.color_mode not in COLOR_MODES:
            raise ValueError(f"color_mode must be one of {COLOR_MODES}, got {self.color_mode!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be positive pixel counts")


@dataclass(frozen=True)
class SampleBatch:
    """Drawn points with their evaluated wavefunction values."""

    points: np.ndarray  # (M, N) real
    values: np.ndarray  # (M,) complex
    spec: RenderSpec
    state_label: str = ""

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]


def default_window(frequencies, mass: float) -> float:
    """Default sampling half-width: three times the widest mode's length scale.

    The widest mode is the one with the smallest m*Omega; its ground-state
    Gaussian has standard deviation (2*m*Omega)^(-1/2), so this covers more
    than four standard deviations of every mode.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    return 3.0 * float(np.max(1.0 / np.sqrt(mass * frequencies)))


def chain_window(basis: ModeBasis) -> float:
    """Default window for a chain, from its spectrum."""
    return default_window(basis.frequencies, basis.params.mass)


def draw_samples(spec: RenderSpec, n_dims: int) -> np.ndarray:
    """M points, each coordinate i.i.d. uniform on [-window, window].

    Deterministic: one (seed, sample_count, n_dims, window) tuple always
    yields bit-identical output (PCG64 stream, C-order fill).
    """
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1, got {n_dims}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return rng.uniform(-spec.window, spec.window, size=(spec.sample_count, n_dims))


def sample_chain_state(state: CreatorState | FockState, basis: ModeBasis, spec: RenderSpec,
                       state_label: str = "") -> SampleBatch:
    """Draw samples for a chain state and evaluate its wavefunction on them."""
    points = draw_samples(spec, basis.params.n_sites)
    values = evaluate_batch(state, basis, points)
    return SampleBatch(points=points, values=values, spec=spec, state_label=state_label)


def sample_oscillator2d(nu1: int, nu2: int, mass: float, kappa: float,
                        spec: RenderSpec) -> SampleBatch:
    """Draw 2D samples and evaluate the separable oscillator eigenstate on them."""
    points = draw_samples(spec, 2)
    values = evaluate_oscillator2d(nu1, nu2, mass, kappa, points)
    label = f"oscillator2d nu=({nu1},{nu2})"
    return SampleBatch(points=points, values=values, spec=spec, state_label=label)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def dump_samples(batch: SampleBatch) -> str:
    """Sample table: one metadata header line, then one row per sample.

    Rows are comma-separated: the N site coordinates, then the real and
    imaginary part of the wavefunction value, floats with 17 significant
    digits (lossless for doubles).  Byte-deterministic for fixed inputs.
    """
    spec = batch.spec
    chart = "scatter2d" if batch.n_dims == 2 else "parallel_axes"  # N is odd for a chain
    header = (
        f"# qchain-samples v1, n_dims={batch.n_dims}, samples={spec.sample_count}, "
        f"seed={spec.seed}, window={_fmt(spec.window)}, mode={chart}, "
        f"color_mode={spec.color_mode}, width={spec.width}, height={spec.height}, "
        f"rng={RNG_ID}, state={batch.state_label}"
    )
    lines = [header]
    for row, value in zip(batch.points, batch.values):
        cols = [_fmt(c) for c in row]
        cols.append(_fmt(value.real))
        cols.append(_fmt(value.imag))
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def load_samples(text: str) -> SampleBatch:
    """Parse a sample table back into a batch (inverse of :func:`dump_samples`)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# qchain-samples v1, "):
        raise ValueError("not a qchain sample table")
    meta = {}
    body = lines[0][len("# qchain-samples v1, "):]
    # state=... is last and parsed greedily: its value may contain commas.
    head, sep, state_label = body.partition(", state=")
    if not sep:
        raise ValueError("sample table header missing the state label")
    for part in head.split(", "):
        key, _, value = part.partition("=")
        meta[key] = value
    try:
        if meta["mode"] not in ("parallel_axes", "scatter2d"):
            raise ValueError(f"unknown chart type {meta['mode']!r} in the sample table header")
        n_dims = int(meta["n_dims"])
        spec = RenderSpec(
            sample_count=int(meta["samples"]),
            window=float(meta["window"]),
            seed=int(meta["seed"]),
            color_mode=meta["color_mode"],
            width=int(meta["width"]),
            height=int(meta["height"]),
        )
    except KeyError as exc:
        raise ValueError(f"sample table header has no {exc.args[0]}= field") from None
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1, got {n_dims}")
    points = np.empty((spec.sample_count, n_dims))
    values = np.empty(spec.sample_count, dtype=complex)
    rows = lines[1:]
    if len(rows) != spec.sample_count:
        raise ValueError(f"expected {spec.sample_count} rows, found {len(rows)}")
    for i, row in enumerate(rows):
        cols = row.split(",")
        if len(cols) != n_dims + 2:
            raise ValueError(f"row {i + 1}: expected {n_dims + 2} columns, got {len(cols)}")
        points[i] = [float(c) for c in cols[:n_dims]]
        values[i] = complex(float(cols[n_dims]), float(cols[n_dims + 1]))
    if np.any(np.abs(points) > spec.window):
        raise ValueError("sample coordinates fall outside the declared window")
    return SampleBatch(points=points, values=values, spec=spec, state_label=state_label)
