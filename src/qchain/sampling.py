"""Uniform configuration sampling, the run's record and the sample-table format.

Samples are drawn i.i.d. uniform from the hypercube [-L, L]^N by a named,
seeded generator (numpy's PCG64), so a fixed (seed, sample count, dimension,
window) tuple reproduces the exact same points; a draw holds at most
``_MAX_POINT_CELLS`` point cells.  One record, :func:`provenance`, holds the
draw parameters, the canvas and the state's parameters; the SVG metadata and
the table header both write it, so each CLI output regenerates from its own.

A sample table (``# qchain-samples v2``) is one header line and one row per
sample.  The points are not stored: the header is the SVG's record plus
``points_sha256=``, the SHA-256 of the points' C-order little-endian float64
bytes, and a reader regenerates them as
``Generator(PCG64(seed)).uniform(-window, window, (samples, n_dims))`` and
checks them against the digest, since numpy does not promise that a
``Generator`` stream stays the same across versions.  Each row holds the real
and imaginary part of one value, each written as ``'%.17g' % x`` and read
back with ``float``, so a table is lossless and byte-deterministic.

The header and each row end at a '\\n' (the last row may lack it), and a
'\\r' before it is ignored.  Header fields other than the ones read are
ignored, so later fields need no new version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .chain import _MAX_POINT_CELLS, ModeBasis, _check_integer
from .fock import CreatorState, FockState
from .wavefunction import evaluate_batch, evaluate_oscillator2d

__all__ = [
    "RNG_ID",
    "RenderSpec",
    "SampleBatch",
    "default_window",
    "chain_window",
    "draw_samples",
    "provenance",
    "read_provenance",
    "sample_chain_state",
    "sample_oscillator2d",
    "dump_samples",
    "load_samples",
]

TOOL_ID = f"qchain {__version__}"
RNG_ID = "numpy-PCG64"
_PARAM_KEYS = ("mass", "kappa", "gamma", "nu1", "nu2")  # a state's parameters, in record order

_HEAD = "# qchain-samples v2, "

COLOR_MODES = ("diverging_real", "phase_hue")

PLOT_MARGINS = (58, 16, 34, 40)  # left, right, top and bottom of the plot area, px


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
        for name in ("sample_count", "seed", "width", "height"):
            _check_integer(name, getattr(self, name))
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0 < self.window < 2.0**1023:  # the range of the draw, 2 * window, is finite
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")
        if self.color_mode not in COLOR_MODES:
            raise ValueError(f"color_mode must be one of {COLOR_MODES}, got {self.color_mode!r}")
        left, right, top, bottom = PLOT_MARGINS
        if self.width <= left + right or self.height <= top + bottom:
            raise ValueError(f"a {self.width}x{self.height} px canvas has no room for the plot")


@dataclass(frozen=True)
class SampleBatch:
    """Drawn points with their evaluated wavefunction values.

    ``state_params`` are the state's (name, text) pairs in ``_PARAM_KEYS``
    order.  Raises ``ValueError`` unless its state label is one line, no
    parameter text holds ``,;=`` or a line end, and it holds ``sample_count``
    points inside the window, one value per point and only finite cells, so
    every batch renders.  A batch whose points are its spec's seeded draw
    (:func:`draw_samples`) also dumps to a table that loads back.
    """

    points: np.ndarray  # (M, N) real
    values: np.ndarray  # (M,) complex
    spec: RenderSpec
    state_label: str = ""
    state_params: tuple = ()

    def __post_init__(self):
        points, values, spec = self.points, self.values, self.spec
        if "\n" in self.state_label or "\r" in self.state_label:
            raise ValueError(f"state_label must be one line, got {self.state_label!r}")
        keys = [key for key, text in self.state_params if not set(text) & set(",;=\r\n")]
        if len(keys) < len(self.state_params) or keys != [k for k in _PARAM_KEYS if k in keys]:
            raise ValueError(f"state_params {self.state_params!r} cannot be recorded")
        if points.ndim != 2 or points.shape[1] < 1 or values.shape != points.shape[:1]:
            raise ValueError(f"batch shapes {points.shape} and {values.shape} are not (M, N), (M,)")
        if len(points) != spec.sample_count:
            raise ValueError(f"batch has {len(points)} samples, its spec {spec.sample_count}")
        bad = np.flatnonzero(~(np.isfinite(points).all(axis=1) & np.isfinite(values)))
        if bad.size:
            raise ValueError(f"row {bad[0] + 1}: non-finite cell")
        if max(points.max(), -points.min()) > spec.window:  # no points-sized temporary
            raise ValueError("sample coordinates fall outside the declared window")

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]


def _chart_type(n_dims: int) -> str:
    """Chart type of a batch: two dimensions are a scatter chart; a chain's N is odd."""
    return "scatter2d" if n_dims == 2 else "parallel_axes"


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
    if spec.sample_count * n_dims > _MAX_POINT_CELLS:
        raise ValueError(f"a draw holds at most {_MAX_POINT_CELLS} point cells "
                         f"(samples x n_dims), not {spec.sample_count} x {n_dims}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return rng.uniform(-spec.window, spec.window, size=(spec.sample_count, n_dims))


def sample_chain_state(state: CreatorState | FockState, basis: ModeBasis, spec: RenderSpec,
                       state_label: str = "") -> SampleBatch:
    """Draw samples for a chain state and evaluate its wavefunction on them."""
    points = draw_samples(spec, basis.params.n_sites)
    values = evaluate_batch(state, basis, points)
    return SampleBatch(points, values, spec, state_label, _state_params(**vars(basis.params)))


def sample_oscillator2d(nu1: int, nu2: int, mass: float, kappa: float,
                        spec: RenderSpec) -> SampleBatch:
    """Draw 2D samples and evaluate the separable oscillator eigenstate on them."""
    points = draw_samples(spec, 2)
    values = evaluate_oscillator2d(nu1, nu2, mass, kappa, points)
    return SampleBatch(points, values, spec, f"oscillator2d nu=({nu1},{nu2})",
                       _state_params(mass=mass, kappa=kappa, nu1=nu1, nu2=nu2))


def _state_params(**values) -> tuple:
    """(name, ``'%.17g'`` text) pairs of the values named in ``_PARAM_KEYS``, in its order."""
    return tuple((key, "%.17g" % values[key]) for key in _PARAM_KEYS if key in values)


def provenance(batch: SampleBatch, chart: str, *extra) -> list[tuple[str, str]]:
    """The run's fields as (key, text) pairs: the draw, the ``chart`` type, the
    canvas, the state's parameters, ``extra``, and ``state`` last.  The SVG
    metadata joins them with ``"; "``, a table header with ``", "``."""
    spec = batch.spec
    return [("tool", TOOL_ID), ("rng", RNG_ID), ("seed", str(spec.seed)),
            ("samples", str(spec.sample_count)), ("window", "%.17g" % spec.window),
            ("n_dims", str(batch.n_dims)), ("mode", chart), ("color_mode", spec.color_mode),
            ("width", str(spec.width)), ("height", str(spec.height)),
            *batch.state_params, *extra, ("state", batch.state_label)]


def read_provenance(line: str, sep: str) -> dict[str, str]:
    """The fields of a :func:`provenance` record joined by ``sep``; ``state`` is
    last and read greedily.  Raises ``ValueError`` without it."""
    head, found, state = line.partition(f"{sep}state=")
    if not found:
        raise ValueError("provenance record missing the state label")
    return dict(part.partition("=")[::2] for part in head.split(sep)) | {"state": state}


def _seeded_draw(spec: RenderSpec, n_dims: int) -> tuple[np.ndarray, str]:
    """The spec's draw and the SHA-256 of its C-order little-endian float64 bytes."""
    import hashlib  # on first use: ``import qchain`` does not load it

    points = draw_samples(spec, n_dims)
    return points, hashlib.sha256(np.ascontiguousarray(points, "<f8")).hexdigest()


def dump_samples(batch: SampleBatch) -> str:
    """Sample table: the run's :func:`provenance` as its header, then one row per sample.

    A row is the real and imaginary part of the sample's wavefunction value,
    comma-separated floats with 17 significant digits (lossless for doubles).
    The points are not stored: the header's ``points_sha256=`` is the digest
    of the spec's seeded draw, which :func:`load_samples` redraws.  Raises
    ``ValueError`` unless the batch's points are that draw, bit for bit.
    Byte-deterministic for fixed inputs, and every table written loads back.
    """
    spec = batch.spec
    points, digest = _seeded_draw(spec, batch.n_dims)
    given = np.asarray(batch.points, dtype=float)
    if not np.array_equal(given.view(np.uint64), points.view(np.uint64)):  # -0.0 is not 0.0
        raise ValueError("the table stores values only; its points must be the spec's seeded draw")
    fields = provenance(batch, _chart_type(batch.n_dims), ("points_sha256", digest))
    header = _HEAD + ", ".join(f"{key}={text}" for key, text in fields) + "\n"
    values = batch.values
    rows = map("%.17g,%.17g\n".__mod__, zip(values.real.tolist(), values.imag.tolist()))
    return header + "".join(rows)


def load_samples(text: str) -> SampleBatch:
    """Parse a sample table back into a batch (inverse of :func:`dump_samples`).

    Rows hold the values; the points are redrawn and checked against
    ``points_sha256=``, and the state's parameters are read by ``_PARAM_KEYS``.
    The header and each row end at a '\\n', the last row may lack it, and a
    '\\r' before the '\\n' is ignored.  Other header fields are ignored.  A
    malformed table, a v1 table, one whose digest does not match this numpy's
    draw, one of more than ``_MAX_POINT_CELLS`` point cells, or one that
    breaks a :class:`SampleBatch` rule raises ValueError.
    """
    from array import array

    header, _, body = text.partition("\n")
    if header.startswith("# qchain-samples v1, "):
        raise ValueError("qchain-samples v1 tables are no longer read; dump_samples writes v2")
    if not header.startswith(_HEAD):
        raise ValueError("not a qchain sample table")
    meta = read_provenance(header[len(_HEAD):].removesuffix("\r"), ", ")
    try:
        if meta["rng"] != RNG_ID:
            raise ValueError(f"sample table generator {meta['rng']!r} is not {RNG_ID}")
        n_dims = int(meta["n_dims"])
        if meta["mode"] != _chart_type(n_dims):
            raise ValueError(f"chart type {meta['mode']!r} does not match n_dims={n_dims}")
        spec = RenderSpec(int(meta["samples"]), float(meta["window"]), int(meta["seed"]),
                          meta["color_mode"], int(meta["width"]), int(meta["height"]))
        digest = meta["points_sha256"]
    except KeyError as exc:
        raise ValueError(f"sample table header has no {exc.args[0]}= field") from None
    rows = body.split("\n")
    if rows[-1] == "":  # the last row's '\n', or no rows at all
        rows.pop()
    if len(rows) != spec.sample_count:
        raise ValueError(f"expected {spec.sample_count} rows, found {len(rows)}")
    cells = array("d")  # the first bad row raises, its column count checked before its cells
    for i, row in enumerate(rows):
        row = row.split(",")
        if len(row) != 2:
            raise ValueError(f"row {i + 1}: expected 2 columns, got {len(row)}")
        cells.extend(map(float, row))
    values = np.frombuffer(cells).view(complex)  # keeps -0.0 parts
    points, redrawn = _seeded_draw(spec, n_dims)
    if redrawn != digest:
        raise ValueError("points_sha256 is not the digest of the points numpy "
                         f"{np.__version__} draws for this header: the table was edited, "
                         f"or this numpy's PCG64 stream differs from the writer's")
    state_params = tuple((key, meta[key]) for key in _PARAM_KEYS if key in meta)
    return SampleBatch(points, values, spec, meta["state"], state_params)
