"""SVG renderers: parallel-axes polyline charts and 2D scatter charts.

Every sample becomes one chart element colored by its wavefunction value.
The diverging map sends zero to the background white (near-nodal samples
vanish into the chart), the largest positive real part to a deep warm red
and the most negative to a deep cool blue, linearly in between; no
quantitative color legend is drawn.  The phase-hue map encodes the complex
argument as hue and the relative magnitude as saturation, for states whose
wavefunction is not real.

Elements are emitted in ascending |psi| order (ties broken by sample index),
so the most significant samples are drawn last and end up on top.  The
writer is plain deterministic text: fixed float formats, no timestamps, and
a metadata block recording the tool version, generator id, seed, and draw
parameters, so identical inputs give byte-identical documents.

The sample elements are written in bulk, because a figure holds ~20 000 of
them.  Each color map is one array kernel over the whole batch, and each
distinct color is formatted to hex once.  Each figure builds one ``%``
template for its element rows, with the fixed parts (for polylines, the x
pixel of every site axis) formatted into it once, and fills it once per
sample.  ``'%.2f' % y`` writes the same text as ``f"{y:.2f}"``.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .sampling import RNG_ID, SampleBatch

__all__ = [
    "diverging_color",
    "phase_color",
    "draw_order",
    "render_parallel_axes",
    "render_scatter2d",
]

TOOL_ID = "qchain 0.1.0"

POSITIVE_RGB = (178, 24, 43)  # deep red
NEGATIVE_RGB = (33, 102, 172)  # deep blue
BACKGROUND_RGB = (255, 255, 255)

AXIS_COLOR = "#c8c8c8"
LABEL_COLOR = "#404040"

# plot-area margins, pixels
_LEFT, _RIGHT, _TOP, _BOTTOM = 58, 16, 34, 40

_BACKGROUND = np.array(BACKGROUND_RGB, dtype=float)
_BACKGROUND_HEX = "#%02x%02x%02x" % BACKGROUND_RGB

# colorsys.hsv_to_rgb at full saturation and value: in hue sector i, (r, g, b)
# pick from (1, 0, 1 - f, 1 - (1 - f)), f the position inside the sector.
_HUE_SECTORS = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3], [1, 2, 0], [3, 1, 0], [0, 1, 2]])


def _blend(target, strength):
    """(M, 3) rounded blend from background white (strength 0) to target RGB (strength 1)."""
    mixed = _BACKGROUND + strength[:, None] * (np.asarray(target, dtype=float) - _BACKGROUND)
    return np.rint(mixed).astype(np.int64)


def _checked_values(values, vmax: float, dtype):
    """``values`` as an array of ``dtype``; a NaN value or vmax has no color."""
    values = np.asarray(values, dtype=dtype)
    if np.isnan(vmax) or np.isnan(values).any():
        raise ValueError("cannot color a NaN value or vmax")
    return values


def _diverging_rgb(values, vmax: float):
    """(M, 3) RGB of the diverging map for real values; white everywhere if vmax <= 0."""
    values = _checked_values(values, vmax, float)
    t = np.zeros_like(values) if vmax <= 0 else np.clip(values / vmax, -1.0, 1.0)
    return _blend(np.where((t >= 0)[:, None], POSITIVE_RGB, NEGATIVE_RGB), np.abs(t))


def _phase_rgb(values, vmax: float):
    """(M, 3) RGB of the phase-hue map for complex values; white everywhere if vmax <= 0."""
    values = _checked_values(values, vmax, complex)
    strength = np.zeros(values.shape) if vmax <= 0 else np.minimum(1.0, np.abs(values) / vmax)
    hue6 = np.remainder(np.angle(values) / (2.0 * np.pi), 1.0) * 6.0
    sector = hue6.astype(np.int64)  # truncation, as colorsys does
    f = hue6 - sector
    channels = np.stack([np.ones_like(f), np.zeros_like(f), 1.0 - f, 1.0 - (1.0 - f)], axis=1)
    full = np.take_along_axis(channels, _HUE_SECTORS[sector % 6], axis=1)
    return _blend(np.rint(255.0 * full), strength)


def _hex_colors(rgb) -> list[str]:
    """'#rrggbb' per row of an (M, 3) RGB array, each distinct color formatted once."""
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    distinct, inverse = np.unique(packed, return_inverse=True)
    names = np.array(["#%06x" % p for p in distinct.tolist()], dtype=object)
    return names[inverse.reshape(-1)].tolist()


def diverging_color(value: float, vmax: float) -> str:
    """Two-color diverging map: white at zero, red at +vmax, blue at -vmax."""
    return _hex_colors(_diverging_rgb([value], vmax))[0]


def phase_color(value: complex, vmax: float) -> str:
    """Complex map: hue encodes the argument, saturation the relative magnitude."""
    return _hex_colors(_phase_rgb([value], vmax))[0]


def draw_order(values) -> np.ndarray:
    """Sample indices sorted by ascending |psi|, ties broken by index."""
    return np.argsort(np.abs(np.asarray(values)), kind="stable")


def _colors(batch: SampleBatch, order) -> list[str]:
    """Element colors of the batch's samples, listed in ``order``."""
    values = batch.values[order]
    if batch.spec.color_mode == "phase_hue":
        rgb = _phase_rgb(values, float(np.max(np.abs(values))))
    else:
        rgb = _diverging_rgb(values.real, float(np.max(np.abs(values.real))))
    return _hex_colors(rgb)


def _text(x, y, body, size: int = 11, anchor: str = "", fill: str = LABEL_COLOR) -> str:
    end = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-size="{size}" fill="{fill}"{end}>{body}</text>'


def _chart(batch: SampleBatch, chart: str):
    """Document head and plot geometry shared by both chart types; rejects a bad batch.

    ``chart`` is the chart type written into the metadata.  Returns the
    opening SVG lines, the plot-area width and height, and the maps from a
    coordinate in [-window, window] to its x and y pixel.
    """
    if batch.points.shape[0] == 0:
        raise ValueError("cannot render an empty batch")
    if not np.all(np.isfinite(batch.points)) or not np.all(np.isfinite(batch.values)):
        raise ValueError("batch contains non-finite coordinates or values")
    spec = batch.spec
    meta = (
        f"tool={TOOL_ID}; rng={RNG_ID}; seed={spec.seed}; "
        f"samples={spec.sample_count}; window={spec.window:.17g}; "
        f"n_dims={batch.n_dims}; mode={chart}; color_mode={spec.color_mode}; "
        f"state={batch.state_label}"
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f"<metadata>{escape(meta)}</metadata>",
        f'<rect width="{spec.width}" height="{spec.height}" fill="{_BACKGROUND_HEX}"/>',
    ]
    plot_w = spec.width - _LEFT - _RIGHT
    plot_h = spec.height - _TOP - _BOTTOM
    win = spec.window

    def x_pix(q):
        return _LEFT + (q + win) * plot_w / (2.0 * win)

    def y_pix(q):
        return _TOP + (win - q) * plot_h / (2.0 * win)

    return parts, plot_w, plot_h, x_pix, y_pix


def _titles(plot_w: int, plot_h: int, x_name: str, y_name: str, label: str):
    """Axis names and the state title, drawn above the chart furniture."""
    parts = [_text(_LEFT + plot_w, _TOP + plot_h + 32, x_name, size=12, anchor="end"),
             _text(_LEFT - 40, _TOP - 12, y_name, size=12)]
    if label:
        parts.append(_text(_LEFT, 20, escape(label), size=13, fill="#000000"))
    return parts


def _elements(template: str, batch: SampleBatch, coords) -> list[str]:
    """One element per sample in draw order: ``template % (index, *coords[index], color)``."""
    order = draw_order(batch.values)
    rows = zip(order.tolist(), coords[order].tolist(), _colors(batch, order))
    return [template % (idx, *row, color) for idx, row, color in rows]


def render_parallel_axes(batch: SampleBatch) -> str:
    """Parallel-axes chart: one polyline per sample across N site axes.

    The x axis is the site index 1..N, the y axis the coordinate value over
    [-window, window].  Returns the SVG document as a string.
    """
    n = batch.n_dims
    win = batch.spec.window
    parts, plot_w, plot_h, _, y_pix = _chart(batch, "parallel_axes")
    if n > 1:
        xs = _LEFT + plot_w * np.arange(n) / (n - 1)
    else:
        xs = np.array([_LEFT + plot_w / 2.0])

    # axis furniture under the data
    zero_y = y_pix(0.0)
    parts.append(
        f'<line x1="{_LEFT}" y1="{zero_y:.2f}" x2="{_LEFT + plot_w}" y2="{zero_y:.2f}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    label_step = max(1, int(np.ceil(n / 30)))
    for j in range(n):
        x = xs[j]
        parts.append(
            f'<line x1="{x:.2f}" y1="{_TOP}" x2="{x:.2f}" y2="{_TOP + plot_h}" '
            f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        if j % label_step == 0:
            parts.append(_text(f"{x:.2f}", _TOP + plot_h + 16, j + 1, anchor="middle"))
    for q, tick_y in ((win, _TOP), (0.0, zero_y), (-win, _TOP + plot_h)):
        parts.append(_text(_LEFT - 8, f"{tick_y + 4:.2f}", f"{q:.3g}", anchor="end"))
    parts += _titles(plot_w, plot_h, "site n", "q", batch.state_label)

    points = " ".join(f"{x:.2f},%.2f" for x in xs)
    template = f'<polyline id="s%d" points="{points}" fill="none" stroke="%s" stroke-width="1"/>'
    parts += _elements(template, batch, y_pix(batch.points))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_scatter2d(batch: SampleBatch) -> str:
    """Scatter chart of a two-dimensional batch: one dot per sample at (q1, q2)."""
    if batch.n_dims != 2:
        raise ValueError(f"scatter rendering requires 2 dimensions, got {batch.n_dims}")
    win = batch.spec.window
    parts, plot_w, plot_h, x_pix, y_pix = _chart(batch, "scatter2d")

    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for q in (-win, 0.0, win):
        parts.append(_text(f"{x_pix(q):.2f}", _TOP + plot_h + 16, f"{q:.3g}", anchor="middle"))
        parts.append(_text(_LEFT - 8, f"{y_pix(q) + 4:.2f}", f"{q:.3g}", anchor="end"))
    parts += _titles(plot_w, plot_h, "q1", "q2", batch.state_label)

    pixels = np.column_stack([x_pix(batch.points[:, 0]), y_pix(batch.points[:, 1])])
    template = '<circle id="s%d" cx="%.2f" cy="%.2f" r="2" fill="%s"/>'
    parts += _elements(template, batch, pixels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
