"""Which sample elements a rendered SVG holds, and which it should hold.

The colors come from the reference color maps below: the scalar formulas the
array kernels of ``qchain.render`` replaced, so a check of a figure's
elements does not rest on the kernels that drew it.
"""

import colorsys
import re

import numpy as np

from qchain.render import draw_order

REF_POSITIVE, REF_NEGATIVE, REF_BACKGROUND = (178, 24, 43), (33, 102, 172), (255, 255, 255)


def _ref_mix(rgb, strength):
    return tuple(int(round(b + strength * (c - b))) for b, c in zip(REF_BACKGROUND, rgb))


def _ref_hex(rgb):
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def ref_diverging(value, vmax):
    if vmax <= 0:
        return _ref_hex(REF_BACKGROUND)
    t = min(1.0, max(-1.0, value / vmax))
    return _ref_hex(_ref_mix(REF_POSITIVE if t >= 0 else REF_NEGATIVE, abs(t)))


def ref_phase(value, vmax):
    if vmax <= 0:
        return _ref_hex(REF_BACKGROUND)
    strength = min(1.0, abs(value) / vmax)
    hue = (np.angle(value) / (2.0 * np.pi)) % 1.0
    full = tuple(int(round(255 * c)) for c in colorsys.hsv_to_rgb(hue, 1.0, 1.0))
    return _ref_hex(_ref_mix(full, strength))


def ref_batch_colors(values, color_mode):
    values = np.asarray(values, dtype=complex)
    if color_mode == "phase_hue":
        vmax = float(np.max(np.abs(values)))
        return [ref_phase(v, vmax) for v in values.tolist()]
    vmax = float(np.max(np.abs(values.real)))
    return [ref_diverging(v, vmax) for v in values.real.tolist()]


def element_ids(svg, tag):
    """Sample indices of the ``<tag id="s<index>"`` elements, in document order."""
    return [int(m.group(1)) for m in re.finditer(rf'<{tag} id="s(\d+)"', svg)]


def shown_ids(batch):
    """Draw order restricted to the samples whose color is not the background."""
    colors = ref_batch_colors(batch.values, batch.spec.color_mode)
    background = _ref_hex(REF_BACKGROUND)
    return [i for i in draw_order(batch.values).tolist() if colors[i] != background]
