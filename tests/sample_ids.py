"""Which sample elements a rendered SVG holds, and which it should hold."""

import re

import numpy as np

from qchain.render import diverging_color, draw_order, phase_color


def element_ids(svg, tag):
    """Sample indices of the ``<tag id="s<index>"`` elements, in document order."""
    return [int(m.group(1)) for m in re.finditer(rf'<{tag} id="s(\d+)"', svg)]


def shown_ids(batch):
    """Draw order restricted to the samples whose color is not the background."""
    values = batch.values
    if batch.spec.color_mode == "phase_hue":
        vmax = float(np.max(np.abs(values)))
        colors = [phase_color(v, vmax) for v in values.tolist()]
    else:
        vmax = float(np.max(np.abs(values.real)))
        colors = [diverging_color(v, vmax) for v in values.real.tolist()]
    return [i for i in draw_order(values).tolist() if colors[i] != "#ffffff"]
