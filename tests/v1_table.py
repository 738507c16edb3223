"""Reference sample tables: the per-cell v1 writer and a per-cell row reader.

A v1 table stores every cell of a batch, its N coordinates and then the real
and imaginary part of its value, each as ``'%.17g' % x``.  ``load_samples``
still reads v1, and the golden table hashes pin the bytes of this writer.
"""

import numpy as np

from qchain.sampling import RNG_ID


def dump_v1(batch):
    """The v1 table of ``batch``, one ``'%.17g'`` call per cell."""
    spec = batch.spec
    mode = "scatter2d" if batch.n_dims == 2 else "parallel_axes"
    lines = [
        f"# qchain-samples v1, n_dims={batch.n_dims}, samples={spec.sample_count}, "
        f"seed={spec.seed}, window={spec.window:.17g}, mode={mode}, "
        f"color_mode={spec.color_mode}, width={spec.width}, height={spec.height}, "
        f"rng={RNG_ID}, state={batch.state_label}"
    ]
    for row, value in zip(batch.points, batch.values):
        cols = [f"{c:.17g}" for c in row]
        cols.append(f"{value.real:.17g}")
        cols.append(f"{value.imag:.17g}")
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def load_rows(text, point_cols):
    """Points and values of a table's rows, one ``float`` call per cell;
    ``point_cols`` is N for a v1 table and 0 for a v2 one."""
    rows = text.removesuffix("\n").split("\n")[1:]  # float() ignores a '\r' before the '\n'
    points = np.empty((len(rows), point_cols))
    values = np.empty(len(rows), dtype=complex)
    for i, row in enumerate(rows):
        cols = row.split(",")
        points[i] = [float(c) for c in cols[:point_cols]]
        values[i] = complex(float(cols[point_cols]), float(cols[point_cols + 1]))
    return points, values
