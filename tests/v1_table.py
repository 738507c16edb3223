"""The per-cell writer of the v1 sample table, which pins the golden table hashes.

A v1 table stores every cell of a batch, its N coordinates and then the real
and imaginary part of its value, each as ``'%.17g' % x``.  ``load_samples``
no longer reads v1; the golden hashes of this writer's bytes still pin every
point and value of the tables the command line writes.
"""

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

