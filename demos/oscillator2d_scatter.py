# Scatter view of a 2D oscillator eigenstate.
#
# Every dot is one random configuration (q1, q2); its color encodes the
# wavefunction value there (white near zero, red positive, blue negative).
# For the (2, 1) eigenstate the q1 axis shows two nodal lines and the q2
# axis one, so the dots organize into six colored patches.

import numpy as np

from qchain import RenderSpec, render_scatter2d, sample_oscillator2d

nu1, nu2 = 2, 1
spec = RenderSpec(sample_count=8000, window=6.0, seed=0)
batch = sample_oscillator2d(nu1, nu2, mass=1.0, kappa=1.0, spec=spec)

svg = render_scatter2d(batch)
with open("oscillator2d_scatter.svg", "w") as fh:
    fh.write(svg)

vals = batch.values.real
print(f"psi_{nu1}{nu2} on {spec.sample_count} samples:")
print(f"  range [{vals.min():+.4f}, {vals.max():+.4f}]")
print(f"  positive fraction {np.mean(vals > 0):.3f}")
print("wrote oscillator2d_scatter.svg")
