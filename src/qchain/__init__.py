"""Wavefunction visualizer for a quantized harmonic chain.

The pipeline: diagonalize the chain into independent normal modes
(:mod:`~qchain.chain`), build states as creators applied to the vacuum
(:mod:`~qchain.expr`), evaluate the N-dimensional position wavefunction at
random sample points (:mod:`~qchain.wavefunction`, :mod:`~qchain.sampling`),
and draw each sample as one polyline across N axes, colored by the
wavefunction value (:mod:`~qchain.render`); background-colored samples are
left out.  :mod:`~qchain.fock` expands states into occupation-number terms.
"""

__version__ = "0.1.0"  # before the submodules: render reads it, and pyproject.toml too

from . import chain, expr, fock, render, sampling, wavefunction
from .chain import *  # noqa: F403
from .expr import *  # noqa: F403
from .fock import *  # noqa: F403
from .render import *  # noqa: F403
from .sampling import *  # noqa: F403
from .wavefunction import *  # noqa: F403

# the public names are those each module lists in its own __all__
__all__ = [name for module in (chain, expr, fock, render, sampling, wavefunction)
           for name in module.__all__] + ["__version__"]
