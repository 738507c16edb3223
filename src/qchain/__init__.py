"""Wavefunction visualizer for a quantized harmonic chain.

The pipeline: diagonalize the chain into independent normal modes
(:mod:`~qchain.chain`), build states as creators applied to the vacuum
(:mod:`~qchain.expr`), evaluate the N-dimensional position wavefunction at
random sample points (:mod:`~qchain.wavefunction`, :mod:`~qchain.sampling`),
and draw each sample as one polyline across N axes, colored by the
wavefunction value (:mod:`~qchain.render`); background-colored samples are
left out.  :mod:`~qchain.fock` expands states into occupation-number terms.
"""

from .chain import (
    ChainParams,
    ModeBasis,
    build_coupling_matrix,
    mode_indices,
    mode_profile,
    mode_spectrum,
    real_mode_basis,
)
from .expr import StateExprError, build_state, creator_state, parse_state_expr, pretty
from .fock import (
    FockState,
    apply_create,
    apply_create_local,
    apply_creator,
    dump_state,
    energy_eigenvalue,
    inner_product,
    linear_combine,
    norm,
    vacuum,
)
from .render import diverging_color, phase_color, render_parallel_axes, render_scatter2d
from .sampling import (
    RNG_ID,
    RenderSpec,
    SampleBatch,
    chain_window,
    default_window,
    draw_samples,
    dump_samples,
    load_samples,
    sample_chain_state,
    sample_oscillator2d,
)
from .wavefunction import (
    CreatorState,
    evaluate,
    evaluate_batch,
    evaluate_oscillator2d,
    hamiltonian_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "ModeBasis",
    "build_coupling_matrix",
    "mode_indices",
    "mode_profile",
    "mode_spectrum",
    "real_mode_basis",
    "FockState",
    "vacuum",
    "apply_creator",
    "apply_create",
    "apply_create_local",
    "linear_combine",
    "inner_product",
    "norm",
    "energy_eigenvalue",
    "dump_state",
    "CreatorState",
    "evaluate",
    "evaluate_batch",
    "evaluate_oscillator2d",
    "hamiltonian_residual",
    "RNG_ID",
    "RenderSpec",
    "SampleBatch",
    "default_window",
    "chain_window",
    "draw_samples",
    "sample_chain_state",
    "sample_oscillator2d",
    "dump_samples",
    "load_samples",
    "diverging_color",
    "phase_color",
    "render_parallel_axes",
    "render_scatter2d",
    "StateExprError",
    "parse_state_expr",
    "pretty",
    "creator_state",
    "build_state",
    "__version__",
]
