"""The package exports the names its modules list in ``__all__``."""

import qchain
from qchain import chain, expr, fock, render, sampling, wavefunction

# the names the package exported when it listed them itself
EXPORTED = """
    ChainParams ModeBasis build_coupling_matrix mode_indices mode_spectrum
    real_mode_basis FockState vacuum apply_creator apply_create apply_create_local
    linear_combine inner_product norm energy_eigenvalue dump_state CreatorState evaluate
    evaluate_batch evaluate_oscillator2d hamiltonian_residual RNG_ID RenderSpec SampleBatch
    default_window chain_window draw_samples sample_chain_state sample_oscillator2d
    dump_samples load_samples diverging_color phase_color render_parallel_axes
    render_scatter2d StateExprError parse_state_expr pretty creator_state build_state
    __version__
""".split()


def test_package_all_is_the_module_lists():
    modules = (chain, expr, fock, render, sampling, wavefunction)
    assert qchain.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    assert len(set(qchain.__all__)) == len(qchain.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(qchain, name) is getattr(module, name)
    assert len(EXPORTED) == 41 and set(EXPORTED) <= set(qchain.__all__)
    namespace = {}
    exec("from qchain import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qchain.__all__)


def test_svg_tool_id_carries_the_package_version():
    assert sampling.TOOL_ID == f"qchain {qchain.__version__}"
