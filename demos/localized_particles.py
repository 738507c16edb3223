# Localized particles: quanta created at sites instead of in modes.
#
# b[n] spreads one quantum over all modes with the site-n profile as
# coefficients.  The resulting picture is local: line color follows the
# displacement of site n and ignores the rest of the chain.  Two localized
# quanta at different sites color by the product q_{n1} * q_{n2}; creating
# both at the same site gives the two-quantum radial pattern instead.
# Creation operators commute, so b[3] b[8] and b[8] b[3] build the exact
# same state, term for term.

from qchain import ChainParams, RenderSpec, build_state, chain_window, parse_state_expr
from qchain import real_mode_basis, render_parallel_axes, sample_chain_state
from qchain.expr import evaluate_expr

params = ChainParams(n_sites=11)
basis = real_mode_basis(params)
window = chain_window(basis)

for src, outfile in [
    ("b[5] vac", "localized_one.svg"),
    ("b[3] b[8] vac", "localized_pair.svg"),
    ("b[5] b[6] vac", "localized_adjacent.svg"),
    ("b[5] b[5] vac", "localized_double.svg"),
]:
    state, label = build_state(src, params)
    spec = RenderSpec(sample_count=6000, window=window, seed=0)
    batch = sample_chain_state(state, basis, spec, state_label=label)
    with open(outfile, "w") as fh:
        fh.write(render_parallel_axes(batch))
    terms = evaluate_expr(parse_state_expr(src, 11), params).terms
    print(f"{label:15s} -> {outfile} ({len(terms)} occupation terms)")

swapped = evaluate_expr(parse_state_expr("b[8] b[3] vac", 11), params)
original = evaluate_expr(parse_state_expr("b[3] b[8] vac", 11), params)
print("b[3] b[8] vac == b[8] b[3] vac term map:", original.terms == swapped.terms)
