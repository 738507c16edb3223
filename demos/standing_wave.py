# A standing-wave quantum: one excitation of the k = 1 mode.
#
# The mode profile (cos + sin)/sqrt(N) vanishes near n = 3N/8 and 7N/8; for
# N = 15 that is between sites 5|6 and 13|14.  Lines keep the background
# color whatever those two sites do: the excitation cannot be detected
# there.  Everywhere else the color tracks the local displacement, with the
# sign pattern of the mode profile.

from qchain import ChainParams, RenderSpec, build_state, chain_window
from qchain import real_mode_basis, render_parallel_axes, sample_chain_state

params = ChainParams(n_sites=15)
basis = real_mode_basis(params)
state, label = build_state("a[1] vac", params)

spec = RenderSpec(sample_count=6000, window=chain_window(basis), seed=0)
batch = sample_chain_state(state, basis, spec, state_label=label)
with open("standing_wave.svg", "w") as fh:
    fh.write(render_parallel_axes(batch))

profile = basis.basis[:, 7 + 1]  # the k = 1 column: the mode over sites 1..15
quiet = [site for site in range(1, 15) if profile[site - 1] * profile[site] < 0]
print("k=1 mode profile by site:")
print("  " + "  ".join(f"{v:+.3f}" for v in profile))
print(f"sign changes between sites {quiet[0]}|{quiet[0]+1} and {quiet[1]}|{quiet[1]+1}")
print("wrote standing_wave.svg")
