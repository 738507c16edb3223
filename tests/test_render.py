import colorsys
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.chain import ChainParams, real_mode_basis
from qchain.cli import main
from qchain.fock import apply_create, vacuum
from qchain.render import (
    _colors,
    diverging_color,
    draw_order,
    phase_color,
    render_parallel_axes,
    render_scatter2d,
)
from qchain.sampling import (
    RenderSpec,
    SampleBatch,
    dump_samples,
    sample_chain_state,
    sample_oscillator2d,
)


def _make_batch(values, window=3.0, color_mode="diverging_real", n_dims=3, label="test"):
    values = np.asarray(values, dtype=complex)
    m = len(values)
    rng = np.random.default_rng(1)
    points = rng.uniform(-window, window, size=(m, n_dims))
    spec = RenderSpec(sample_count=m, window=window, color_mode=color_mode)
    return SampleBatch(points=points, values=values, spec=spec, state_label=label)


def test_diverging_color_endpoints():
    assert diverging_color(1.0, 1.0) == "#b2182b"  # deep red at +max
    assert diverging_color(-1.0, 1.0) == "#2166ac"  # deep blue at -max
    assert diverging_color(0.0, 1.0) == "#ffffff"
    assert diverging_color(0.0, 0.0) == "#ffffff"  # degenerate all-zero batch
    # clamped beyond the extremes
    assert diverging_color(2.0, 1.0) == "#b2182b"


def test_diverging_color_small_values_fade_to_background():
    color = diverging_color(1e-3, 1.0)
    channels = [int(color[i : i + 2], 16) for i in (1, 3, 5)]
    assert all(255 - c <= 1 for c in channels)
    assert diverging_color(1e-4, 1.0) == "#ffffff"


def test_phase_color_conventions():
    assert phase_color(1.0 + 0.0j, 1.0) == "#ff0000"  # arg 0 = red hue
    # arg pi/2 lands on green-cyan side, arg pi on cyan; just check distinct
    quarter = phase_color(1j, 1.0)
    half = phase_color(-1.0 + 0.0j, 1.0)
    assert len({quarter, half, "#ff0000"}) == 3
    assert phase_color(0.0j, 1.0) == "#ffffff"


def test_draw_order_sorts_by_magnitude():
    order = draw_order(np.array([3.0, -1.0, 2.0, 0.5]))
    assert list(order) == [3, 1, 2, 0]
    # stable on ties
    assert list(draw_order(np.array([1.0, -1.0, 1.0]))) == [0, 1, 2]


def _element_ids(svg, tag):
    return [int(m.group(1)) for m in re.finditer(rf'<{tag} id="s(\d+)"', svg)]


def test_parallel_axes_draw_order_and_colors():
    values = [0.5, -2.0, 0.1, 1.0, -0.3]
    batch = _make_batch(values)
    svg = render_parallel_axes(batch)

    ids = _element_ids(svg, "polyline")
    mags = np.abs(np.asarray(values))
    assert ids == sorted(range(5), key=lambda i: mags[i])
    assert len(ids) == 5

    # extreme negative sample gets the full blue
    assert '<polyline id="s1"' in svg
    seg = svg[svg.index('<polyline id="s1"'):]
    seg = seg[: seg.index("/>")]
    assert 'stroke="#2166ac"' in seg

    # tiny sample is visually background
    seg = svg[svg.index('<polyline id="s2"'):]
    seg = seg[: seg.index("/>")]
    color = re.search(r'stroke="(#\w{6})"', seg).group(1)
    channels = [int(color[i : i + 2], 16) for i in (1, 3, 5)]
    assert all(255 - c <= 13 for c in channels)  # 0.1/2.0 = 5% of max


def test_svg_structure_and_metadata():
    batch = _make_batch([1.0, -1.0], n_dims=4, label="a[0] vac")
    svg = render_parallel_axes(batch)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert svg.endswith("</svg>\n")
    meta = re.search(r"<metadata>(.*)</metadata>", svg).group(1)
    assert "tool=qchain" in meta
    assert "rng=numpy-PCG64" in meta
    assert "seed=0" in meta
    assert "samples=2" in meta
    assert "window=3" in meta
    assert "state=a[0] vac" in meta
    # one vertical line per site plus the dashed zero line
    assert svg.count("<line ") == 4 + 1
    assert "a[0] vac" in svg  # title text


def test_render_deterministic():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 0)
    spec = RenderSpec(sample_count=40, window=3.0, seed=5)
    batch = sample_chain_state(state, basis, spec, state_label="a[0] vac")
    assert render_parallel_axes(batch) == render_parallel_axes(batch)


def test_all_zero_values_render_background_only():
    batch = _make_batch([0.0, 0.0, 0.0])
    svg = render_parallel_axes(batch)
    for match in re.finditer(r'<polyline[^>]*stroke="(#\w{6})"', svg):
        assert match.group(1) == "#ffffff"


def test_scatter_requires_two_dims():
    with pytest.raises(ValueError):
        render_scatter2d(_make_batch([1.0, 2.0], n_dims=3))


def test_scatter_chart_elements():
    spec = RenderSpec(sample_count=25, window=3.0, seed=4)
    batch = sample_oscillator2d(1, 0, 1.0, 1.0, spec)
    svg = render_scatter2d(batch)
    ids = _element_ids(svg, "circle")
    assert len(ids) == 25
    mags = np.abs(batch.values)
    assert ids == sorted(range(25), key=lambda i: mags[i])
    assert "state=oscillator2d nu=(1,0)" in svg


def test_charts_and_tables_record_their_chart_type():
    # the chart type comes from the renderer (and, for a table, from n_dims),
    # whatever figure the batch was drawn for
    batch = sample_oscillator2d(2, 1, 1.0, 1.0, RenderSpec(sample_count=5))
    assert "; mode=scatter2d;" in render_scatter2d(batch)
    assert "; mode=parallel_axes;" in render_parallel_axes(batch)
    assert ", mode=scatter2d," in dump_samples(batch)
    assert ", mode=parallel_axes," in dump_samples(_make_batch([1.0, -1.0]))


def test_render_rejects_bad_batches():
    with pytest.raises(ValueError):
        render_parallel_axes(_make_batch([np.inf, 1.0]))
    empty = SampleBatch(
        points=np.zeros((0, 3)),
        values=np.zeros(0, dtype=complex),
        spec=RenderSpec(sample_count=1, window=3.0),
        state_label="",
    )
    with pytest.raises(ValueError):
        render_parallel_axes(empty)


def test_phase_mode_uses_complex_magnitude():
    # a purely imaginary value has zero real part but full |psi|: invisible
    # in the diverging map, fully saturated in the phase map
    values = [1j, 0.5 + 0.0j]
    div = render_parallel_axes(_make_batch(values, color_mode="diverging_real"))
    seg = div[div.index('<polyline id="s0"'):]
    assert 'stroke="#ffffff"' in seg[: seg.index("/>")]

    ph = render_parallel_axes(_make_batch(values, color_mode="phase_hue"))
    seg = ph[ph.index('<polyline id="s0"'):]
    color = re.search(r'stroke="(#\w{6})"', seg[: seg.index("/>")]).group(1)
    assert color != "#ffffff"


# SHA-256 of the SVGs written by the per-vertex, per-sample renderer that the
# bulk renderer replaced; the bulk renderer must reproduce them byte for byte.
# The two *_2d cases were written by the Hermite-recurrence 2D evaluator that
# the Wick evaluator replaced.
GOLDEN_SVG_SHA256 = {
    ("fig1", 0): "229193d2488f69d9cc4a257f0354fce56130ce58a135eaf6a34258e635879a56",
    ("fig1", 42): "3b2fb875ca42664f42ee3eb1e778d6ece8a9c4fd05cd53ef1f1310deb7630516",
    ("fig2", 0): "00281e238625470df83bd2af60f3ef8381657a056c830425e34afbff3a911435",
    ("fig2", 42): "8284a3b333cb56c572f680f1b20766a1fb0594728f846817acba174603e466c3",
    ("fig3", 0): "060507b5b8b14ecb0b0bdc7cc143bbd5f34a40c795f225f1307f80ae825492b8",
    ("fig3", 42): "d963c7e65bfebcba15e0d19fa67709b86e78fb6b0f4d71a50d3b61e86a99108d",
    ("fig4", 0): "807c76b68d5e9c2d3941d2fb4e723f69184bf2ed683d0c3eb2eda8a98084f284",
    ("fig4", 42): "aab05261835e9717243848a3c728bbc695a1e29d15d55d4ae6ae02ff3c276cbb",
    ("fig5", 0): "fbee42cc6289c40039b6d607976618d2ee746396e02b1f09664a21a37e7f1aec",
    ("fig5", 42): "f2f8f36e4b64388139cec86b5f1f6f4b3336738cf6e8485c8dc3a634f377f1c1",
    ("fig6", 0): "b9911eaaf0f60e2340d1761d92f95e26aae99a9c4262ff7eea335df81faea50f",
    ("fig6", 42): "e13e024e37d3fb5b452cc641bed9c8025dc8384f9ca12ae27b9c6a299f50d6f8",
    ("fig7", 0): "12253c91bac71ef085dbba62b5abb31121477b4a2e6dab4676b92a8b710005bb",
    ("fig7", 42): "63995509d02c8cf061fd2d2672e66e55dcfa626a74824ef73730a77099054430",
    ("fig8a", 0): "68450a648bfdb66f16e02389b9ed165d2fca1e57e6fb0d04b7869d4346247189",
    ("fig8a", 42): "a4a20ca8130f27d41f1f6d40334a5f2e0a7f86d1b0b9b25ec7031fa26521b7f9",
    ("fig8b", 0): "2247d6e8ee256386e551c91182ae41c1323f031948209402ac46792b8eae4571",
    ("fig8b", 42): "fcaa5f6cceed416e179b18681e3f8f8469eb10b9c1d50d13223cd078e35002b7",
    ("mass_kappa_2d", 0): "d9cb3d7aa0cfdff5be525d14203260bdca7a7f382b533d5788fcb77934ac8643",
    ("phase_hue_2d", 0): "bc0618792628308b1a484afc522dbd5c33893b2c86d0111e4f492852c08bb79d",
    ("phase_hue", 0): "6eb9a5c8a23fdf30e9c1511b4aa6d89b57ac50ef2d13e62fe80426643bf36c7d",
    ("phase_hue", 42): "776f91d9a9f4cb1641fa4e0ff12d0a2d115c4b1795f0c58eb9334aecd5edd6ed",
}

# SHA-256 of the --dump-state files written by the evaluator that expanded
# each creator through its own Fock-space routine, before one creation kernel
# replaced them.  Keys are presets or (N, state expression).
GOLDEN_STATE_SHA256 = {
    "fig2": "cf2a11b5f9355b9ef1d88c69d3b80aa1cd6495a26b17b5b9d1b0bd39c4765917",
    "fig3": "56a49f8bfd29cd8a5bf701f5406afafc75d100dfdc92c3af5584976e86966551",
    "fig4": "96e009c66ac51d3645b68b221cf0d1c51f5f9def3de0af56a1cd45dcb68024e2",
    "fig5": "599ad0242834c37983618fe058ea9b66af492104c5da6c6e3928eae1b721fffd",
    "fig6": "be8a045b6393d328bac0df1f859979171d7fb4729efd2ce93a6bfbbf7bd35e7f",
    "fig7": "0d956016570d6e3ba6b124f317babef6fdd51cbe19cfcaaa744814476c27a83a",
    "fig8a": "76761bac013671b9531392573f9ad22263ab770d24ddf77c3c5ce5f547b9a034",
    "fig8b": "19efa8e34f511f9f065d4ebfb76f08bf3240b777d37627657ceeacc59cd2ba21",
    (15, "(a[1] + i a[-1]) vac"):
        "d68e72781384610b71e3476e86bd55acc45f2332c9c78150495843ac04e1bc72",
    (15, "b[1] b[4] b[8] b[11] b[14] vac"):
        "7cdd7d3d52d3ac797e6498804d826fee03ec88e3d87fe2e05abde3c64389def8",
    (31, "b[3] b[8] b[20] vac"):
        "0db85f0573b139e5345114509dd172b2ebe162615bd8f654d92c0126d982a821",
}

NON_PRESET_ARGS = {
    "phase_hue": ["--n", "15", "--state", "(a[1] + i a[-1]) vac", "--color-mode", "phase_hue"],
    "mass_kappa_2d": ["--mode2d", "--nu1", "5", "--nu2", "3", "--mass", "2", "--kappa", "0.5"],
    "phase_hue_2d": ["--mode2d", "--nu1", "1", "--nu2", "7", "--color-mode", "phase_hue"],
}


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_SVG_SHA256))
def test_figures_byte_identical_to_golden(figure, seed, tmp_path, capsys):
    out = tmp_path / "figure.svg"
    args = NON_PRESET_ARGS.get(figure, [figure])
    assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SVG_SHA256[figure, seed]


@pytest.mark.parametrize("state", GOLDEN_STATE_SHA256, ids=str)
def test_state_dumps_byte_identical_to_golden(state, tmp_path, capsys):
    dump = tmp_path / "state.txt"
    args = [state] if isinstance(state, str) else ["--n", str(state[0]), "--state", state[1]]
    assert main(args + ["--samples", "10", "--out", str(tmp_path / "figure.svg"),
                        "--dump-state", str(dump)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == GOLDEN_STATE_SHA256[state]


# Reference color maps: the scalar formulas the array kernels replaced.
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
        return [ref_phase(v, vmax) for v in values]
    vmax = float(np.max(np.abs(values.real)))
    return [ref_diverging(float(v), vmax) for v in values.real]


def _batch_colors(values, color_mode):
    batch = _make_batch(values, color_mode=color_mode)
    return _colors(batch, np.arange(len(batch.values)))


_FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, **_FINITE), min_size=1, max_size=40))
def test_diverging_kernel_matches_scalar_reference(values):
    assert _batch_colors(values, "diverging_real") == ref_batch_colors(values, "diverging_real")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, **_FINITE), min_size=1, max_size=40))
def test_phase_kernel_matches_scalar_reference(values):
    assert _batch_colors(values, "phase_hue") == ref_batch_colors(values, "phase_hue")


# (value, vmax) pairs whose unrounded blend lands exactly on .5 in some channel
BLEND_TIES = [(0.5, 1.0), (0.125, 1.0), (-0.5, 1.0), (-1.0, 2.0)]
PHASE_TIES = [(0.5, 1.0), (0.5j, 1.0), (-0.25, 0.5)]


def test_blend_ties_are_exact_halves():
    def has_tie(rgb, strength):
        return any((b + strength * (c - b)) % 1.0 == 0.5 for b, c in zip(REF_BACKGROUND, rgb))

    for value, vmax in BLEND_TIES:
        assert has_tie(REF_POSITIVE if value >= 0 else REF_NEGATIVE, abs(value) / vmax)
    for value, vmax in PHASE_TIES:
        hue = (np.angle(value) / (2.0 * np.pi)) % 1.0
        full = [int(round(255 * c)) for c in colorsys.hsv_to_rgb(hue, 1.0, 1.0)]
        assert has_tie(full, abs(value) / vmax)


def test_color_kernel_edge_cases_match_scalar_reference():
    diverging = [(1.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (-0.0, 1.0), (2.5, 1.0), (-7.0, 2.0),
                 (1e-300, 1.0), (5e-324, 1e-300), (3.0, 0.0), (-3.0, -1.0)] + BLEND_TIES
    for value, vmax in diverging:
        assert diverging_color(value, vmax) == ref_diverging(value, vmax), (value, vmax)

    phases = [k * math.pi / 3 for k in range(-6, 7)] + [math.pi, -math.pi, 1e-300, -1e-300]
    complex_values = [complex(math.cos(p), math.sin(p)) for p in phases]
    complex_values += [1 + 0j, -1 + 0j, complex(-1.0, -0.0), complex(1.0, -1e-300), 1j, -1j,
                       0j, complex(-0.0, 0.0), complex(0.0, -0.0), 3 + 4j, -30 + 1j]
    # hues where colorsys's 1 - (1 - f) and f itself round to different channels
    complex_values += [0.999997891921711 + 0.002053327088898759j,
                       0.9999810273487268 + 0.0061599466381386594j]
    for value in complex_values + [value for value, _ in PHASE_TIES]:
        for vmax in (1.0, 0.5, 2.0, 30.0, 0.0):
            assert phase_color(value, vmax) == ref_phase(value, vmax), (value, vmax)

    # the same values as batches, where vmax is the batch's own largest magnitude
    real_batch = [1.0, -1.0, 0.0, -0.0, 0.5, 0.125, -0.5, 0.25, 0.0625]
    assert _batch_colors(real_batch, "diverging_real") == ref_batch_colors(
        real_batch, "diverging_real")
    for mode in ("diverging_real", "phase_hue"):
        assert _batch_colors(complex_values, mode) == ref_batch_colors(complex_values, mode)


def test_color_maps_reject_nan():
    nan = float("nan")
    for value, vmax in ((nan, 1.0), (1.0, nan)):
        with pytest.raises(ValueError):
            diverging_color(value, vmax)
        with pytest.raises(ValueError):
            phase_color(complex(value, 0.0), vmax)


def test_all_zero_batch_colors_background():
    zeros = [0.0, -0.0, 0j, complex(-0.0, -0.0)]
    for mode in ("diverging_real", "phase_hue"):
        assert _batch_colors(zeros, mode) == ["#ffffff"] * 4
