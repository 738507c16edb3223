import colorsys
import hashlib
import html
import math
import os
import re
import subprocess
import sys
import tracemalloc
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qchain
from qchain import render
from qchain.chain import ChainParams, real_mode_basis
from qchain.cli import main
from qchain.expr import build_state
from qchain.fock import apply_create, vacuum
from qchain.render import (
    _hex_colors,
    _rgb,
    diverging_color,
    draw_order,
    phase_color,
    render_parallel_axes,
    render_scatter2d,
)
from qchain.sampling import (
    RenderSpec,
    SampleBatch,
    chain_window,
    dump_samples,
    load_samples,
    read_provenance,
    sample_chain_state,
    sample_oscillator2d,
)
from old_record import old_svg, old_table
from sample_ids import element_ids, shown_ids
from v1_table import dump_v1


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


def test_parallel_axes_draw_order_and_colors():
    values = [0.5, -2.0, 0.1, 1.0, -0.3]
    batch = _make_batch(values)
    svg = render_parallel_axes(batch)

    ids = element_ids(svg, "polyline")
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
    # a one-site chain draws its only axis at the centre of the 826 px plot width
    one = render_parallel_axes(_make_batch([1.0], n_dims=1))
    assert one.count("<line ") == 1 + 1
    assert '<line x1="471.00" y1="34" x2="471.00" y2="520" ' in one
    assert re.search(r'<polyline id="s0" points="471\.00,[0-9.]+" ', one)


def test_labels_escaped_as_xml_text():
    label = 'a<b & "c">\''
    batch = _make_batch([1.0, -1.0], n_dims=2, label=label)
    for svg in (render_parallel_axes(batch), render_scatter2d(batch)):
        meta = re.search(r"<metadata>(.*)</metadata>", svg).group(1)
        assert meta.endswith("; state=" + sax_escape(label))
        assert ">" + sax_escape(label) + "</text>" in svg


def test_import_skips_xml_and_url_libraries():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qchain.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, qchain; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request', 'hashlib') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    assert re.search(r' id="s\d+"', svg) is None
    assert svg.count("<line ") == 3 + 1  # the site axes and the dashed zero line


def test_renderer_converts_only_the_drawn_samples():
    # N=301 a[1] vac: 48 MB of points, one polyline drawn
    params = ChainParams(n_sites=301)
    basis = real_mode_basis(params)
    spec = RenderSpec(sample_count=20000, window=chain_window(basis), seed=0)
    batch = sample_chain_state(build_state("a[1] vac", params)[0], basis, spec)
    tracemalloc.start()
    try:
        render_parallel_axes(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch.points.nbytes / 4


def test_scatter_requires_two_dims():
    with pytest.raises(ValueError):
        render_scatter2d(_make_batch([1.0, 2.0], n_dims=3))


def test_scatter_chart_elements():
    spec = RenderSpec(sample_count=25, window=3.0, seed=4)
    batch = sample_oscillator2d(1, 0, 1.0, 1.0, spec)
    svg = render_scatter2d(batch)
    ids = element_ids(svg, "circle")
    shown = shown_ids(batch)
    assert svg.count("<circle") == len(shown)
    assert ids == shown
    assert "state=oscillator2d nu=(1,0)" in svg


def test_charts_and_tables_record_their_chart_type():
    # the chart type comes from the renderer (and, for a table, from n_dims),
    # whatever figure the batch was drawn for
    batch = sample_oscillator2d(2, 1, 1.0, 1.0, RenderSpec(sample_count=5))
    assert "; mode=scatter2d;" in render_scatter2d(batch)
    assert "; mode=parallel_axes;" in render_parallel_axes(batch)
    assert ", mode=scatter2d," in dump_samples(batch)
    params = ChainParams(n_sites=3)
    chain = sample_chain_state(vacuum(params), real_mode_basis(params), RenderSpec(sample_count=2))
    assert ", mode=parallel_axes," in dump_samples(chain)


def test_render_rejects_bad_batches():
    with pytest.raises(ValueError):
        render_parallel_axes(_make_batch([np.inf, 1.0]))
    with pytest.raises(ValueError):
        empty = SampleBatch(
            points=np.zeros((0, 3)),
            values=np.zeros(0, dtype=complex),
            spec=RenderSpec(sample_count=1, window=3.0),
            state_label="",
        )
        render_parallel_axes(empty)


def test_phase_mode_uses_complex_magnitude():
    # a purely imaginary value has zero real part but full |psi|: invisible
    # in the diverging map, fully saturated in the phase map
    values = [1j, 0.5 + 0.0j]
    svgs = {}
    for color_mode in ("diverging_real", "phase_hue"):
        batch = _make_batch(values, color_mode=color_mode)
        svgs[color_mode] = svg = render_parallel_axes(batch)
        shown = shown_ids(batch)
        assert svg.count("<polyline") == len(shown)
        assert element_ids(svg, "polyline") == shown

    assert '<polyline id="s0"' not in svgs["diverging_real"]
    ph = svgs["phase_hue"]
    seg = ph[ph.index('<polyline id="s0"'):]
    color = re.search(r'stroke="(#\w{6})"', seg[: seg.index("/>")]).group(1)
    assert color != "#ffffff"


# SHA-256 of the SVGs written by the per-vertex, per-sample renderer that the
# bulk renderer replaced, when every sample still became an element; the bulk
# writer with one element per sample (_elements_every_sample) must reproduce
# them byte for byte.  The two *_2d cases were written by the
# Hermite-recurrence 2D evaluator that the Wick evaluator replaced.  The SVG
# and v2 table hashes below are of documents whose metadata or header line
# old_record rewrites to the field set of that time.
GOLDEN_EVERY_SAMPLE_SVG_SHA256 = {
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

# SHA-256 of the same SVGs with every background-colored sample left out,
# recorded once test_figures_are_every_sample_figures_without_background held.
GOLDEN_SVG_SHA256 = {
    ("fig1", 0): "5b0bbe7387e41571354975a808ce6c15010b86f20e5b8e1de70685b7d749d926",
    ("fig1", 42): "0701f9c10132a98b081a2e9acd2edd4502a9b5eec82d05c95290d77f3436e551",
    ("fig2", 0): "bdbec8a8bb32c9f13c6bfb252f6217cce10d037ad9e1aa61c051f51a90b7771b",
    ("fig2", 42): "b2c832e4864622777b9ffee76a31e592314c78ef57764881a046b327a45f4a40",
    ("fig3", 0): "6b2bd9b32a8ec0da2715b406b38d6703bf16435c96f766713c1264aada9e5c4e",
    ("fig3", 42): "62c24dfacf2e00fba33de44a1e5b5da733176d71fac8c326e60df739d42482a2",
    ("fig4", 0): "a27da039c278fbc3eed7fb95579674b207c2268fd368699eea73965a88fe884d",
    ("fig4", 42): "b2d5fb7528a9eabedfb44243d629f27d15fe991d5b3742d7c9425a82fad81010",
    ("fig5", 0): "08f4f286955c6cd2a5bb8946061a6b945edc205f1523f703935039c6cd2c21ae",
    ("fig5", 42): "6257cd53654de63822a2b3afc6d55c606358fb8f2c53dbdc436fdb293db48d63",
    ("fig6", 0): "45d5434a4ed353ad49755be23b0a9e5b8f0b7bfccccaf3cbe2c12b449480b626",
    ("fig6", 42): "1cb8468063ebcbf6b1e0ae5531c1c18a2bc34929c68fb563085de6fb5eb8659d",
    ("fig7", 0): "469fa566cd5353fff7260cfa2d32a7902a786e1288ae9f4607893ab275cb5fec",
    ("fig7", 42): "ef483fba1e734785f1f1ddcef1cdee2fa5245bf65a38200cf6951d160b0eae61",
    ("fig8a", 0): "e72e22b6f463fd1dac223ac9606d6ce8047fffad1b9d69aa3c7afcdddd3ff407",
    ("fig8a", 42): "b3145934a8c6ea0a6dea3099af2b85bfdc1c4d13e865e81db35ee12afc976a65",
    ("fig8b", 0): "803571f7e2b9dbfc290d49dc0c07a3a0a6455eb1d68564861698a40669df3e93",
    ("fig8b", 42): "c86d3a6fec083c0d12170ebb698707fbe7e78c560d2b8d57561fcf2cdaa4822c",
    ("mass_kappa_2d", 0): "c438caee24544986e16c04de408694f5ec543463d8ebfc797c6396610ac45087",
    ("phase_hue_2d", 0): "1f8d1d146ced5aebf13bd6cb4dcfef4c446de8070d3580ef0c16f9a45d5dbcdc",
    ("phase_hue", 0): "576988bac3a8194eb1329deaf4337a77906de2234eeb1f72a6b09e1d0de8eaeb",
    ("phase_hue", 42): "17fd48b15141ae3b136d2966db5ee6aafa11cde529f032b1038e87e47b928e67",
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

# SHA-256 of the --dump-samples tables (500 samples) written by the per-cell
# table writer that the one-template-per-row writer replaced.
GOLDEN_TABLE_SHA256 = {
    ("fig1", 0): "1d9b1978317f541656c9fdc83c60981cbceab0bdfc63e9ab0883dc634f03a495",
    ("fig1", 42): "075fc1b8c48bdf7dcddd85de00ecd4b13a96d5c05a099dfce941235efdeb3904",
    ("fig2", 0): "9b3bb54b752296a3bc17df1e7f6ba1d345e2168823c99e02632074258f866f76",
    ("fig2", 42): "ca9f2b985a02ce09aece21540a4aae17254a3618e8007ea0f0854ef3c83084e2",
    ("fig3", 0): "cb75b58aee3a1c20ec055c60c03862eed66ce59b49cb4f964ef021eab5b7b918",
    ("fig3", 42): "597ba704056080ee21070d00bcf16ba2b4fb93e9d26c8bcf0dd84c5c25f968bd",
    ("fig4", 0): "6636b235f5a94cdfbf2e1616663aa1d5cf81243e2bb2f5184d151c8184650fc5",
    ("fig4", 42): "701e795ccd08e7e4a7b5d3ccca0c24ecbad1d03eb4bb2b0ad864676f46914c9f",
    ("fig5", 0): "ab53d23f77ede54d19dc303580310cf93f7d8f6859ea9ca20836afe1f38cc522",
    ("fig5", 42): "b88e9f1b68a14ef87b3c99c6d5ad1513fae48331d398c94481c875d57c578aaf",
    ("fig6", 0): "9fe96fa9b957383efc9777c1afed027c64034dad5f0f9e0f6da670e4fa744c0f",
    ("fig6", 42): "a2cd8be2bab2472ea82d21a55c81370fa17fd376fdde43796fa6c02590a2ade3",
    ("fig7", 0): "ef7245c5f91e5787ccd3fd0c54e011d3c916915f20ea4bda4ee30adcc5db96c4",
    ("fig7", 42): "1cb268020f28399dbc09c6f58ded045140d34e218ffd2f3440b32f679f466063",
    ("fig8a", 0): "c609d35c4c38e5b619f57bf025bd3cfc81d31bde01a36c19be538f9d80815ce2",
    ("fig8a", 42): "d8ce633ef42c142034b3ec43c428f7ac1d5552101a6a10e8ce4f853f3fff403d",
    ("fig8b", 0): "c4a33992eebe34665d66ef23af8c22a006a0488a991507943027407c8721ebbe",
    ("fig8b", 42): "545b3b1b21c082a35ba908efb41ebff44e874ad4415f8c41c428b738e5a1c2d9",
    ("phase_hue", 0): "875b2b14130602c56b33235137ec4843ba22f619a0d3610506d023c33ab31008",
    ("phase_hue", 42): "f1badcd76c527a4485c45a9465c75ee969979838e43a9cd81ae41411fadc8002",
}

# SHA-256 of the same --dump-samples tables in the values-only v2 format.
GOLDEN_TABLE_V2_SHA256 = {
    ("fig1", 0): "091b15ad0188fca077fd34719e46361165929b412b6d826b5bd628e306d0dc78",
    ("fig1", 42): "92e1f2de1cb9c7a7854014453e877f0ddfbcb732625a59432076eabadb69ab30",
    ("fig2", 0): "23bc347fd7f8cd225493f6d4183ad4c135d490582cd2a0fe52f543e5acca3373",
    ("fig2", 42): "eaf278a225d391b850f5da81455dea29b315667f77adc609e16099a76c32f0d4",
    ("fig3", 0): "4254390cb03f53341f576e463e2c2dd70a1ccf379df49e07ffa29fefc8b638dd",
    ("fig3", 42): "1944e5c3d5a529211d04f890baa204ed3714567148a93d047cedc8e9f35d9cf3",
    ("fig4", 0): "eee4ad12d80aff4679bbef9e2871f5b5a584502fbbb41f96c9191c5cc675f83f",
    ("fig4", 42): "9dedc4cfc91fd17be9a20ff31abb4bad5a1f313e6c1569dd2d197f5fbb671901",
    ("fig5", 0): "327d3dfb44339fdd58a91a1ae759b4f3fadd08d3c34ac4fd0f4f4db4058c8f16",
    ("fig5", 42): "f1fb68cd4dc04d16da154bdd5806bb008f9e345510dcd1364b5dde5a67d9c569",
    ("fig6", 0): "f46381b3c16cf428424b27e5362e4e8c4ab3818786cc1894e4525e739cdcf7b9",
    ("fig6", 42): "316ea03c7268a3248fa79f0814a25e11c25ddca1c0d3364b12fe1ad8c509ff9c",
    ("fig7", 0): "453a17d673db2779c97b3097d31bab6ac0a1a3f0eb480447a2c34df88b20fa49",
    ("fig7", 42): "dd4cb32294c3c0a70afd4bb02f045e75da5eb7b4e1d8fd30b1d5ffca140b26f6",
    ("fig8a", 0): "a2da20ce2155a91e4cf03bcf59122549cac85d9d4ab0540444246e56269aa81c",
    ("fig8a", 42): "1548e78e2dd4132da8953c000e8544833329bc9c2eac2fd10ea255436550934f",
    ("fig8b", 0): "3f1df9abd96c830d9962092e576716ed2aef965716d08b01d3be3b7a9d8f2684",
    ("fig8b", 42): "1450d0368cb3f4825276e4598012b90e32550d755ef8d3977aebf3fd245d4e40",
    ("phase_hue", 0): "12d6deb524e576576906bbfacadd64131903b85d5343cb7f6fb77e3a0015be83",
    ("phase_hue", 42): "e84f2ce4fabb05df092e98c36c318827d8496a6286cb04c596bad7e847ec156d",
}

NON_PRESET_ARGS = {
    "phase_hue": ["--n", "15", "--state", "(a[1] + i a[-1]) vac", "--color-mode", "phase_hue"],
    "mass_kappa_2d": ["--mode2d", "--nu1", "5", "--nu2", "3", "--mass", "2", "--kappa", "0.5"],
    "phase_hue_2d": ["--mode2d", "--nu1", "1", "--nu2", "7", "--color-mode", "phase_hue"],
}


def _figure_bytes(figure, seed, out):
    args = NON_PRESET_ARGS.get(figure, [figure])
    assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_SVG_SHA256))
def test_figures_byte_identical_to_golden(figure, seed, tmp_path, capsys):
    svg = old_svg(_figure_bytes(figure, seed, tmp_path / "figure.svg"))
    capsys.readouterr()
    assert hashlib.sha256(svg).hexdigest() == GOLDEN_SVG_SHA256[figure, seed]


def _elements_every_sample(template, batch, pixels):
    """The sample writer before background-colored samples were left out."""
    order = draw_order(batch.values)
    rows = zip(order.tolist(), pixels(batch.points[order]).tolist(),
               _hex_colors(_rgb(batch, order)))
    return [template % (idx, *row, color) for idx, row, color in rows]


_BACKGROUND_SAMPLE = re.compile(rb'<\w+ id="s\d+" [^\n]*(?:stroke|fill)="#ffffff"[^\n]*/>\n')


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_EVERY_SAMPLE_SVG_SHA256))
def test_figures_are_every_sample_figures_without_background(figure, seed, tmp_path, capsys,
                                                            monkeypatch):
    # The old writer still writes the pinned documents, and each of them with its
    # background-colored samples removed hashes to the document that
    # test_figures_byte_identical_to_golden requires of today's writer.
    monkeypatch.setattr(render, "_elements", _elements_every_sample)
    every = old_svg(_figure_bytes(figure, seed, tmp_path / "every.svg"))
    capsys.readouterr()
    assert hashlib.sha256(every).hexdigest() == GOLDEN_EVERY_SAMPLE_SVG_SHA256[figure, seed]
    without = _BACKGROUND_SAMPLE.sub(b"", every)
    assert hashlib.sha256(without).hexdigest() == GOLDEN_SVG_SHA256[figure, seed]


@pytest.mark.parametrize("state", GOLDEN_STATE_SHA256, ids=str)
def test_state_dumps_byte_identical_to_golden(state, tmp_path, capsys):
    dump = tmp_path / "state.txt"
    args = [state] if isinstance(state, str) else ["--n", str(state[0]), "--state", state[1]]
    assert main(args + ["--samples", "10", "--out", str(tmp_path / "figure.svg"),
                        "--dump-state", str(dump)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == GOLDEN_STATE_SHA256[state]


def _table_bytes(figure, seed, tmp_path):
    table = tmp_path / "samples.txt"
    args = NON_PRESET_ARGS.get(figure, [figure])
    assert main(args + ["--samples", "500", "--seed", str(seed), "--out",
                        str(tmp_path / "figure.svg"), "--dump-samples", str(table)]) == 0
    return table.read_bytes()


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_TABLE_SHA256))
def test_sample_tables_byte_identical_to_golden(figure, seed, tmp_path, capsys):
    # The CLI writes v2 tables.  The v1 table of the batch it wrote, every
    # point and value as text, still has the pinned bytes.
    batch = load_samples(_table_bytes(figure, seed, tmp_path).decode())
    capsys.readouterr()
    v1 = dump_v1(batch)
    assert hashlib.sha256(v1.encode()).hexdigest() == GOLDEN_TABLE_SHA256[figure, seed]


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_TABLE_V2_SHA256))
def test_v2_sample_tables_byte_identical_to_golden(figure, seed, tmp_path, capsys):
    table = old_table(_table_bytes(figure, seed, tmp_path))
    capsys.readouterr()
    assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_V2_SHA256[figure, seed]


# Runs beyond the golden cases whose figures and tables must regenerate from
# their own record: non-default chain and oscillator parameters, canvas,
# window and color map.
RECORD_ARGS = {
    "chain_params": ["--n", "7", "--state", "a[1] b[2] vac", "--mass", "0.3", "--kappa", "2.5",
                     "--gamma", "0.1"],
    "oscillator_canvas": ["--mode2d", "--nu1", "3", "--mass", "2", "--kappa", "0.5",
                          "--width", "500", "--height", "300"],
    "window_phase_hue": ["--n", "5", "--state", "(a[1] - 0.5i a[-2]) vac", "--window", "2.7",
                         "--color-mode", "phase_hue", "--seed", "3"],
}
RECORD_CASES = [pytest.param(NON_PRESET_ARGS.get(f, [f]) + ["--seed", str(seed)], id=f"{f}-{seed}")
                for f, seed in sorted(GOLDEN_SVG_SHA256)]
RECORD_CASES += [pytest.param(args, id=name) for name, args in RECORD_ARGS.items()]


def _record_argv(fields):
    """The command line that a run's record describes, built from nothing else."""
    assert (fields["tool"], fields["rng"]) == (render.TOOL_ID, "numpy-PCG64")
    keys = ["samples", "seed", "window", "color_mode", "width", "height", "mass", "kappa"]
    if "nu1" in fields:  # the 2D oscillator: its label only names nu1 and nu2
        argv, keys = ["--mode2d"], keys + ["nu1", "nu2"]
    else:
        argv, keys = ["--n", fields["n_dims"], "--state", fields["state"]], keys + ["gamma"]
    for key in keys:
        argv += ["--" + key.replace("_", "-"), fields[key]]
    return argv


def _svg_record(svg: bytes):
    meta = re.search(r"<metadata>(.*)</metadata>", svg.decode()).group(1)
    return read_provenance(html.unescape(meta), "; ")


def _table_record(table: bytes):
    header = table.decode().partition("\n")[0].removeprefix("# qchain-samples v2, ")
    return read_provenance(header, ", ")


@pytest.mark.parametrize("argv", RECORD_CASES)
def test_figures_and_tables_regenerate_from_their_own_record(argv, tmp_path, capsys):
    svg, table = tmp_path / "figure.svg", tmp_path / "samples.txt"
    assert main(argv + ["--out", str(svg), "--dump-samples", str(table)]) == 0
    svg, table = svg.read_bytes(), table.read_bytes()
    svg_fields, table_fields = _svg_record(svg), _table_record(table)
    table_fields.pop("points_sha256")
    assert svg_fields == table_fields  # one record, less the table's digest
    again_svg, again_table = tmp_path / "again.svg", tmp_path / "again.txt"
    assert main(_record_argv(svg_fields) + ["--out", str(again_svg)]) == 0
    assert again_svg.read_bytes() == svg
    assert main(_record_argv(_table_record(table)) + ["--out", str(tmp_path / "t.svg"),
                                                      "--dump-samples", str(again_table)]) == 0
    assert again_table.read_bytes() == table
    capsys.readouterr()


@pytest.mark.parametrize("name, params", [
    ("chain_params", (("mass", "0.29999999999999999"), ("kappa", "2.5"),
                      ("gamma", "0.10000000000000001"))),
    ("oscillator_canvas", (("mass", "2"), ("kappa", "0.5"), ("nu1", "3"), ("nu2", "0"))),
])
def test_tables_carry_the_state_parameters(name, params, tmp_path, capsys):
    table = tmp_path / "samples.txt"
    assert main(RECORD_ARGS[name] + ["--samples", "300", "--out", str(tmp_path / "f.svg"),
                                     "--dump-samples", str(table)]) == 0
    capsys.readouterr()
    text = table.read_text()
    batch = load_samples(text)
    assert batch.state_params == params
    assert dump_samples(batch) == text  # the parameters round-trip
    # a table of the old field set and order, as the golden gate writes it, loads the same
    old = load_samples(old_table(text.encode()).decode())
    assert old.state_params == ()
    assert (old.spec, old.state_label) == (batch.spec, batch.state_label)
    assert old.points.tobytes() == batch.points.tobytes()
    assert old.values.tobytes() == batch.values.tobytes()


def test_fig2_metadata_line(tmp_path, capsys):
    svg = _figure_bytes("fig2", 0, tmp_path / "fig2.svg").decode()
    capsys.readouterr()
    assert re.search("<metadata>(.*)</metadata>", svg).group(1) == (
        f"tool=qchain {qchain.__version__}; rng=numpy-PCG64; seed=0; samples=20000; window=3; "
        "n_dims=15; mode=parallel_axes; color_mode=diverging_real; width=900; height=560; "
        "mass=1; kappa=1; gamma=1; state=vac")


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
    return _hex_colors(_rgb(batch, np.arange(len(batch.values))))


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
