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
    TOOL_ID,
    RenderSpec,
    SampleBatch,
    chain_window,
    dump_samples,
    load_samples,
    read_provenance,
    sample_chain_state,
    sample_oscillator2d,
)
from sample_ids import (
    REF_BACKGROUND,
    REF_NEGATIVE,
    REF_POSITIVE,
    element_ids,
    ref_batch_colors,
    ref_diverging,
    ref_phase,
    shown_ids,
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


# SHA-256 of the SVGs and --dump-samples tables (500 samples) the command line
# wrote at commit 15870fe, every byte of them.  The same run checked that each
# document, with its record line rewritten to the field set of its time,
# still hashed to the pin before it: the SVG pins of the renderer that wrote
# only the samples that show, themselves the figures of the per-vertex,
# per-sample renderer with background samples removed (the *_2d cases were
# written by the Hermite-recurrence 2D evaluator), and the table pins of the
# first values-only (v2) writer.  Any changed byte fails them, the version in
# the record included.
GOLDEN_SVG_SHA256 = {
    ("fig1", 0): "5422f2ef3de91d2cc72faefeb6be41be5af09d1bed424f7b6258e2c3beaae213",
    ("fig1", 42): "b4d22a5c3a3ff90618fca2268f1afcf50b8da29cbfb4cf7849358e8680388370",
    ("fig2", 0): "344bef786c3ec7fd488f2f61f368a5f85abf4bbf863c9df90aaf8490926369e7",
    ("fig2", 42): "f750e936a81404102d440006120aeb1aeb14415841c3136d2c4d7df1b9ad79dc",
    ("fig3", 0): "153db8bda2da95c92902415a36a1428aa1c1245ffccd368d02dc01fbc4c11a95",
    ("fig3", 42): "e59aa3197f365d0e6e26a3943d1353b9762def484627775b0af4d9d1a457c6c9",
    ("fig4", 0): "79f204adef0ab3fe48d6b7c4c7041de1a44ee4f1853b868a5c422d16cad17c16",
    ("fig4", 42): "01fc5aa566e00d877a9f8c9085f0c3450dd1d8a8e8892d30c4880959fe775200",
    ("fig5", 0): "4edf1a57a57f0a656bbfe2a582e120cfa71f61e955edefcd11e757ed4eee0659",
    ("fig5", 42): "5b6bd20eb4bb5df92b559ab1167acbd094116560fdeee7367675983eddc19766",
    ("fig6", 0): "195aff2ff9fa7582d444841607e75a092e0eef488ffb9c9c4107440df9f1f6e9",
    ("fig6", 42): "12cc7d05a5b881fa0107debdcf1b2d100f1e1f1694776b410cf2cd9a7ac03ea3",
    ("fig7", 0): "c68908df9428e89e3245cd97ef07aaef73014f6a685bec7723dc86dc94c6b767",
    ("fig7", 42): "10b9e83b5b9fe924b0e9a0af3d23dbe96215e8815669896780bf0b3132944e15",
    ("fig8a", 0): "fd5192a5f45f71222ef03863bbaf3dc7c3c31e545ca41acaa39292c7c0e1a393",
    ("fig8a", 42): "bc8dce16f225b74eafbaec62fa799595eeac01ff43f9d1359b68e1c89e8360c5",
    ("fig8b", 0): "1282696b6f650bfd3da4de0e761a0bef43e1c3ac68fe83217863c17fc898a794",
    ("fig8b", 42): "57cd406a79683f51fb037b043fcb795ded1958bd941f34ae04e01523fdd16d01",
    ("mass_kappa_2d", 0): "eee2081d38206406224ab0916d5024bc6b818dcb8fd42d3df17313a28c06a642",
    ("phase_hue", 0): "b71742dbbbd1ae4ca735c1177ed730c1da4aa5f978a16d38962ce892725606b0",
    ("phase_hue", 42): "cf36e3062bec298e3721dd6a207c7eebabc726c99e527d9f85a42a405400fc90",
    ("phase_hue_2d", 0): "7bf777f9f3c7818f10b4098e1fe7c2d97b41a5d9d96e7fb661ca56911e71756b",
}

GOLDEN_TABLE_V2_SHA256 = {
    ("fig1", 0): "40a2844852e20425905b1cad45bbf256905b5e6cb033d9b0959a657f5156d10c",
    ("fig1", 42): "6b4be7d935b2c84868ad0f69b9c662ff304f075d283ef918c62f78786c5266e7",
    ("fig2", 0): "6017a4666d8324c94ae2d1fded56238affcd8710a5d6f086d02ee54863ff86ed",
    ("fig2", 42): "893e6785f439eb3abd6748ed4d117cdc69657a69ecde6f72f9d7abbd35e5a775",
    ("fig3", 0): "716a8f3831ecae45e46264b74de194d95efae9ea47e6ed50ca24992a3160f243",
    ("fig3", 42): "07c9a687f51b016fda9b305caeeb9f53d5f90d50cb27a6f71ca3b68ee5a188a5",
    ("fig4", 0): "83ac722341e1dfff90822eabecf14382956222e1d7d02f14f10bf9940d75867a",
    ("fig4", 42): "69ed403db96a62e123e9dd1ccd39f16e5a16b8d695189556926120c09d36a98d",
    ("fig5", 0): "be9ff3cf217703cbccb6a8ef6fe48f4af116ebb919970715bb81d9677f41c14b",
    ("fig5", 42): "d6c3cbf60661dba340d5a924e799192cc39c7786bccc34e68b8f07407ab5c42f",
    ("fig6", 0): "58a2f5f9e27c83c6a3199431160c02408b1d3294e1103c839aa0995eb5d053d5",
    ("fig6", 42): "fa54d75e33c3d0b650775fd361db496def505cc87350cfba2a25c6b2dde9e4ef",
    ("fig7", 0): "9e4504889c77f3129192017b0e2605f4f0c6b3f5a631a4082c1eb33a7b711353",
    ("fig7", 42): "2898e619881649d18310d048530394659e3973af90139c5e3444e9cd40df1c23",
    ("fig8a", 0): "f8b81e1f815f5c4362b0c7475c85a625266804b02e4a8ad6eeb555ea4d523704",
    ("fig8a", 42): "1d21f981112cfd8505f2b0ffc98e8cfc362e8c99ad7883b421ddf62d0febcdcb",
    ("fig8b", 0): "10b415fc5cb11cad45154dddb683fce7be456de83138da58a93d1bcadf1fbb2a",
    ("fig8b", 42): "1b1c9f3f86f04334b06cd781eddc5fc11b061928771e08a57a428a3729a8aa8e",
    ("phase_hue", 0): "a64af7db781bca4f2e660477d745c1d13a2082e30e5df0d61d977167f67af163",
    ("phase_hue", 42): "313a7ce1f602499d959faa682eeb3ccabdd99ab183d3d913b5e3813adde57d18",
}

# SHA-256 of the --dump-state files written by the evaluator that expanded
# each creator through its own Fock-space routine, before one creation kernel
# replaced them.  Keys are presets or (N, state expression).
GOLDEN_STATE_SHA256 = {
    "fig2": "cf2a11b5f9355b9ef1d88c69d3b80aa1cd6495a26b17b5b9d1b0bd39c4765917",
    "fig3": "56a49f8bfd29cd8a5bf701f5406afafc75d100dfdc92c3af5584976e86966551",
    "fig4": "96e009c66ac51d3645b68b221cf0d1c51f5f9def3de0af56a1cd45dcb68024e2",
    "fig5": "599ad0242834c37983618fe058ea9b66af492104c5da6c6e3928eae1b721fffd",
    "fig6": "794bf5d1b9f1fe3d4fadf32488656c84a2895c827bf22ae4b33c8b6d22117acb",
    "fig7": "175eb0fea353402478a71e228c77bc7c4fd5f26ad23092304f6dba117e05d173",
    "fig8a": "9a7b3654bf750440b2a660b0871d1c4d32f3ad3aea04e68d253520a02ece33e0",
    "fig8b": "6080530146f6cdfc8454c14fbc9df6ed526179a73b45b4390a5f7c57d14b1d5e",
    (15, "(a[1] + i a[-1]) vac"):
        "d68e72781384610b71e3476e86bd55acc45f2332c9c78150495843ac04e1bc72",
    (15, "b[1] b[4] b[8] b[11] b[14] vac"):
        "b4041c9d5ccfc34b26fcb39823b6142c40884790d1b748153f7d6adbad692944",
    (31, "b[3] b[8] b[20] vac"):
        "dc0d979aa55cd38c1d8ee4396fdb4a1e281b7829052cc7b6b9ccfc0c0d800cb1",
}

NON_PRESET_ARGS = {
    "phase_hue": ["--n", "15", "--state", "(a[1] + i a[-1]) vac", "--color-mode", "phase_hue"],
    "mass_kappa_2d": ["--mode2d", "--nu1", "5", "--nu2", "3", "--mass", "2", "--kappa", "0.5"],
    "phase_hue_2d": ["--mode2d", "--nu1", "1", "--nu2", "7", "--color-mode", "phase_hue"],
}


@pytest.mark.parametrize("state", GOLDEN_STATE_SHA256, ids=str)
def test_state_dumps_byte_identical_to_golden(state, tmp_path, capsys):
    dump = tmp_path / "state.txt"
    args = [state] if isinstance(state, str) else ["--n", str(state[0]), "--state", state[1]]
    assert main(args + ["--samples", "10", "--out", str(tmp_path / "figure.svg"),
                        "--dump-state", str(dump)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == GOLDEN_STATE_SHA256[state]


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


def _golden_argv(figure, seed):
    return NON_PRESET_ARGS.get(figure, [figure]) + ["--seed", str(seed)]


# The command line of each run the golden tests check: the figures at the
# default 20000 samples, the tables at 500, and the record runs.
RUNS = {f"{f}-{seed}": _golden_argv(f, seed) for f, seed in sorted(GOLDEN_SVG_SHA256)}
RUNS |= {f"{f}-{seed}-samples500": _golden_argv(f, seed) + ["--samples", "500"]
         for f, seed in sorted(GOLDEN_TABLE_V2_SHA256)}
RUNS |= RECORD_ARGS


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The figure and table of a run in RUNS: one command-line run, made when a
    test first asks for it, for every test that checks it."""
    made = {}

    def run(name):
        if name not in made:
            out = tmp_path_factory.mktemp("run")
            svg, table = out / "figure.svg", out / "samples.txt"
            assert main(RUNS[name] + ["--out", str(svg), "--dump-samples", str(table)]) == 0
            made[name] = svg, table
        svg, table = made[name]
        return svg.read_bytes(), table.read_bytes()

    return run


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_SVG_SHA256))
def test_figures_byte_identical_to_golden(figure, seed, golden_run):
    svg, _ = golden_run(f"{figure}-{seed}")
    assert hashlib.sha256(svg).hexdigest() == GOLDEN_SVG_SHA256[figure, seed]


@pytest.mark.parametrize("figure, seed", sorted(GOLDEN_TABLE_V2_SHA256))
def test_v2_sample_tables_byte_identical_to_golden(figure, seed, golden_run):
    _, table = golden_run(f"{figure}-{seed}-samples500")
    assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_V2_SHA256[figure, seed]


@pytest.mark.parametrize("name", RUNS)
def test_figures_are_every_sample_figures_without_background(name, golden_run):
    # the figure draws the samples of its own table, in draw order, less the
    # samples whose color is the background
    svg, table = golden_run(name)
    batch = load_samples(table.decode())
    tag = "circle" if batch.n_dims == 2 else "polyline"
    assert element_ids(svg.decode(), tag) == shown_ids(batch)


def _record_argv(fields):
    """The command line that a run's record describes, built from nothing else."""
    assert (fields["tool"], fields["rng"]) == (TOOL_ID, "numpy-PCG64")
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


@pytest.mark.parametrize("name", RUNS)
def test_figures_and_tables_regenerate_from_their_own_record(name, golden_run, tmp_path):
    svg, table = golden_run(name)
    svg_fields, table_fields = _svg_record(svg), _table_record(table)
    table_fields.pop("points_sha256")
    assert svg_fields == table_fields  # one record, less the table's digest
    again_svg, again_table = tmp_path / "again.svg", tmp_path / "again.txt"
    assert main(_record_argv(svg_fields) + ["--out", str(again_svg)]) == 0
    assert again_svg.read_bytes() == svg
    assert main(_record_argv(_table_record(table)) + ["--out", str(tmp_path / "t.svg"),
                                                      "--dump-samples", str(again_table)]) == 0
    assert again_table.read_bytes() == table


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
    # a table of the field set and order before the record held the state's parameters
    fields, rows = _table_record(text.encode()), text.partition("\n")[2]
    keys = ("n_dims", "samples", "seed", "window", "mode", "color_mode", "width", "height",
            "rng", "points_sha256", "state")
    old = load_samples("# qchain-samples v2, " + ", ".join(f"{k}={fields[k]}" for k in keys)
                       + "\n" + rows)
    assert old.state_params == ()
    assert (old.spec, old.state_label) == (batch.spec, batch.state_label)
    assert old.points.tobytes() == batch.points.tobytes()
    assert old.values.tobytes() == batch.values.tobytes()


def test_fig2_metadata_line(tmp_path, capsys):
    assert main(["fig2", "--out", str(tmp_path / "fig2.svg")]) == 0
    capsys.readouterr()
    svg = (tmp_path / "fig2.svg").read_text()
    assert re.search("<metadata>(.*)</metadata>", svg).group(1) == (
        f"tool=qchain {qchain.__version__}; rng=numpy-PCG64; seed=0; samples=20000; window=3; "
        "n_dims=15; mode=parallel_axes; color_mode=diverging_real; width=900; height=560; "
        "mass=1; kappa=1; gamma=1; state=vac")


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
