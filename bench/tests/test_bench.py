"""Tests of the benchmark's own logic: spans, output checks and the reference.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from qchain import ChainParams, build_state, cli, evaluate_batch, real_mode_basis
from qchain.render import diverging_color, phase_color

import worker
from checks import BACKGROUND, Checker
from reference import Reference
from spans import Tracer, self_times, totals
from workloads import WORKLOADS, Item

BENCH = Path(__file__).resolve().parents[1]


def _span(name, start, end, parent=None, item="f"):
    return [name, start, end, parent, item]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("expr.build", 1.0, 4.0, parent=0),
        _span("fock.apply", 2.0, 3.0, parent=1),
        _span("render.svg", 3.5, 6.0, parent=0),  # overlaps expr.build by 0.5
        _span("cli.write", 9.0, 11.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 2.0])


def test_totals_group_and_skip():
    spans = [_span("a.x", 0.0, 4.0), _span("b.y", 1.0, 2.0, parent=0, item="g"),
             _span("a.x", 5.0, 6.0)]
    assert totals(spans) == pytest.approx({"a.x": 4.0, "b.y": 1.0})
    by_item = totals(spans, key=lambda s: s[4] if s[0] != "b.y" else None)
    assert by_item == pytest.approx({"f": 4.0})


def test_tracer_nests_cli_calls_and_restores_functions(tmp_path):
    original = cli.render_parallel_axes
    tracer = Tracer()
    tracer.item = "tiny"
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.wrap("cli.main", cli.main)(
                ["--n", "5", "--state", "b[2] vac", "--samples", "50",
                 "--out", str(tmp_path / "t.svg")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.render_parallel_axes is original
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: names[s[3]] for s in tracer.spans if s[3] is not None}
    assert names[0] == "cli.main"
    assert parents["render.svg"] == "cli.main"
    assert parents["fock.apply"] == "expr.build"
    assert parents["wavefunction.eval"] == "cli.main"
    assert {s[4] for s in tracer.spans} == {"tiny"}


@pytest.mark.parametrize("color_mode", ["diverging_real", "phase_hue"])
def test_visible_count_matches_colour_maps(tmp_path, color_mode):
    state_src = "(a[1] + i a[-1]) vac" if color_mode == "phase_hue" else "b[2] b[4] vac"
    item = Item("t", "cli", ("--n", "5", "--state", state_src, "--samples", "400",
                             "--color-mode", color_mode), 5, state_src, samples=400,
                color_mode=color_mode)
    path = str(tmp_path / "t.svg")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*item.cli_args, "--seed", "3", "--out", path])
    outcome = Checker(3).item(item, code, out.getvalue(), path)
    assert outcome.ok, outcome.reason

    params = ChainParams(5)
    basis = real_mode_basis(params)
    state, _ = build_state(state_src, params)
    values = evaluate_batch(state, basis, Reference.chain(5, state_src).points(3, 400))
    if color_mode == "phase_hue":
        vmax = np.max(np.abs(values))
        colours = [phase_color(v, vmax) for v in values]
    else:
        vmax = np.max(np.abs(values.real))
        colours = [diverging_color(float(v), vmax) for v in values.real]
    visible = sum(c != BACKGROUND for c in colours)
    assert 0 < visible < 400
    assert (outcome.elements, outcome.visible) == (400, visible)


def test_cli_check_rejects_wrong_seed_in_metadata(tmp_path):
    item = Item("t", "cli", ("--n", "5", "--state", "a[1] vac", "--samples", "100"),
                5, "a[1] vac", samples=100)
    path = str(tmp_path / "t.svg")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*item.cli_args, "--seed", "4", "--out", path])
    text = out.getvalue().replace("seed=4", "seed=5")
    outcome = Checker(5).item(item, 0, text, path)
    assert not outcome.ok and "metadata" in outcome.reason


def _roundtrip_report(tmp_path, item, seed):
    return worker.roundtrip(item, seed, str(tmp_path / "t.table"))


def test_reference_check_rejects_flipped_sign(tmp_path):
    item = Item("t", "roundtrip", (), 7, "b[3] b[5] vac", samples=500)
    report = _roundtrip_report(tmp_path, item, seed=2)
    checker = Checker(2)
    assert checker.roundtrip(item, report).ok

    vmax = float.fromhex(report["vmax"])
    row = next(i for i, (re_, _) in enumerate(report["values"])
               if abs(float.fromhex(re_)) > 1e-3 * vmax)
    flipped = json.loads(json.dumps(report))
    flipped["values"][row][0] = (-float.fromhex(report["values"][row][0])).hex()
    outcome = checker.roundtrip(item, flipped)
    assert not outcome.ok and outcome.reason.startswith(f"row {report['rows'][row]}:")


def test_roundtrip_check_rejects_changed_table(tmp_path):
    item = Item("t", "roundtrip", (), 7, "a[2] vac", samples=200)
    report = _roundtrip_report(tmp_path, item, seed=1)
    report["identical"] = False
    assert not Checker(1).roundtrip(item, report).ok


def test_reference_matches_values_stored_from_seed_code():
    stored = json.loads((BENCH / "tests" / "seed_values.json").read_text())["cases"]
    states = {(i.n_dims, i.state) for items in WORKLOADS.values() for i in items if not i.nu}
    assert {(c["n_sites"], c["state"]) for c in stored} <= states
    for case in stored:
        points = np.array([[float.fromhex(x) for x in row] for row in case["points"]])
        values = np.array([complex(float.fromhex(re_), float.fromhex(im))
                           for re_, im in case["values"]])
        ref = Reference.chain(case["n_sites"], case["state"]).relative(points, real_part=False)
        np.testing.assert_allclose(values / np.max(np.abs(values)), ref, rtol=0, atol=1e-12)


def test_oscillator_reference_is_hermite_product():
    ref = Reference.oscillator2d(2, 1)
    points = ref.points(0, 50)
    x, y = points[:, 0], points[:, 1]
    expected = (4 * x * x - 2) * (2 * y) * np.exp(-(x * x + y * y) / 2)
    np.testing.assert_allclose(ref.relative(points, True),
                               expected / np.max(np.abs(expected)), rtol=0, atol=1e-13)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "presets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
