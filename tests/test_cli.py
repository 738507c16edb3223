import os
import subprocess
import sys

import numpy as np
import pytest

from qchain.chain import ChainParams, real_mode_basis
from qchain.cli import PRESETS, main
from qchain.expr import build_state
from qchain.fock import dump_state
from qchain.sampling import load_samples
from qchain.wavefunction import evaluate_batch


def test_preset_table():
    assert PRESETS["fig1"] == {"mode2d": True, "nu1": 2, "nu2": 1}
    assert PRESETS["fig2"] == {"n": 15, "state": "vac"}
    assert PRESETS["fig3"] == {"n": 15, "state": "a[0] vac"}
    assert PRESETS["fig4"] == {"n": 15, "state": "a[0] a[0] vac"}
    assert PRESETS["fig5"] == {"n": 15, "state": "a[1] vac"}
    assert PRESETS["fig6"] == {"n": 11, "state": "b[5] vac"}
    assert PRESETS["fig7"] == {"n": 11, "state": "b[3] b[8] vac"}
    assert PRESETS["fig8a"] == {"n": 11, "state": "b[5] b[6] vac"}
    assert PRESETS["fig8b"] == {"n": 11, "state": "b[5] b[5] vac"}


def test_run_chain_writes_graphic_and_summary(tmp_path, capsys):
    out = tmp_path / "chain.svg"
    code = main(["--n", "5", "--state", "a[0] vac", "--samples", "100",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<polyline") == 100
    summary = capsys.readouterr().out.strip()
    assert summary == f"n=5 state='a[0] vac' samples=100 seed=3 out={out}"


def test_preset_with_overrides(tmp_path):
    out = tmp_path / "fig6.svg"
    table = tmp_path / "fig6.csv"
    code = main(["fig6", "--samples", "50", "--seed", "42",
                 "--out", str(out), "--dump-samples", str(table)])
    assert code == 0
    batch = load_samples(table.read_text())
    assert batch.n_dims == 11
    assert batch.spec.sample_count == 50
    assert batch.spec.seed == 42
    assert batch.state_label == "b[5] vac"
    assert batch.spec.window == pytest.approx(3.0)  # softest mode has Omega = 1


def test_dump_state_flag(tmp_path):
    out = tmp_path / "o.svg"
    dump = tmp_path / "state.txt"
    code = main(["--n", "5", "--state", "b[2] vac", "--samples", "10",
                 "--out", str(out), "--dump-state", str(dump)])
    assert code == 0
    state, _ = build_state("b[2] vac", ChainParams(n_sites=5))
    assert dump.read_text() == dump_state(state)


def test_mode2d_preset(tmp_path):
    out = tmp_path / "fig1.svg"
    code = main(["fig1", "--samples", "60", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("<circle") == 60
    assert "state=oscillator2d nu=(2,1)" in text


def test_mode2d_high_order_draws(tmp_path, capsys):
    # H_300 overflows a double at the window's edge; the normalized Wick
    # power stays finite, so the figure is drawn instead of exiting 2
    out, table = tmp_path / "high.svg", tmp_path / "high.csv"
    code = main(["--mode2d", "--nu1", "300", "--nu2", "1", "--out", str(out),
                 "--dump-samples", str(table)])
    assert code == 0, capsys.readouterr().err
    assert out.read_text().count("<circle") == 20000
    values = load_samples(table.read_text()).values
    assert np.all(np.isfinite(values)) and np.any(values)


def test_default_output_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fig2", "--samples", "10"]) == 0
    assert (tmp_path / "fig2.svg").exists()
    assert main(["--mode2d", "--nu1", "1", "--samples", "10"]) == 0
    assert (tmp_path / "oscillator2d.svg").exists()
    assert main(["--n", "3", "--state", "vac", "--samples", "10"]) == 0
    assert (tmp_path / "chain.svg").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    cases = [
        ["--n", "4", "--state", "vac"],  # even N
        ["--n", "5"],  # no state
        ["--state", "vac"],  # no N
        ["--n", "5", "--state", "a[9] vac"],  # index out of range
        ["--n", "5", "--state", "a[1] +"],  # syntax error
        ["--n", "5", "--state", "vac", "--samples", "0"],
        ["--n", "5", "--state", "vac", "--window", "-2"],
        ["--n", "5", "--state", "vac", "--seed", "-1"],
        ["--nu1", "2"],  # nu without --mode2d
        ["--mode2d", "--n", "5"],
        ["--mode2d", "--nu1", "-1"],
        ["--mode2d", "--dump-state", "x.txt"],
        ["fig99"],  # unknown preset
        ["--color-mode", "sparkles", "--n", "3", "--state", "vac"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()  # swallow the diagnostics
        assert code == 1, argv


def test_io_error_exits_3(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.svg"
    code = main(["--n", "3", "--state", "vac", "--samples", "10",
                 "--out", str(missing_dir)])
    capsys.readouterr()
    assert code == 3


def test_numeric_error_exits_2(tmp_path, capsys):
    # an amplitude of 1e400 overflows to infinity, which the renderer rejects
    out = tmp_path / "x.svg"
    code = main(["--n", "3", "--state", "1e400 vac", "--samples", "10",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "numeric" in err
    assert not out.exists()  # no partial output


def test_no_partial_file_on_failure(tmp_path, capsys):
    # same run twice: the second failing run must leave the first file intact
    out = tmp_path / "keep.svg"
    assert main(["--n", "3", "--state", "vac", "--samples", "10", "--out", str(out)]) == 0
    good = out.read_bytes()
    assert main(["--n", "3", "--state", "1e400 vac", "--samples", "10",
                 "--out", str(out)]) == 2
    capsys.readouterr()
    assert out.read_bytes() == good
    leftovers = [p for p in os.listdir(tmp_path) if p != "keep.svg"]
    assert leftovers == []


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "qchain", "--n", "3", "--state", "vac",
         "--samples", "10", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "n=3 state='vac'" in proc.stdout


def test_window_flag_respected(tmp_path):
    out = tmp_path / "w.svg"
    table = tmp_path / "w.csv"
    code = main(["--n", "3", "--state", "vac", "--samples", "40",
                 "--window", "1.25", "--out", str(out), "--dump-samples", str(table)])
    assert code == 0
    batch = load_samples(table.read_text())
    assert batch.spec.window == 1.25
    assert np.max(np.abs(batch.points)) <= 1.25


def test_phase_color_mode_flag(tmp_path):
    out = tmp_path / "p.svg"
    code = main(["--n", "3", "--state", "(a[1] + i a[-1]) vac", "--samples", "25",
                 "--color-mode", "phase_hue", "--out", str(out)])
    assert code == 0
    assert "color_mode=phase_hue" in out.read_text()


@pytest.mark.parametrize("argv", [
    ["--n", "1001", "--state", "a[1] vac", "--samples", "200"],  # every value underflows
    ["--n", "5", "--state", "a[1] vac - a[1] vac"],  # the null state
])
def test_all_zero_batch_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "zero.svg"
    table = tmp_path / "zero.csv"
    code = main(argv + ["--out", str(out), "--dump-samples", str(table)])
    err = capsys.readouterr().err
    assert code == 2
    assert "numeric error" in err
    assert list(tmp_path.iterdir()) == []  # no figure, no table


def test_long_product_of_operator_sums(tmp_path):
    src = " ".join(["(a[1] a[2] + a[-1])"] * 20) + " vac"
    table = tmp_path / "t.csv"
    code = main(["--n", "5", "--state", src, "--samples", "50",
                 "--out", str(tmp_path / "t.svg"), "--dump-samples", str(table)])
    assert code == 0
    batch = load_samples(table.read_text())
    params = ChainParams(n_sites=5)
    state, _ = build_state(src, params)
    ref = evaluate_batch(state, real_mode_basis(params), batch.points)
    assert np.max(np.abs(batch.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_thousand_distinct_creators_exit_2_not_traceback(tmp_path, capsys):
    src = " ".join(f"a[{k}]" for k in range(-500, 501)) + " vac"
    code = main(["--n", "1001", "--state", src, "--samples", "20",
                 "--out", str(tmp_path / "t.svg")])
    assert code == 2
    assert "numeric error: every sampled wavefunction value is zero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
