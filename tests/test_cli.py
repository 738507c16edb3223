import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qchain import expr
from qchain.chain import ChainParams, real_mode_basis
from qchain.cli import PRESETS, main
from qchain.expr import build_state, evaluate_expr, parse_state_expr
from qchain.fock import dump_state
from qchain.sampling import RenderSpec, chain_window, load_samples, sample_chain_state
from qchain.wavefunction import evaluate_batch
from sample_ids import element_ids, shown_ids


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
    out, table = tmp_path / "chain.svg", tmp_path / "chain.csv"
    code = main(["--n", "5", "--state", "a[0] vac", "--samples", "100",
                 "--seed", "3", "--out", str(out), "--dump-samples", str(table)])
    assert code == 0
    text = out.read_text()
    assert text.startswith('<?xml version="1.0"')
    shown = shown_ids(load_samples(table.read_text()))
    assert text.count("<polyline") == len(shown)
    assert element_ids(text, "polyline") == shown
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


def test_dump_state_flag(tmp_path, monkeypatch):
    out = tmp_path / "o.svg"
    dump = tmp_path / "state.txt"
    walks, state_poly = [], expr._state_poly

    def counting_walk(node, params):
        walks.append(node)
        return state_poly(node, params)

    monkeypatch.setattr(expr, "_state_poly", counting_walk)
    code = main(["--n", "5", "--state", "b[2] vac", "--samples", "10",
                 "--out", str(out), "--dump-state", str(dump)])
    assert code == 0
    assert len(walks) == 1  # the dump expands the state the run built
    monkeypatch.undo()
    state = evaluate_expr(parse_state_expr("b[2] vac", 5), ChainParams(n_sites=5))
    assert dump.read_text() == dump_state(state)


LIBRARY_CASES = [pytest.param(p["n"], p["state"], "diverging_real", id=name)
                 for name, p in PRESETS.items() if not p.get("mode2d")]
LIBRARY_CASES.append(pytest.param(15, "(a[1] + i a[-1]) vac", "phase_hue", id="phase_hue"))


@pytest.mark.parametrize("n, src, color_mode", LIBRARY_CASES)
def test_library_values_bit_identical_to_cli(n, src, color_mode, tmp_path):
    table = tmp_path / "t.csv"
    code = main(["--n", str(n), "--state", src, "--samples", "2000", "--seed", "0",
                 "--color-mode", color_mode, "--out", str(tmp_path / "t.svg"),
                 "--dump-samples", str(table)])
    assert code == 0
    cli_batch = load_samples(table.read_text())

    params = ChainParams(n_sites=n)
    basis = real_mode_basis(params)
    state, label = build_state(src, params)
    spec = RenderSpec(sample_count=2000, window=chain_window(basis), seed=0,
                      color_mode=color_mode)
    batch = sample_chain_state(state, basis, spec, state_label=label)
    assert batch.spec == cli_batch.spec and batch.state_label == cli_batch.state_label
    assert np.array_equal(batch.points.view(np.uint64), cli_batch.points.view(np.uint64))
    assert np.array_equal(batch.values.view(np.uint64), cli_batch.values.view(np.uint64))


def test_mode2d_preset(tmp_path):
    out, table = tmp_path / "fig1.svg", tmp_path / "fig1.csv"
    code = main(["fig1", "--samples", "60", "--out", str(out), "--dump-samples", str(table)])
    assert code == 0
    text = out.read_text()
    shown = shown_ids(load_samples(table.read_text()))
    assert text.count("<circle") == len(shown)
    assert element_ids(text, "circle") == shown
    assert "state=oscillator2d nu=(2,1)" in text


def test_mode2d_high_order_draws(tmp_path, capsys):
    # H_300 overflows a double at the window's edge; the normalized Wick
    # power stays finite, so the figure is drawn instead of exiting 2
    out, table = tmp_path / "high.svg", tmp_path / "high.csv"
    code = main(["--mode2d", "--nu1", "300", "--nu2", "1", "--out", str(out),
                 "--dump-samples", str(table)])
    assert code == 0, capsys.readouterr().err
    batch = load_samples(table.read_text())
    values = batch.values
    text = out.read_text()
    shown = shown_ids(batch)
    assert text.count("<circle") == len(shown)
    assert element_ids(text, "circle") == shown
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
        ["--n", "3", "--state", "vac", "--samples", "5", "--width", "40", "--height", "40"],
        ["--mode2d", "--gamma", "nan", "--samples", "10"],  # the 2D oscillator has no coupling
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()  # swallow the diagnostics
        assert code == 1, argv
    # non-finite oscillator parameters are named in the message
    named = [
        (["--mode2d", "--mass", "nan"], "mass"),
        (["--mode2d", "--kappa", "inf"], "kappa"),
        (["--n", "3", "--state", "vac", "--mass", "inf"], "mass"),
        (["--n", "3", "--state", "vac", "--kappa", "nan"], "kappa"),
        (["--n", "3", "--state", "vac", "--gamma", "nan"], "gamma"),
        (["--n", "3", "--state", "vac", "--gamma", "inf"], "gamma"),
    ]
    for argv, name in named:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert f"{name} must be" in err and "finite" in err, (argv, err)
    # finite parameters whose mode frequencies leave the range of a double
    spectrum = [
        ["--n", "3", "--state", "vac", "--mass", "1e-320"],
        ["--n", "3", "--state", "vac", "--gamma", "1e308"],
        ["--n", "3", "--state", "vac", "--kappa", "1e-320", "--mass", "1e300"],
        ["--mode2d", "--mass", "1e-320"],
    ]
    for argv in spectrum:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "mass=" in err and "kappa=" in err, (argv, err)
        assert ("gamma=" in err) != ("--mode2d" in argv), (argv, err)  # 2D has no gamma
        assert "window" not in err, (argv, err)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the run could fail")


@pytest.mark.parametrize("flag, value", [("--out", ""), ("--dump-samples", ""),
                                         ("--dump-state", ""), ("--window", "inf"),
                                         ("--window", "nan"), ("--window", "1e308"),
                                         ("--state", "1e400 vac"),
                                         ("--state", "1e200 1e200 vac")])
def test_empty_path_or_non_finite_window_exits_1_before_sampling(flag, value, tmp_path,
                                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qchain.cli.sample_chain_state", _no_sampling)
    code = main(["--n", "3", "--state", "vac", "--samples", "10", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert "qchain: error:" in err and flag.lstrip("-") in err
    assert list(tmp_path.iterdir()) == []


def test_chain_run_builds_mode_basis_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(params):
        calls.append(params)
        return real_mode_basis(params)

    monkeypatch.setattr("qchain.cli.real_mode_basis", counting)
    assert main(["--n", "3", "--state", "a[1] vac", "--samples", "10",
                 "--out", str(tmp_path / "b.svg")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.fixture
def nothing_built(monkeypatch):
    # an output path the run cannot write is refused before any of these is called
    def refuse(*args, **kwargs):
        raise AssertionError("built or sampled before the output paths were checked")

    for name in ("build_state", "real_mode_basis", "_oscillator2d_frequency", "expand_state",
                 "sample_chain_state", "sample_oscillator2d"):
        monkeypatch.setattr(f"qchain.cli.{name}", refuse)


def test_io_error_exits_3(tmp_path, capsys, nothing_built):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.svg"
    code = main(["--n", "3", "--state", "vac", "--samples", "10",
                 "--out", str(missing_dir)])
    err = capsys.readouterr().err
    assert code == 3
    # one line naming the requested path, not a staged temp file
    assert err.count("\n") == 1 and err.startswith("qchain: i/o error: ")
    assert repr(str(missing_dir)) in err and ".qchain-" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--dump-state", "--dump-samples"])
def test_failed_extra_output_leaves_no_file(tmp_path, capsys, nothing_built, flag):
    # the extra output's missing directory fails the run before anything is built
    code = main(["--n", "3", "--state", "vac", "--samples", "10",
                 "--out", str(tmp_path / "chain.svg"), flag, str(tmp_path / "no" / "such.txt")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--n", "6001", "--state", "vac", "--samples", "10"],
    ["--n", "31", "--state", "b[1] b[2] b[3] b[4] b[5] b[6] vac", "--dump-state", "state.txt"],
    ["--n", "3", "--state", "vac", "--samples", str(10**12)],
    ["--mode2d", "--nu1", "3"],
    ["--n", "3", "--state", "vac +"],
], ids=["n6001", "dump_state_over_bound", "samples_1e12", "mode2d", "bad_expression"])
def test_missing_directory_exits_3_before_the_run_could_fail(argv, tmp_path, monkeypatch,
                                                              capsys, nothing_built):
    # each of these runs fails or takes long once it starts; the path is refused first
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "nodir" / "x.svg"
    assert main(argv + ["--out", str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("qchain: i/o error: ")
    assert repr(str(missing)) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("first, second", [("--out", "--dump-samples"),
                                           ("--out", "--dump-state"),
                                           ("--dump-samples", "--dump-state")])
def test_two_outputs_naming_one_file_exit_1_before_sampling(first, second, tmp_path,
                                                            monkeypatch, capsys):
    # one output would overwrite the other: the run refuses, whatever the spelling
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qchain.cli.sample_chain_state", _no_sampling)
    code = main(["--n", "3", "--state", "vac", "--samples", "10",
                 first, "x", second, str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (f"qchain: error: {first} and {second} name the same "
                                       f"file '{tmp_path / 'x'}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--dump-state", "--dump-samples"])
def test_directory_target_exits_3_and_leaves_no_file(tmp_path, capsys, nothing_built, flag):
    # the figure comes first among the outputs; a later target that is a directory
    # still fails the run before anything is built
    (tmp_path / "adir").mkdir()
    code = main(["--n", "3", "--state", "vac", "--samples", "10",
                 "--out", str(tmp_path / "chain.svg"), flag, str(tmp_path / "adir")])
    assert code == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and "Is a directory" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["adir"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_outputs_take_the_mode_of_a_new_file(umask, mode, tmp_path, capsys):
    paths = [tmp_path / name for name in ("chain.svg", "samples.txt", "state.txt")]
    old = os.umask(umask)
    try:
        code = main(["--n", "3", "--state", "a[1] vac", "--samples", "10",
                     "--out", str(paths[0]), "--dump-samples", str(paths[1]),
                     "--dump-state", str(paths[2])])
    finally:
        os.umask(old)
    capsys.readouterr()
    assert code == 0
    assert [oct(p.stat().st_mode & 0o777) for p in paths] == [oct(mode)] * 3


def test_numeric_error_exits_2(tmp_path, capsys):
    # a finite amplitude of 1e308 overflows the values to infinity, which the
    # sample batch rejects; 10**12 samples of 3 sites exceed the point-cell
    # limit of every draw, before anything is allocated
    limit = rf"^qchain: numeric error: a draw holds at most {2**28} point cells "
    for state, samples, message in (
            ("1e308 a[0] a[0] a[0] vac", "10", "row 1: non-finite cell"),
            ("vac", str(10**12), limit + rf"\(samples x n_dims\), not {10**12} x 3\n$")):
        code = main(["--n", "3", "--state", state, "--samples", samples,
                     "--out", str(tmp_path / "x.svg"), "--dump-samples", str(tmp_path / "x.csv"),
                     "--dump-state", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "numeric" in err and re.search(message, err), err
        assert list(tmp_path.iterdir()) == []  # no figure, no table, no state dump


def test_state_dump_beyond_the_expansion_bound_exits_2(tmp_path, monkeypatch, capsys):
    # the expansion is refused before the draw, whatever the sample count
    monkeypatch.setattr("qchain.fock._MAX_EXPANSION", 24)
    monkeypatch.setattr("qchain.cli.sample_chain_state", _no_sampling)
    code = main(["--n", "5", "--state", "b[2] b[1] vac", "--samples", "10",
                 "--out", str(tmp_path / "x.svg"), "--dump-state", str(tmp_path / "x.txt")])
    assert code == 2
    assert capsys.readouterr().err == ("qchain: numeric error: expanding 5 occupation terms over 5 "
                                       "modes exceeds the bound of 24 term-mode pairs\n")
    assert list(tmp_path.iterdir()) == []


def test_state_dump_beyond_the_bound_exits_2_before_any_creation(tmp_path, monkeypatch,
                                                                  capsys):
    # b[1] ... b[6] vac at N=31 is refused before b[1] is applied
    def no_creation(*args):
        raise AssertionError("created before the expansion could be refused")

    monkeypatch.setattr("qchain.fock.apply_creator", no_creation)
    monkeypatch.setattr("qchain.cli.sample_chain_state", _no_sampling)
    code = main(["--n", "31", "--state", "b[1] b[2] b[3] b[4] b[5] b[6] vac",
                 "--out", str(tmp_path / "x.svg"), "--dump-state", str(tmp_path / "x.txt")])
    assert code == 2
    assert capsys.readouterr().err == ("qchain: numeric error: expanding 324632 occupation terms "
                                       "over 31 modes exceeds the bound of 2000000 term-mode "
                                       "pairs\n")
    assert list(tmp_path.iterdir()) == []


def test_mode_basis_beyond_the_cell_bound_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("qchain.chain._MAX_POINT_CELLS", 24)
    monkeypatch.setattr("qchain.cli.sample_chain_state", _no_sampling)
    code = main(["--n", "5", "--state", "vac", "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert capsys.readouterr().err == ("qchain: error: a mode basis holds at most 24 cells "
                                       "(N x N), not 5 x 5\n")
    assert list(tmp_path.iterdir()) == []


def test_numeric_error_is_one_line(tmp_path, capsys):
    # squaring coordinates near 1e200 overflows: the run reports its failure
    # itself, without numpy's warning, and leaves numpy's settings as they were
    before = np.geterr()
    code = main(["--n", "3", "--state", "vac", "--window", "1e200", "--samples", "10",
                 "--out", str(tmp_path / "x.svg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("qchain: numeric error: ") and err.count("\n") == 1, err
    assert np.geterr() == before


def test_no_partial_file_on_failure(tmp_path, capsys):
    # same run twice: the second failing run must leave the first file intact
    out = tmp_path / "keep.svg"
    assert main(["--n", "3", "--state", "vac", "--samples", "10", "--out", str(out)]) == 0
    good = out.read_bytes()
    assert main(["--n", "3", "--state", "1e308 a[0] a[0] a[0] vac", "--samples", "10",
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
    code = main(argv + ["--out", str(out), "--dump-samples", str(table),
                        "--dump-state", str(tmp_path / "zero.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "numeric error" in err
    assert list(tmp_path.iterdir()) == []  # no figure, no table, no state dump


def test_zero_scalar_state_exits_2(tmp_path, capsys):
    code = main(["--n", "5", "--state", "0 vac", "--out", str(tmp_path / "zero.svg"),
                 "--dump-samples", str(tmp_path / "zero.csv"),
                 "--dump-state", str(tmp_path / "zero.txt")])
    assert code == 2
    assert "numeric error: every sampled wavefunction value is zero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_long_product_of_operator_sums(tmp_path):
    src = " ".join(["(a[1] a[2] + a[-1])"] * 20) + " vac"
    table = tmp_path / "t.csv"
    code = main(["--n", "5", "--state", src, "--samples", "50",
                 "--out", str(tmp_path / "t.svg"), "--dump-samples", str(table)])
    assert code == 0
    batch = load_samples(table.read_text())
    params = ChainParams(n_sites=5)
    # reference from the occupation-term expansion, not the CLI's creator form
    state = evaluate_expr(parse_state_expr(src, 5), params)
    ref = evaluate_batch(state, real_mode_basis(params), batch.points)
    assert np.max(np.abs(batch.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_thousand_distinct_creators_exit_2_not_traceback(tmp_path, capsys):
    src = " ".join(f"a[{k}]" for k in range(-500, 501)) + " vac"
    code = main(["--n", "1001", "--state", src, "--samples", "20",
                 "--out", str(tmp_path / "t.svg")])
    assert code == 2
    assert "numeric error: every sampled wavefunction value is zero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_deep_nesting_is_an_expression_error(tmp_path, capsys):
    # 100 levels parse; the 101st '(' is reported, not a RecursionError
    assert parse_state_expr("(" * 100 + "vac" + ")" * 100, 3) == parse_state_expr("vac", 3)
    src = "(" * 350 + "vac" + ")" * 350
    with pytest.raises(expr.StateExprError, match=r"nested deeper than 100 levels") as err:
        parse_state_expr(src, 3)
    assert err.value.pos == 100
    code = main(["--n", "3", "--state", src, "--samples", "10", "--out", str(tmp_path / "x.svg")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("qchain: error: ") and err.endswith("(position 100)\n"), err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
