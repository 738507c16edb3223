import numpy as np
import pytest

from qchain.chain import ChainParams, real_mode_basis
from qchain.fock import apply_create, vacuum
from qchain.sampling import (
    RNG_ID,
    RenderSpec,
    chain_window,
    default_window,
    draw_samples,
    dump_samples,
    load_samples,
    sample_chain_state,
    sample_oscillator2d,
)
from qchain.wavefunction import evaluate, evaluate_oscillator2d


def test_render_spec_validation():
    RenderSpec()  # defaults are valid
    with pytest.raises(ValueError):
        RenderSpec(sample_count=0)
    with pytest.raises(ValueError):
        RenderSpec(window=0.0)
    with pytest.raises(ValueError):
        RenderSpec(window=-1.0)
    with pytest.raises(ValueError):
        RenderSpec(seed=-1)
    with pytest.raises(ValueError):
        RenderSpec(seed=2**64)
    with pytest.raises(ValueError):
        RenderSpec(color_mode="rainbow")
    with pytest.raises(ValueError):
        RenderSpec(width=0)
    assert RenderSpec(seed=2**64 - 1).seed == 2**64 - 1


def test_default_window_tracks_widest_mode():
    # window = 3 / sqrt(m * Omega_min)
    assert default_window([1.0, 4.0], 1.0) == pytest.approx(3.0)
    assert default_window([0.25], 1.0) == pytest.approx(6.0)
    assert default_window([2.0], 2.0) == pytest.approx(1.5)

    basis = real_mode_basis(ChainParams(n_sites=15))
    assert chain_window(basis) == pytest.approx(3.0)  # Omega_0 = 1 is the softest


def test_draw_samples_deterministic_and_bounded():
    spec = RenderSpec(sample_count=5000, window=2.5, seed=123)
    a = draw_samples(spec, 7)
    b = draw_samples(spec, 7)
    assert np.array_equal(a, b)
    assert a.shape == (5000, 7)
    assert np.all(np.abs(a) <= 2.5)

    c = draw_samples(RenderSpec(sample_count=5000, window=2.5, seed=124), 7)
    assert not np.array_equal(a, c)

    with pytest.raises(ValueError):
        draw_samples(spec, 0)


def test_draw_samples_moments():
    # uniform on [-L, L]: mean 0, variance L^2/3; with M = 2e4 the standard
    # error of the mean is L/sqrt(3 M) ~ 0.004 L
    spec = RenderSpec(sample_count=20000, window=1.5, seed=7)
    pts = draw_samples(spec, 3).ravel()
    assert abs(pts.mean()) < 4.0 * 1.5 / np.sqrt(3.0 * pts.size)
    assert abs(pts.var() / (1.5**2 / 3.0) - 1.0) < 0.02


def test_sample_chain_state_shapes():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 0)
    spec = RenderSpec(sample_count=64, window=3.0, seed=9)
    batch = sample_chain_state(state, basis, spec, state_label="a[0] vac")
    assert batch.points.shape == (64, 5)
    assert batch.values.shape == (64,)
    assert batch.n_dims == 5
    # spot-check one value against the single-point evaluator
    assert batch.values[17] == pytest.approx(evaluate(state, basis, batch.points[17]), rel=1e-12)


def test_sample_oscillator2d_label_and_values():
    spec = RenderSpec(sample_count=32, window=6.0, seed=3)
    batch = sample_oscillator2d(2, 1, 1.0, 1.0, spec)
    assert batch.state_label == "oscillator2d nu=(2,1)"
    ref = evaluate_oscillator2d(2, 1, 1.0, 1.0, batch.points)
    assert np.array_equal(batch.values, ref)


def test_dump_load_round_trip_bitwise():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 1)
    spec = RenderSpec(sample_count=50, window=3.0, seed=21, color_mode="phase_hue")
    batch = sample_chain_state(state, basis, spec, state_label="(a[1] + i a[-1]) vac")
    text = dump_samples(batch)

    header = text.splitlines()[0]
    assert header.startswith("# qchain-samples v1, ")
    assert f"rng={RNG_ID}" in header
    assert "seed=21" in header
    assert "state=(a[1] + i a[-1]) vac" in header

    back = load_samples(text)
    assert np.array_equal(back.points, batch.points)
    assert np.array_equal(back.values, batch.values)
    assert back.spec == batch.spec
    assert back.state_label == batch.state_label

    # dump of the loaded batch is byte-identical (stable 17-digit format)
    assert dump_samples(back) == text


def test_dump_uses_17_digit_floats():
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    spec = RenderSpec(sample_count=4, window=3.0, seed=2)
    batch = sample_chain_state(vacuum(params), basis, spec, state_label="vac")
    row = dump_samples(batch).splitlines()[1].split(",")
    assert len(row) == 3 + 2
    for col, val in zip(row, batch.points[0]):
        assert float(col) == val  # lossless round-trip


def test_load_rejects_malformed_tables():
    with pytest.raises(ValueError):
        load_samples("not a table\n")
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    spec = RenderSpec(sample_count=3, window=3.0, seed=2)
    good = dump_samples(sample_chain_state(vacuum(params), basis, spec, state_label="vac"))

    lines = good.splitlines()
    with pytest.raises(ValueError):
        load_samples("\n".join(lines[:-1]) + "\n")  # row count mismatch
    broken = lines[:]
    broken[1] = broken[1] + ",0"
    with pytest.raises(ValueError):
        load_samples("\n".join(broken) + "\n")  # column count mismatch
    with pytest.raises(ValueError):
        load_samples(good.replace("window=3", "window=0.1"))  # points outside window
    with pytest.raises(ValueError):
        load_samples(good.replace("mode=parallel_axes", "mode=pie_chart"))  # unknown chart
    for field in ("mode=parallel_axes", "height=560"):  # a header field is missing
        name = field.partition("=")[0]
        with pytest.raises(ValueError, match=f"no {name}= field"):
            load_samples(good.replace(", " + field, ""))
    header = lines[0].replace("n_dims=3", "n_dims={}").replace("samples=3", "samples=1")
    for n_dims in (0, -1):  # one row with n_dims + 2 columns
        table = header.format(n_dims) + "\n" + ",".join(["0.5"] * (n_dims + 2)) + "\n"
        with pytest.raises(ValueError, match="n_dims must be >= 1"):
            load_samples(table)


def test_corner_amplitude_negligible_for_decoupled_small_chains():
    # at the default window the corner of the box is deep in the Gaussian
    # tail: |psi(corner)| < 1e-3 |psi(0)| for gamma = 0 chains with N >= 3
    # (at N = 1 a 3 sigma excursion only reaches e^{-4.5} ~ 1e-2) and for
    # the 2D oscillator
    params = ChainParams(n_sites=3, gamma=0.0)
    basis = real_mode_basis(params)
    v = vacuum(params)
    window = chain_window(basis)
    corner = np.full(3, window)
    ratio = abs(evaluate(v, basis, corner)) / abs(evaluate(v, basis, np.zeros(3)))
    assert ratio < 1e-3

    window2d = default_window([1.0], 1.0)
    val_corner = evaluate_oscillator2d(0, 0, 1.0, 1.0, np.array([[window2d, window2d]]))[0]
    val_center = evaluate_oscillator2d(0, 0, 1.0, 1.0, np.zeros((1, 2)))[0]
    assert abs(val_corner) / abs(val_center) < 1e-3
