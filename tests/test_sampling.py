import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchain import sampling
from qchain.chain import ChainParams, real_mode_basis
from qchain.fock import apply_create, vacuum
from qchain.sampling import (
    RNG_ID,
    RenderSpec,
    SampleBatch,
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
    for window in (1e308, np.nextafter(np.finfo(float).max / 2, np.inf), 10**400):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            RenderSpec(window=window)  # uniform() cannot draw from a range of 2 * window
    assert RenderSpec(window=np.finfo(float).max / 2).window == np.finfo(float).max / 2
    with pytest.raises(ValueError):
        RenderSpec(seed=-1)
    with pytest.raises(ValueError):
        RenderSpec(seed=2**64)
    with pytest.raises(ValueError):
        RenderSpec(color_mode="rainbow")
    with pytest.raises(ValueError):
        RenderSpec(width=0)
    for width, height in ((40, 40), (74, 560), (900, 74)):  # no plot area inside the margins
        with pytest.raises(ValueError, match="canvas has no room for the plot"):
            RenderSpec(width=width, height=height)
    assert RenderSpec(width=75, height=75).width == 75
    assert RenderSpec(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("field, value", [("width", 900.5), ("height", 560.0), ("seed", 3.0),
                                          ("seed", True), ("sample_count", True),
                                          ("sample_count", 1.0)])
def test_render_spec_takes_integers_only(field, value):
    # each of these rendered, and its table failed to load with int()
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        RenderSpec(**{field: value})
    assert getattr(RenderSpec(**{field: np.int64(value)}), field) == int(value)  # numpy ints pass


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


def test_batch_checks_its_rules_at_construction():
    spec = RenderSpec(sample_count=3, window=3.0)
    points = np.array([[0.5, -3.0, 3.0], [1.0, 0.0, -1.0], [2.5, 2.0, -2.0]])
    values = np.array([1.0, -0.5j, 0.25 + 0.25j])
    SampleBatch(points, values, spec)  # every rule holds; the window edge is inside

    for q in (4.0, -4.0):  # a point outside the window, above or below it
        outside = points.copy()
        outside[1, 2] = q
        with pytest.raises(ValueError, match="outside the declared window"):
            SampleBatch(outside, values, spec)
    with pytest.raises(ValueError, match="batch has 3 samples, its spec 5"):
        SampleBatch(points, values, RenderSpec(sample_count=5, window=3.0))
    for bad_points, bad_values in ((points, values[:2]), (points[:, :0], values),
                                   (points[0], values[:1]), (points, values[:, None])):
        with pytest.raises(ValueError, match="are not"):  # mismatched or malformed shapes
            SampleBatch(bad_points, bad_values, spec)
    for row, cell in ((0, np.nan), (2, np.inf), (1, -np.inf)):
        broken = points.copy()
        broken[row, 1] = cell
        with pytest.raises(ValueError, match=f"row {row + 1}: non-finite cell"):
            SampleBatch(broken, values, spec)
        broken = values.copy()
        broken[row] = complex(0.0, cell)
        with pytest.raises(ValueError, match=f"row {row + 1}: non-finite cell"):
            SampleBatch(points, broken, spec)


def test_state_label_is_one_line():
    spec = RenderSpec(sample_count=1, window=1.0)
    for label in ("a\nb", "a\r", "\r\nvac"):
        with pytest.raises(ValueError, match="state_label must be one line"):
            SampleBatch(np.zeros((1, 3)), np.zeros(1, complex), spec, label)


def test_state_params_must_fit_the_record():
    spec = RenderSpec(sample_count=1, window=1.0)
    points, values = draw_samples(spec, 3), np.zeros(1, complex)
    good = (("mass", "2"), ("kappa", "0.5"), ("gamma", "1e-300"))
    assert SampleBatch(points, values, spec, "vac", good).state_params == good
    for params in ((("kappa", "1"), ("mass", "1")),  # out of record order
                   (("mass", "1"), ("mass", "1")),  # twice
                   (("n_sites", "3"),), (("state", "vac"),),  # not a state parameter
                   (("mass", "1, kappa=2"),), (("mass", "1; x"),), (("mass", "1\n"),),
                   (("mass", "a=b"),)):
        with pytest.raises(ValueError, match="cannot be recorded"):
            SampleBatch(points, values, spec, "vac", params)


def test_state_label_keeps_other_line_separators():
    # str.splitlines splits at these, and a header ends only at '\n'
    spec = RenderSpec(sample_count=1, window=1.0)
    batch = SampleBatch(draw_samples(spec, 3), np.zeros(1, complex), spec, "a\u2028b\x1c\x85 c, d")
    assert load_samples(dump_samples(batch)).state_label == batch.state_label


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def test_dump_load_round_trip_bitwise():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 1)
    spec = RenderSpec(sample_count=50, window=3.0, seed=21, color_mode="phase_hue")
    batch = sample_chain_state(state, basis, spec, state_label="(a[1] + i a[-1]) vac")
    text = dump_samples(batch)

    header = text.splitlines()[0]
    assert header.startswith("# qchain-samples v2, ")
    assert f"rng={RNG_ID}" in header
    assert "seed=21" in header
    assert header.endswith(", state=(a[1] + i a[-1]) vac")
    # the documented recipe regenerates the points, and the digest checks them
    points = np.random.Generator(np.random.PCG64(21)).uniform(-3.0, 3.0, (50, 5))
    digest = hashlib.sha256(points.astype("<f8").tobytes()).hexdigest()
    assert f", points_sha256={digest}, state=" in header
    assert len(text.splitlines()) == 51  # one row of two cells per sample

    back = load_samples(text)
    # bit patterns: np.array_equal counts -0.0 equal to 0.0
    assert np.array_equal(_bits(back.points), _bits(batch.points))
    assert np.array_equal(_bits(back.points), _bits(points))
    assert np.array_equal(_bits(back.values), _bits(batch.values))
    assert back.spec == batch.spec
    assert back.state_label == batch.state_label

    # dump of the loaded batch is byte-identical (stable 17-digit format)
    assert dump_samples(back) == text


_TINY = 5e-324  # smallest subnormal
_EDGE_VALUES = {
    "complex": [complex(-0.0, -0.0), complex(_TINY, -_TINY), complex(1e308, -1e308),
                complex(-1e-310, 0.0), complex(0.1, -0.0)],
    "real": [-0.0, _TINY, -1e308, 2.2e-308, 0.1],
}


def _table_batch(table, n_dims=3):
    """A batch whose rows are ``table``: n_dims coordinates, then Re and Im of the value."""
    table = np.asarray(table, dtype=float)
    spec = RenderSpec(sample_count=len(table), window=np.finfo(float).max / 2, seed=4)
    values = np.empty(len(table), complex)
    values.real, values.imag = table[:, n_dims], table[:, n_dims + 1]  # keeps -0.0 parts
    return SampleBatch(points=table[:, :n_dims], values=values, spec=spec, state_label="t")


def _drawn_batch(values, seed=4):
    """A batch of ``values`` at its spec's seeded draw: one that ``dump_samples`` writes."""
    spec = RenderSpec(sample_count=len(values), window=3.0, seed=seed)
    return SampleBatch(draw_samples(spec, 3), np.asarray(values, complex), spec, "t")


def _cell_batch(cells):
    """A drawn batch whose values are ``cells``, an (M, 2) table of Re and Im."""
    return _drawn_batch(np.ascontiguousarray(cells, float).view(complex)[:, 0])  # keeps -0.0


def _reference_values(text):
    """The values of a table's rows, one ``float`` call per cell."""
    rows = text.removesuffix("\n").split("\n")[1:]  # float() ignores a '\r' before the '\n'
    return np.array([complex(*map(float, row.split(","))) for row in rows], dtype=complex)


def _assert_loads_like_reference(batch):
    # the values beside the spec's draw, one '%.17g' per cell
    text = dump_samples(batch)
    rows = zip(batch.values.real.tolist(), batch.values.imag.tolist())
    assert text.partition("\n")[2] == "".join(f"{re:.17g},{im:.17g}\n" for re, im in rows)
    back = load_samples(text)
    assert np.array_equal(_bits(back.values), _bits(_reference_values(text)))
    assert np.array_equal(_bits(back.values), _bits(batch.values))
    assert np.array_equal(_bits(back.points), _bits(batch.points))


@pytest.mark.parametrize("kind", sorted(_EDGE_VALUES))
def test_reader_matches_per_cell_reference(kind):
    batch = _drawn_batch(_EDGE_VALUES[kind])
    assert dump_samples(batch).splitlines()[1].startswith("-0,")  # negative zeros survive
    _assert_loads_like_reference(batch)


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_reader_matches_per_cell_reference_on_any_finite_table(table):
    _assert_loads_like_reference(_cell_batch(table))


def _edge_cells():
    ulp = [np.nextafter(v, d) for v in (1e-5, 1e-4, 1e16, 1e17) for d in (0.0, np.inf)]
    powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    cells = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e16, 1e17, 1e23,
             1000000000000000.25, 1000000000000000.75, *ulp, *powers]  # two exact ties
    cells += [-c for c in cells]
    return np.array(cells)


def test_reader_matches_per_cell_reference_on_edges_and_random_bits():
    _assert_loads_like_reference(_cell_batch(_edge_cells().reshape(-1, 2)))
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2**64, size=(3000, 17), dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 0.5
    uniform = rng.uniform(-3.0, 3.0, size=(3000, 17))
    # 102000 cells of random bit patterns and of uniform draws
    _assert_loads_like_reference(_cell_batch(np.concatenate([bits, uniform]).reshape(-1, 2)))


def test_dump_uses_17_digit_floats():
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    spec = RenderSpec(sample_count=4, window=3.0, seed=2)
    batch = sample_chain_state(apply_create(vacuum(params), 1), basis, spec, state_label="a[1] vac")
    row = dump_samples(batch).splitlines()[1].split(",")
    assert len(row) == 2  # the value only: the points are redrawn
    for col, val in zip(row, (batch.values[0].real, batch.values[0].imag)):
        assert float(col) == val  # lossless round-trip


def test_dump_rejects_points_that_are_not_the_seeded_draw():
    batch = _drawn_batch([1.0, -0.5j, 0.25])
    nudged = batch.points.copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2], 0.0)
    other_seed = _drawn_batch(batch.values, seed=5).points
    for points in (nudged, other_seed):
        with pytest.raises(ValueError, match="^the table stores values only; its points must be "
                                             "the spec's seeded draw$"):
            dump_samples(SampleBatch(points, batch.values, batch.spec, "t"))


def test_v2_table_checks_its_points_digest():
    text = dump_samples(_drawn_batch([1.0, -0.5j, 0.25 + 0.5j], seed=11))
    digest = re.search(r", points_sha256=([0-9a-f]{64}),", text).group(1)
    wrong = text.replace(digest, hashlib.sha256(b"").hexdigest())
    for edited in (wrong, text.replace(", seed=11,", ", seed=12,")):
        with pytest.raises(ValueError, match=f"points numpy {re.escape(np.__version__)} draws"):
            load_samples(edited)
    with pytest.raises(ValueError, match="^sample table header has no points_sha256= field$"):
        load_samples(text.replace(f", points_sha256={digest}", ""))
    lines = text.splitlines()
    for cells, got in ((lines[2].split(",")[:1], 1), (lines[2].split(",") + ["0"], 3)):
        broken = lines[:2] + [",".join(cells)] + lines[3:]
        with pytest.raises(ValueError, match=f"^row 2: expected 2 columns, got {got}$"):
            load_samples("\n".join(broken) + "\n")


def test_v2_line_ends_and_unknown_fields_load_the_same():
    batch = _drawn_batch([1.0, -0.5j, 0.25 + 0.5j, -0.0], seed=12)
    text = dump_samples(batch)
    # a later writer may add key=value fields before state=
    extra = text.replace(", state=", ", mass=2, kappa=0.5, tool=qchain 9, state=")
    for odd in (text.replace("\n", "\r\n"), text.removesuffix("\n"), extra):
        back = load_samples(odd)
        assert np.array_equal(_bits(back.points), _bits(batch.points))
        assert np.array_equal(_bits(back.values), _bits(batch.values))
        assert (back.spec, back.state_label) == (batch.spec, batch.state_label)


def test_load_rejects_malformed_tables():
    with pytest.raises(ValueError, match="^not a qchain sample table$"):
        load_samples("not a table\n")
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    spec = RenderSpec(sample_count=3, window=3.0, seed=2)
    batch = sample_chain_state(vacuum(params), basis, spec, state_label="vac")
    # a v1 table, whose rows also held the points, is no longer read
    v1 = ("# qchain-samples v1, n_dims=1, samples=1, seed=0, window=3, mode=parallel_axes, "
          "color_mode=diverging_real, width=900, height=560, rng=numpy-PCG64, state=vac\n"
          "0.5,1,0\n")
    for v1 in (v1, v1.replace("\n", "\r\n")):
        with pytest.raises(ValueError, match="^qchain-samples v1 tables are no longer read"):
            load_samples(v1)
    good = dump_samples(batch)
    lines = good.splitlines()
    with pytest.raises(ValueError):
        load_samples("\n".join(lines[:-1]) + "\n")  # row count mismatch
    broken = lines[:]
    broken[1] = broken[1] + ",0"
    with pytest.raises(ValueError):
        load_samples("\n".join(broken) + "\n")  # column count mismatch
    broken[3] = broken[3].rpartition(",")[0]  # one column too few: the cell total is right
    with pytest.raises(ValueError, match="row 1: expected 2 columns, got 3"):
        load_samples("\n".join(broken) + "\n")
    # a non-numeric cell, an empty cell, and cells whose marks are out of order
    for cell in ("abc", "", "1.2.3", "1e5e5", "1e+5.5", "--1", "1e+"):
        broken = lines[:]
        broken[2] = ",".join([cell] + broken[2].split(",")[1:])
        with pytest.raises(ValueError):
            load_samples("\n".join(broken) + "\n")
    with pytest.raises(ValueError):  # another draw
        load_samples(good.replace("window=3", "window=0.1"))
    with pytest.raises(ValueError, match="^window must be positive and finite, got 1e"):
        load_samples(good.replace("window=3", "window=1e308"))  # a range of 2e308 overflows
    # a NaN in the first cell, an infinite imaginary part
    for row, col, cell in ((1, 0, "nan"), (3, 1, "inf")):
        broken = lines[:]
        cells = broken[row].split(",")
        cells[col] = cell
        broken[row] = ",".join(cells)
        with pytest.raises(ValueError, match=f"row {row}: non-finite cell"):
            load_samples("\n".join(broken) + "\n")
    with pytest.raises(ValueError):
        load_samples(good.replace("mode=parallel_axes", "mode=pie_chart"))  # unknown chart
    with pytest.raises(ValueError, match="chart type 'scatter2d' does not match n_dims=3"):
        load_samples(good.replace("mode=parallel_axes", "mode=scatter2d"))
    with pytest.raises(ValueError, match="generator 'mt19937' is not numpy-PCG64"):
        load_samples(good.replace("rng=numpy-PCG64", "rng=mt19937"))
    with pytest.raises(ValueError, match="missing the state label"):
        load_samples(good.replace(", state=vac", ""))
    for field in ("mode=parallel_axes", "height=560"):  # a header field is missing
        name = field.partition("=")[0]
        with pytest.raises(ValueError, match=f"no {name}= field"):
            load_samples(good.replace(", " + field, ""))
    header = lines[0].replace("n_dims=3", "n_dims={}").replace("samples=3", "samples=1")
    for n_dims in (0, -1):  # the redraw checks it
        with pytest.raises(ValueError, match="n_dims must be >= 1"):
            load_samples(header.format(n_dims) + "\n0.5,0.5\n")
    # a huge n_dims with a short row: the column error, without a row-sized buffer
    with pytest.raises(ValueError, match="^row 1: expected 2 columns, got 3$"):
        load_samples(header.format(10**12) + "\n0.5,1,0\n")


@pytest.mark.parametrize("n_dims", [10**19, 10**30])
def test_huge_n_dims_gives_the_column_error(n_dims):
    # the rows are read before anything is sized from n_dims
    header = dump_samples(_drawn_batch([0.5])).splitlines()[0]
    table = header.replace("n_dims=3", f"n_dims={n_dims}") + "\n0.5,1,0\n"
    with pytest.raises(ValueError, match="^row 1: expected 2 columns, got 3$"):
        load_samples(table)


@pytest.mark.parametrize("n_dims", [10**12, 10**19, 10**30])
def test_huge_n_dims_hits_the_point_cell_limit(n_dims):
    # well-formed rows: the limit fails the header before the redraw is sized
    header = dump_samples(_drawn_batch([0.5])).splitlines()[0]
    table = header.replace("n_dims=3", f"n_dims={n_dims}") + "\n0.5,1\n"
    with pytest.raises(ValueError, match=rf"^a draw holds at most {2**28} point cells "
                                         rf"\(samples x n_dims\), not 1 x {n_dims}$"):
        load_samples(table)


def test_dump_and_load_share_the_point_cell_limit(monkeypatch):
    assert 10 * 20000 * 1001 <= sampling._MAX_POINT_CELLS  # N=1001 at 20000 samples, and more
    batch = _drawn_batch([0.5, 1j, -0.25])  # 3 x 3 point cells
    text = dump_samples(batch)
    monkeypatch.setattr(sampling, "_MAX_POINT_CELLS", 8)
    for call, arg in ((dump_samples, batch), (load_samples, text)):
        with pytest.raises(ValueError, match=r"^a draw holds at most 8 point cells "
                                             r"\(samples x n_dims\), not 3 x 3$"):
            call(arg)
    monkeypatch.setattr(sampling, "_MAX_POINT_CELLS", 9)
    assert dump_samples(load_samples(text)) == text


def test_load_reads_what_float_reads():
    # line ends, a missing final newline and cells float() takes beyond the
    # canonical form all load as the per-cell reader loads them
    rng = np.random.default_rng(5)
    table = rng.uniform(-3.0, 3.0, size=(40, 5))
    odd_cells = ["+1.5", "1E5", " 1.5", "1_0", "1.5 ", "0001.50", "1e5"]
    lines = dump_samples(_drawn_batch(table[:, 3] + 1j * table[:, 4])).splitlines()
    for i, cell in enumerate(odd_cells):
        cells = lines[i + 1].split(",")
        cells[i % 2] = cell
        lines[i + 1] = ",".join(cells)
    for odd in ("\r\n".join(lines) + "\r\n", "\n".join(lines)):
        back = load_samples(odd)
        assert np.array_equal(_bits(back.values), _bits(_reference_values(odd)))
        assert back.values[0].real == 1.5 and back.values[3].imag == 10.0  # "+1.5" and "1_0"


@pytest.mark.parametrize("rows", [(10, 20), (3000, 3500)])
def test_load_raises_the_first_error_in_row_order(rows):
    table = np.random.default_rng(6).uniform(-3.0, 3.0, size=(4000, 5))
    lines = dump_samples(_cell_batch(table[:, 3:])).splitlines()
    messages = {"cell": "could not convert string to float: 'abc'",
                "columns": "expected 2 columns, got 3"}
    for first, second in (("cell", "columns"), ("columns", "cell")):
        broken = lines[:]
        for kind, row in zip((first, second), rows):
            cells = broken[row].split(",")
            cells = ["abc"] + cells[1:] if kind == "cell" else cells + ["0"]
            broken[row] = ",".join(cells)
        with pytest.raises(ValueError) as info:
            load_samples("\n".join(broken) + "\n")
        assert messages[first] in str(info.value)
        if first == "columns":
            assert str(info.value) == f"row {rows[0]}: expected 2 columns, got 3"


def test_dump_rejects_non_finite_cells():
    table = np.random.default_rng(7).uniform(-1.0, 1.0, size=(4, 5))
    for row, col, cell in ((1, 0, np.nan), (3, 3, np.inf), (2, 4, -np.inf)):
        broken = table.copy()
        broken[row, col] = cell
        with pytest.raises(ValueError, match=f"row {row + 1}: non-finite cell"):
            dump_samples(_table_batch(broken))


def test_non_finite_window_is_rejected():
    for window in (np.inf, np.nan):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            RenderSpec(window=window)
    text = dump_samples(_drawn_batch([0.5 + 0.5j] * 2))
    with pytest.raises(ValueError, match="window must be positive and finite"):
        load_samples(text.replace(", window=3,", ", window=inf,"))


def test_reader_splits_rows_only_at_newlines():
    batch = _cell_batch(np.random.default_rng(9).uniform(-3.0, 3.0, size=(8000, 5))[:, 3:])
    text = dump_samples(batch)
    lines = text.splitlines()
    for odd in (text, "\r\n".join(lines) + "\r\n", "\n".join(lines)):
        back = load_samples(odd)
        ref_values = _reference_values(odd)
        assert len(ref_values) == 8000
        assert np.array_equal(_bits(back.points), _bits(batch.points))
        assert np.array_equal(_bits(back.values), _bits(ref_values))
    # a row ends only at '\n': other line ends leave one row of every cell
    for end in ("\r", "\x1c"):
        with pytest.raises(ValueError, match="^expected 8000 rows, found 1$"):
            load_samples(lines[0] + "\n" + end.join(lines[1:]) + end)


def test_load_checks_the_row_count_first():
    table = np.random.default_rng(10).uniform(-3.0, 3.0, size=(8000, 5))
    lines = dump_samples(_cell_batch(table[:, 3:])).splitlines()
    lines[3] = "abc" + lines[3][lines[3].index(","):]  # a bad cell in an early row
    for rows, found in ((lines[:-1], 7999), (lines + lines[5:6], 8001)):
        with pytest.raises(ValueError, match=f"^expected 8000 rows, found {found}$"):
            load_samples("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="^expected 1000000000000000 rows, found 3$"):
        load_samples("\n".join(lines[:4]).replace("samples=8000", "samples=1000000000000000"))
    # too little text for a valid table of this many rows: the first bad cell is named
    short = "\n".join(lines[:1] + [",", ","]).replace("samples=8000", "samples=2")
    with pytest.raises(ValueError, match="^could not convert string to float: ''$"):
        load_samples(short)


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
