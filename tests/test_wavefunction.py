import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_hermite

from qchain.chain import ChainParams, creator_vector, real_mode_basis
from qchain.cli import PRESETS
from qchain.expr import build_state, creator_state, evaluate_expr, parse_state_expr
from qchain.fock import (
    FockState,
    apply_create,
    apply_create_local,
    apply_creator,
    linear_combine,
    vacuum,
)
from qchain.sampling import RenderSpec, chain_window, draw_samples
from qchain import wavefunction
from qchain.wavefunction import (
    _evaluate,
    _wick_plan,
    evaluate,
    evaluate_batch,
    evaluate_oscillator2d,
    hamiltonian_residual,
)

# 2D oscillator at m = 1.5, kappa = 6: Omega = 2, m*Omega = 3
MASS, KAPPA, M_OMEGA = 1.5, 6.0, 3.0


def _phi(order, m_omega, x):
    """Normalized 1D oscillator eigenfunction from scipy's Hermite polynomials."""
    x = np.asarray(x, dtype=float)
    y = math.sqrt(m_omega) * x
    norm = (m_omega / math.pi) ** 0.25 / math.sqrt(2.0**order * math.factorial(order))
    return norm * eval_hermite(order, y) * np.exp(-0.5 * y * y)


def _on_q1_axis(order, x, mass=MASS, kappa=KAPPA):
    """psi_(order, 0)(x, 0) of the 2D oscillator, for scalar or array x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return evaluate_oscillator2d(order, 0, mass, kappa, np.column_stack([x, np.zeros_like(x)]))


def test_hermite_small_orders():
    # psi_(n,0)(x, 0) / psi_(0,0)(x, 0) = H_n(x) / sqrt(2^n n!) at m = kappa = 1
    def ratio(order, x):
        return (_on_q1_axis(order, x, 1.0, 1.0) / _on_q1_axis(0, x, 1.0, 1.0))[0].real

    assert ratio(0, 0.7) == 1.0
    assert ratio(1, 0.7) == pytest.approx(1.4 / math.sqrt(2.0))
    assert ratio(2, 1.0) == pytest.approx(2.0 / math.sqrt(8.0))  # 4x^2 - 2
    assert ratio(3, 0.0) == 0.0


def test_hermite_matches_scipy():
    xs = np.linspace(-4.0, 4.0, 81)
    for order in range(0, 12):
        ref = _phi(order, M_OMEGA, xs) * _phi(0, M_OMEGA, 0.0)
        got = _on_q1_axis(order, xs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_eigenfunction_ground_state_value():
    # psi_00(0, 0) = phi_0(0)^2 = (m*Omega/pi)^(1/2)
    assert evaluate_oscillator2d(0, 0, 1.0, 1.0, np.zeros((1, 2)))[0] == pytest.approx(
        math.pi ** -0.5)
    assert evaluate_oscillator2d(0, 0, MASS, KAPPA, np.zeros((1, 2)))[0] == pytest.approx(
        (M_OMEGA / math.pi) ** 0.5)


@pytest.mark.parametrize("order", [0, 1, 2, 4, 6])
def test_eigenfunction_normalized(order):
    # along q2 = 0 the integral of |psi_(order,0)|^2 is phi_0(0)^2 = sqrt(m*Omega/pi)
    total, _ = quad(lambda x: abs(_on_q1_axis(order, x)[0]) ** 2, -np.inf, np.inf)
    assert total / math.sqrt(M_OMEGA / math.pi) == pytest.approx(1.0, abs=1e-8)


def test_eigenfunction_orthogonal():
    val, _ = quad(lambda x: (_on_q1_axis(0, x) * _on_q1_axis(2, x))[0].real, -np.inf, np.inf)
    assert abs(val) < 1e-10


@pytest.mark.parametrize("order", [150, 300, 400])
def test_oscillator2d_normalized_at_high_order(order):
    # H_order overflows a double long before order 300; the normalized Wick
    # power does not.  The grid covers 8 oscillator lengths past the turning
    # point, beyond which |psi|^2 is far below the tolerance.
    edge = (math.sqrt(2.0 * order + 1.0) + 8.0) / math.sqrt(M_OMEGA)
    xs, h = np.linspace(-edge, edge, 20001, retstep=True)
    vals = _on_q1_axis(order, xs)
    assert np.all(np.isfinite(vals))
    total = float(np.sum(np.abs(vals) ** 2)) * h
    assert abs(total - math.sqrt(M_OMEGA / math.pi)) <= 1e-10


def test_vacuum_value_and_batch_consistency():
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    v = vacuum(params)
    # product of per-mode ground-state prefactors, frequencies (2, 1, 2)
    expected = (2.0 / math.pi) ** 0.25 * (1.0 / math.pi) ** 0.25 * (2.0 / math.pi) ** 0.25
    assert evaluate(v, basis, np.zeros(3)) == pytest.approx(expected, rel=1e-14)

    pts = np.random.default_rng(11).uniform(-2, 2, size=(40, 3))
    batch = evaluate_batch(v, basis, pts)
    for i in range(40):
        single = evaluate(v, basis, pts[i])
        assert abs(single - batch[i]) <= 1e-12 * max(1.0, abs(batch[i]))


def test_values_real_for_real_amplitudes():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    state = apply_create_local(vacuum(params), 3)
    pts = np.random.default_rng(0).uniform(-3, 3, size=(200, 5))
    vals = evaluate_batch(state, basis, pts)
    assert np.max(np.abs(vals.imag)) < 1e-14


def test_linearity_in_amplitudes():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    v = vacuum(params)
    a = apply_create(v, 1)
    b = apply_create(apply_create(v, -2), -2)
    combo = linear_combine([(0.3, a), (-1.25j, b)])
    pts = np.random.default_rng(5).uniform(-3, 3, size=(64, 5))
    lhs = evaluate_batch(combo, basis, pts)
    rhs = 0.3 * evaluate_batch(a, basis, pts) - 1.25j * evaluate_batch(b, basis, pts)
    scale = np.maximum(np.abs(lhs).max(), 1e-30)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_one_quantum_sign_along_uniform_displacement():
    # a_0 on the vacuum: psi proportional to Q_0 times a positive Gaussian,
    # and a uniform displacement c puts Q_0 = c*sqrt(N)
    params = ChainParams(n_sites=15)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 0)
    for c in np.linspace(-2.5, 2.5, 21):
        if c == 0:
            continue
        val = evaluate(state, basis, np.full(15, c))
        assert val.imag == 0
        assert math.copysign(1.0, val.real) == math.copysign(1.0, c)


def test_localized_quantum_sign_decoupled_sites():
    # gamma = 0 decouples the sites; b_5 then multiplies the vacuum by q_5
    params = ChainParams(n_sites=11, gamma=0.0)
    basis = real_mode_basis(params)
    state = apply_create_local(vacuum(params), 5)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-3, 3, size=(500, 11))
    keep = np.abs(pts[:, 4]) > 1e-6
    vals = evaluate_batch(state, basis, pts[keep])
    assert np.all(np.sign(vals.real) == np.sign(pts[keep, 4]))
    assert np.max(np.abs(vals.imag)) == 0.0


def test_parity():
    # every term of (a_1)^2 vac has even total occupation: psi(-q) = psi(q)
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    even = apply_create(apply_create(vacuum(params), 1), 1)
    odd = apply_create(vacuum(params), 2)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(50, 5))
    assert np.allclose(
        evaluate_batch(even, basis, pts), evaluate_batch(even, basis, -pts), rtol=1e-13
    )
    assert np.allclose(
        evaluate_batch(odd, basis, pts), -evaluate_batch(odd, basis, -pts), rtol=1e-13
    )


def test_deep_tail_matches_factorized_reference():
    # far out in the window the value is ~1e-170; the log-space envelope must
    # reproduce the directly multiplied 1D factors without losing the value
    params = ChainParams(n_sites=31, gamma=0.0)  # decoupled: exact product form
    basis = real_mode_basis(params)
    v = vacuum(params)
    q = np.full(31, 5.0)
    val = evaluate(v, basis, q)
    ref = 1.0
    for _ in range(31):
        ref *= math.pi**-0.25 * math.exp(-12.5)  # ground state of one site at q = 5
    assert val.real > 0.0
    assert val.real == pytest.approx(ref, rel=1e-10)
    assert val.real < 1e-150  # genuinely deep in the tail


def test_oscillator2d_values():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 2.0]])
    got = evaluate_oscillator2d(2, 1, 1.0, 1.0, pts)
    ref = _phi(2, 1.0, pts[:, 0]) * _phi(1, 1.0, pts[:, 1])
    assert np.allclose(got, ref, rtol=1e-14)
    with pytest.raises(ValueError):
        evaluate_oscillator2d(-1, 0, 1.0, 1.0, pts)
    for nu1, nu2 in ((0.5, 0), (0, 1.0), (True, 0), (2.0, 1)):  # one integer rule
        with pytest.raises(ValueError, match="^nu[12] must be an integer, got "):
            evaluate_oscillator2d(nu1, nu2, 1.0, 1.0, pts)
    with pytest.raises(ValueError):
        evaluate_oscillator2d(0, 0, 1.0, 1.0, np.zeros((3, 4)))
    for mass, kappa in ((0.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        with pytest.raises(ValueError):
            evaluate_oscillator2d(0, 0, mass, kappa, pts)
    with pytest.raises(ValueError, match="kappa must be .* finite"):
        evaluate_oscillator2d(0, 0, 1.0, math.inf, pts)


@pytest.mark.parametrize("nu", [(1, 0), (2, 1), (7, 5)])
def test_oscillator2d_values_ignore_the_sign_of_zero(nu):
    # the identity transform can turn -0.0 into 0.0 in y, but every Wick step
    # and the term sum start from Python's sum at 0, so no value sees the sign;
    # 40 000 rows are 3 blocks
    pts = np.random.default_rng(9).uniform(-3.0, 3.0, size=(40_000, 2))
    pts[::3, 0] = 0.0
    pts[1::4, 1] = 0.0
    flipped = np.where(pts == 0.0, -0.0, pts)
    vals = evaluate_oscillator2d(*nu, MASS, KAPPA, pts)
    assert vals.tobytes() == evaluate_oscillator2d(*nu, MASS, KAPPA, flipped).tobytes()
    at_node = np.any((pts == 0.0) & (np.array(nu) % 2 == 1), axis=1)  # odd order, zero coordinate
    assert at_node.any()
    assert vals[at_node].tobytes() == np.zeros(at_node.sum(), dtype=complex).tobytes()


def test_points_shape_is_checked_before_planning(monkeypatch):
    def unreachable(gram, mults):
        raise AssertionError("planned before the point check")

    monkeypatch.setattr(wavefunction, "_wick_plan", unreachable)
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    state = build_state("a[1] vac", params)[0]
    for bad in (np.zeros((3, 4)), np.zeros((2, 3, 5))):
        with pytest.raises(ValueError, match=r"^expected points of shape \(M, 5\), got "):
            evaluate_batch(state, basis, bad)
    for bad in (np.zeros((3, 3)), np.zeros(3), np.zeros((2, 3, 2))):
        with pytest.raises(ValueError, match=r"^expected points of shape \(M, 2\), got "):
            evaluate_oscillator2d(2, 1, MASS, KAPPA, bad)
    for bad in (np.inf, -np.inf, np.nan):
        pts = np.zeros((2, 5))
        pts[1, 3] = bad
        with pytest.raises(ValueError, match=r"^points must have finite coordinates$"):
            evaluate_batch(state, basis, pts)
        with pytest.raises(ValueError, match=r"^points must have finite coordinates$"):
            evaluate_oscillator2d(2, 1, MASS, KAPPA, [[0.5, 0.5], [bad, 0.5]])


def test_empty_state_evaluates_to_zero():
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    none = linear_combine([(0.0, vacuum(params))])
    vals = evaluate_batch(none, basis, np.zeros((4, 3)))
    assert np.array_equal(vals, np.zeros(4, dtype=complex))


def test_hamiltonian_residual_eigenstates():
    params = ChainParams(n_sites=5)
    basis = real_mode_basis(params)
    rng = np.random.default_rng(23)
    states = [
        vacuum(params),
        apply_create(vacuum(params), 0),
        apply_create(apply_create(vacuum(params), 1), -2),
        build_state("a[-2] a[1] vac", params)[0],  # the form build_state returns
    ]
    for state in states:
        accepted = 0
        while accepted < 5:
            q = rng.uniform(-1.5, 1.5, size=5)
            try:
                resid = hamiltonian_residual(state, basis, q, floor_ref=1.0)
            except ValueError:
                continue  # near a node, draw again
            accepted += 1
            assert resid < 1e-4
    # floor_ref defaults to |psi(0)|, which is non-zero for the vacuum
    assert hamiltonian_residual(vacuum(params), basis, np.full(5, 0.3)) < 1e-4
    with pytest.raises(ValueError, match=r"length-5 configuration, got shape \(4,\)"):
        hamiltonian_residual(vacuum(params), basis, np.zeros(4))


def test_hamiltonian_residual_rejects_superpositions():
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    v = vacuum(params)
    mix = linear_combine([(1.0, v), (1.0, apply_create(v, 0))])
    for state in (mix, build_state("vac + a[0] vac", params)[0]):
        with pytest.raises(ValueError, match="single-occupation eigenstate"):
            hamiltonian_residual(state, basis, np.zeros(3))


def test_hamiltonian_residual_rejects_nodal_points():
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 0)  # odd in Q_0, zero at q = 0
    with pytest.raises(ValueError):
        hamiltonian_residual(state, basis, np.zeros(3), floor_ref=1.0)


# --- the per-term evaluator that the Wick evaluator replaced, kept as reference


def _normed_hermite_table(y, max_order):
    """Table of H_j(y)/sqrt(2^j j!) for j = 0..max_order, vectorized over y."""
    table = np.empty((max_order + 1,) + y.shape)
    table[0] = 1.0
    if max_order >= 1:
        table[1] = math.sqrt(2.0) * y
    for j in range(1, max_order):
        table[j + 1] = math.sqrt(2.0 / (j + 1)) * y * table[j] - math.sqrt(
            j / (j + 1)
        ) * table[j - 1]
    return table


def _reference_batch(state, basis, points):
    """Sum over occupation terms of the amplitude times per-mode Hermite factors."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not state.terms:
        return np.zeros(points.shape[0], dtype=complex)
    scale = np.sqrt(basis.params.mass * basis.frequencies)
    y = (points @ basis.basis) * scale
    log_env = 0.25 * float(np.sum(np.log(scale * scale / np.pi))) - 0.5 * np.sum(
        y * y, axis=1
    )
    items = state.sorted_terms()
    per_mode_max = np.max(np.array([occ for occ, _ in items]), axis=0)
    tables = {
        mode: _normed_hermite_table(y[:, mode], int(per_mode_max[mode]))
        for mode in np.nonzero(per_mode_max > 0)[0]
    }
    acc = np.zeros(points.shape[0], dtype=complex)
    for occ, amp in items:
        factor = None
        for mode, nu in enumerate(occ):
            if nu:
                col = tables[mode][nu]
                factor = col if factor is None else factor * col
        acc += amp if factor is None else amp * factor
    return acc * np.exp(log_env)


def _matches_reference(src, n_sites, samples, seed=0):
    """Compare both state forms with the reference; None if the terms cancel
    to (nearly) nothing, so that there is no batch max to compare to."""
    params = ChainParams(n_sites=n_sites)
    basis = real_mode_basis(params)
    ast = parse_state_expr(src, n_sites)
    fock = evaluate_expr(ast, params)
    points = draw_samples(RenderSpec(sample_count=samples, window=chain_window(basis),
                                     seed=seed), n_sites)
    ref = _reference_batch(fock, basis, points)
    vmax = float(np.max(np.abs(ref)))
    size = _reference_batch(FockState(params, {o: abs(a) for o, a in fock.terms.items()}),
                            basis, points)
    if not vmax > 1e-6 * float(np.max(np.abs(size))):
        return None
    for state in (creator_state(ast, params), fock):
        got = evaluate_batch(state, basis, points)
        assert np.max(np.abs(got - ref)) <= 1e-12 * vmax, src
    return True


CHAIN_PRESETS = sorted((v["n"], v["state"]) for v in PRESETS.values() if "state" in v)


@pytest.mark.parametrize("n_sites, src", CHAIN_PRESETS + [(15, "(a[1] + i a[-1]) vac")])
def test_wick_matches_per_term_reference_on_presets(n_sites, src):
    assert _matches_reference(src, n_sites, 2000)


@pytest.mark.parametrize("n_sites, src", [(15, "b[1] b[4] b[8] b[11] b[14] vac"),
                                          (31, "b[3] b[8] b[20] vac")])
def test_wick_matches_per_term_reference_on_many_term_states(n_sites, src):
    assert _matches_reference(src, n_sites, 300)


@st.composite
def _creator_sums(draw, n_sites, state=True):
    """A sum of one to three terms, each a coefficient and up to three factors, a
    creator or a parenthesized sum of two or three; a state's terms end in vac,
    and an operator sum's have at least one factor."""
    h = (n_sites - 1) // 2
    ops = st.one_of(st.integers(-h, h).map(lambda k: f"a[{k}]"),
                    st.integers(1, n_sites).map(lambda n: f"b[{n}]"))
    coef = st.sampled_from(["", "i ", "2 ", "0.5 ", "1.5i "])
    sign = st.sampled_from([" + ", " - "])

    def factor():
        if draw(st.booleans()):
            return draw(ops)
        terms = [draw(coef) + draw(ops) for _ in range(draw(st.integers(2, 3)))]
        return "(" + "".join(t if i == 0 else draw(sign) + t for i, t in enumerate(terms)) + ")"

    def term():
        factors = [factor() for _ in range(draw(st.integers(0 if state else 1, 3)))]
        return draw(coef) + " ".join(factors + ["vac"] if state else factors)

    terms = [term() for _ in range(draw(st.integers(1, 3)))]
    return "".join(t if i == 0 else draw(sign) + t for i, t in enumerate(terms))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 5, 11]).flatmap(lambda n: st.tuples(st.just(n), _creator_sums(n))),
       st.integers(0, 2**32 - 1))
def test_wick_matches_per_term_reference_on_random_states(case, seed):
    n_sites, src = case
    assume(_matches_reference(src, n_sites, 64, seed))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 11]).flatmap(lambda n: st.tuples(
           st.just(n), _creator_sums(n, state=False), _creator_sums(n, state=False),
           _creator_sums(n), _creator_sums(n))),
       st.sampled_from(["vac", "a[0] vac", "b[1] b[1] vac"]))
def test_a_sum_and_its_cancelled_spelling_build_one_state(case, rest):
    # like terms cancel before a sum decides whether its creators are one, so
    # adding and subtracting a sum changes neither the state nor a bit of psi
    n_sites, p, q, x, y = case
    params = ChainParams(n_sites=n_sites)
    basis = real_mode_basis(params)
    points = np.random.default_rng(1).normal(0.0, 0.7, size=(64, n_sites))
    for spelled, plain in ((f"({p} + ({q}) - ({q})) {rest}", f"({p}) {rest}"),
                           (f"{x} + ({y}) - ({y})", x)):
        state, want = build_state(spelled, params)[0], build_state(plain, params)[0]
        assert state == want, spelled
        assert evaluate_batch(state, basis, points).tobytes() == evaluate_batch(
            want, basis, points).tobytes(), spelled


# --- ring symmetries: the chain is a ring of identical sites, so rolling the
# sites (translation) and mirroring them about site N (reflection) map every
# state onto another one that the expression names exactly


def _translated(src, n_sites, s):
    """``src`` with psi(np.roll(q, s, axis=1)) as its psi(q): b[n] -> b[n - s], sites
    mod N in 1..N, and a[k] -> cos(phi) a[k] + sin(phi) a[-k] with phi = 2 pi k s / N."""
    def wave(match):
        k = int(match.group(1))
        phi = 2.0 * math.pi * (k * s % n_sites) / n_sites
        c, si = math.cos(phi), math.sin(phi)
        return f"({c!r} a[{k}] {'-' if si < 0 else '+'} {abs(si)!r} a[{-k}])"

    src = re.sub(r"b\[(\d+)\]", lambda m: f"b[{(int(m[1]) - s - 1) % n_sites + 1}]", src)
    return re.sub(r"a\[(-?\d+)\]", wave, src)


def _reflected(src, n_sites):
    """``src`` with psi(q[:, _mirror(N)]) as its psi(q): a[k] -> a[-k], b[n] -> b[N - n]
    and b[N] fixed."""
    src = re.sub(r"a\[(-?\d+)\]", lambda m: f"a[{-int(m[1])}]", src)
    return re.sub(r"b\[(\d+)\]", lambda m: f"b[{(-int(m[1]) - 1) % n_sites + 1}]", src)


def _mirror(n_sites):
    """Column order of R q, with R the site map j <-> N - j (site N fixed)."""
    return (n_sites - 2 - np.arange(n_sites)) % n_sites


def _ring_image_matches(basis, src, moved_points, image):
    """Whether psi of ``src`` at the moved points equals psi of ``image`` at the
    points, 200 Gaussian draws (sd 0.7), within 64 N eps of the batch max; None
    if ``image`` nearly cancels, so that its batch max is rounding noise."""
    params, n_sites = basis.params, basis.params.n_sites
    points = np.random.default_rng(7).normal(0.0, 0.7, size=(200, n_sites))
    want = evaluate_batch(build_state(image, params)[0], basis, points)
    got = evaluate_batch(build_state(src, params)[0], basis, moved_points(points))
    vmax = float(np.max(np.abs(want)))
    if not vmax > 1e-6 * float(np.max(np.abs(evaluate_batch(vacuum(params), basis, points)))):
        return None
    return float(np.max(np.abs(got - want))) <= 64 * n_sites * np.finfo(float).eps * vmax


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 31, 301]).flatmap(lambda n: st.tuples(
    st.just(n), _creator_sums(n), st.integers(1, n - 1))))
def test_ring_translation_and_reflection_on_random_states(case):
    n_sites, src, s = case
    basis = real_mode_basis(ChainParams(n_sites=n_sites))
    rolled = _ring_image_matches(basis, src, lambda q: np.roll(q, s, axis=1),
                                 _translated(src, n_sites, s))
    assume(rolled is not None)
    assert rolled, (src, s)
    assert _ring_image_matches(basis, src, lambda q: q[:, _mirror(n_sites)],
                               _reflected(src, n_sites)), src


@pytest.mark.parametrize("src", ["vac", "b[1] b[2] b[2] vac + 0.5i b[3] vac",
                                 "a[2] a[2] a[-1] vac", "(a[500] + i b[1001]) a[-3] vac"])
def test_ring_translation_and_reflection_at_n1001(src):
    basis = real_mode_basis(ChainParams(n_sites=1001))
    for s in (1, -1, 3, 7):
        assert _ring_image_matches(basis, src, lambda q: np.roll(q, s, axis=1),
                                   _translated(src, 1001, s))
    assert _ring_image_matches(basis, src, lambda q: q[:, _mirror(1001)], _reflected(src, 1001))


def test_repeated_creator_memo_stays_linear():
    # a[0] applied p times: the plan forms multiplicities 1..p only, and the
    # normalized Wick power of L = sqrt(2) y with contraction 1 is
    # H_p(y) / sqrt(2^p p!), the p-th 1D eigenfunction with psi0
    plan = _wick_plan(np.ones((1, 1)), [(12,)])
    assert [m for m, *_ in plan] == [(p,) for p in range(1, 13)]
    y = np.linspace(-3.0, 3.0, 41)
    got = _evaluate(np.ones((1, 1)), [(1.0, (12,))], y[:, None], np.ones(1), np.ones((1, 1)))
    ref = _phi(12, 1.0, y)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_wick_plan_runs_once_per_call_spanning_blocks(monkeypatch):
    params = ChainParams(n_sites=301)
    basis = real_mode_basis(params)
    state = creator_state(parse_state_expr("a[1] b[7] b[7] vac + b[9] vac", 301), params)
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(250, 301))  # 3 blocks at N=301
    calls = []

    def counting(gram, mults):
        calls.append(mults)
        return _wick_plan(gram, mults)

    monkeypatch.setattr(wavefunction, "_wick_plan", counting)
    assert evaluate_batch(state, basis, pts).shape == (250,)
    assert calls == [[(1, 2, 0), (0, 0, 1)]]


def test_dense_contractions_match_reference_spanning_blocks():
    # every pair of (a[0] + a[i]) contracts to exactly 1, so the plan reads
    # every lower multiplicity; 5000 samples are 3 blocks at N=15
    src = " ".join(f"(a[0] + a[{i}])" for i in range(1, 7)) + " vac"
    assert _matches_reference(src, 15, 5000, seed=4)


@pytest.mark.parametrize("nu", [170, 200, 400])
def test_many_quanta_in_one_mode_match_eigenfunction(nu):
    # sqrt(nu!) overflows a double from nu = 171; the normalized recursion
    # never forms it and agrees with the normalized Hermite table
    params = ChainParams(n_sites=3)
    basis = real_mode_basis(params)
    state = FockState(params, {(0, nu, 0): 1.0 + 0.0j})
    normal = np.array([[0.3, 1.7, -0.4], [-0.2, -5.1, 0.6], [0.1, 0.05, 0.2]])
    points = normal @ basis.basis.T
    got = evaluate_batch(state, basis, points)
    ref = _reference_batch(state, basis, points)
    assert np.all(np.isfinite(got)) and np.all(got != 0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_thousand_distinct_creators():
    # a[-500] ... a[500] vac: one quantum in every mode of N = 1001, so psi is
    # psi0 times the product of sqrt(2) y_k; y = +-1/sqrt(2) keeps it in range
    params = ChainParams(n_sites=1001)
    basis = real_mode_basis(params)
    src = " ".join(f"a[{k}]" for k in range(-500, 501)) + " vac"
    state = creator_state(parse_state_expr(src, 1001), params)
    assert state.monomials == ((1.0, (1,) * 1001),)
    y = np.where(np.arange(1001) % 3, 1.0, -1.0) / math.sqrt(2.0)
    scale = np.sqrt(params.mass * basis.frequencies)
    q = (y / scale) @ basis.basis.T
    log_psi0 = 0.25 * np.sum(np.log(scale * scale / np.pi)) - 0.5 * np.sum(y * y)
    ref = np.prod(np.sign(y)) * math.exp(log_psi0)
    got = evaluate(state, basis, q)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_eight_localized_quanta_at_n31():
    # 48.9 million occupation terms when expanded; eight creator vectors here
    params = ChainParams(n_sites=31)
    basis = real_mode_basis(params)
    state = creator_state(parse_state_expr("b[1] b[2] b[3] b[4] b[5] b[6] b[7] b[8] vac", 31),
                          params)
    assert state.vectors.shape == (8, 31)
    points = draw_samples(RenderSpec(sample_count=2000, window=chain_window(basis), seed=5), 31)
    vals = evaluate_batch(state, basis, points)
    assert np.all(np.isfinite(vals)) and np.any(vals != 0)
    mirrored = evaluate_batch(state, basis, -points)
    assert np.max(np.abs(mirrored - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_creator_form_merges_sums_and_repeats():
    params = ChainParams(n_sites=5)
    wave = creator_state(parse_state_expr("(a[1] + i a[-1]) vac", 5), params)
    assert wave.vectors.shape == (1, 5) and wave.monomials == ((1.0, (1,)),)
    assert np.array_equal(wave.vectors[0], [0, 1j, 0, 1, 0])
    pair = creator_state(parse_state_expr("b[5] b[5] vac + b[2] b[5] vac - b[5] b[2] vac", 5),
                         params)
    assert pair.vectors.dtype == float and pair.monomials == ((1.0, (2,)),)


@pytest.mark.parametrize("n_sites, src, creators", [
    (1, "a[0] b[1] vac", [[("a", 0)], [("b", 1)]]),  # one operator at N=1
    (5, "(a[1] + a[2]) (a[2] + a[1]) vac", [[("a", 1), ("a", 2)], [("a", 2), ("a", 1)]]),
])
def test_creators_with_identical_vectors_share_one_row(n_sites, src, creators):
    params = ChainParams(n_sites=n_sites)
    basis = real_mode_basis(params)
    state = creator_state(parse_state_expr(src, n_sites), params)
    assert state.vectors.shape == (1, n_sites) and state.monomials == ((1.0, (2,)),)
    fock = vacuum(params)  # each creator a sum of operators, applied right to left
    for ops in reversed(creators):
        fock = apply_creator(fock, sum(creator_vector(n_sites, *op) for op in ops))
    points = draw_samples(RenderSpec(sample_count=500, window=chain_window(basis), seed=2),
                          n_sites)
    ref = evaluate_batch(fock, basis, points)
    got = evaluate_batch(state, basis, points)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_creator_states_compare_by_value():
    params = ChainParams(n_sites=5)
    state = build_state("b[2] vac", params)[0]
    assert state == build_state("b[2]   vac", params)[0]
    assert not state != build_state("b[2] vac", params)[0]
    (coef, mult), = state.monomials
    assert state != replace(state, monomials=((2 * coef, mult),))
    vectors = state.vectors.copy()
    vectors[0, 3] += 1e-3
    assert state != replace(state, vectors=vectors)
    assert state != replace(state, params=ChainParams(n_sites=5, gamma=0.5))
    assert state != build_state("b[1] vac", params)[0]
    assert (state == 3) is False


def test_state_and_basis_from_different_chains():
    state = apply_create(vacuum(ChainParams(n_sites=5)), 1)
    basis = real_mode_basis(ChainParams(n_sites=7))
    with pytest.raises(ValueError, match="different chains"):
        evaluate_batch(state, basis, np.zeros((2, 7)))
    wick = creator_state(parse_state_expr("a[1] vac", 5), ChainParams(n_sites=5))
    with pytest.raises(ValueError, match="different chains"):
        evaluate_batch(wick, basis, np.zeros((2, 7)))


def test_batch_spanning_blocks_matches_its_rows():
    params = ChainParams(n_sites=301)
    basis = real_mode_basis(params)
    state = creator_state(parse_state_expr("a[1] b[7] vac", 301), params)
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(250, 301))  # 3 blocks at N=301
    batch = evaluate_batch(state, basis, pts)
    assert batch.shape == (250,)
    assert evaluate_batch(state, basis, pts[:0]).shape == (0,)
    with pytest.raises(ValueError, match=r"expected points of shape \(M, 301\), got \(2, 300\)"):
        evaluate_batch(state, basis, pts[:2, :300])
    with pytest.raises(ValueError, match=r"length-301 configuration, got shape \(1, 301\)"):
        evaluate(state, basis, pts[:1])
    for i in (0, 107, 108, 216, 249):  # either side of each block edge
        single = evaluate(state, basis, pts[i])
        assert abs(single - batch[i]) <= 1e-12 * np.max(np.abs(batch))
    # the 2D oscillator runs the same loop: 16384 rows per block at n = 2
    pts = draw_samples(RenderSpec(sample_count=40000, window=2.5, seed=8), 2)
    pts[::7, 0] *= 0.0  # signed zeros
    edges = {i + d for i in (16384, 32768) for d in (-2, -1, 0, 1)} | {0, 39999}
    rows = sorted(edges | set(range(0, 40000, 97)))  # every block edge and a spread
    for nu in ((2, 1), (7, 3)):
        batch = evaluate_oscillator2d(*nu, MASS, KAPPA, pts)
        singles = np.concatenate([evaluate_oscillator2d(*nu, MASS, KAPPA, pts[i]) for i in rows])
        assert np.array_equal(singles.view(np.uint64), batch[rows].view(np.uint64))
        ref = _phi(nu[0], M_OMEGA, pts[:, 0]) * _phi(nu[1], M_OMEGA, pts[:, 1])
        assert np.max(np.abs(batch - ref)) <= 1e-12 * np.max(np.abs(ref))
