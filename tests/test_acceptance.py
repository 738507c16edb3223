"""Acceptance checks, one per shipped claim, with stated tolerances.

Each test prints one pass/fail line (visible with ``pytest -s``); a failing
criterion also fails the test itself, so a plain ``pytest`` run reports it.
"""

import subprocess
import sys
import time

import numpy as np

from qchain.chain import (
    ChainParams,
    build_coupling_matrix,
    creator_vector,
    mode_spectrum,
    real_mode_basis,
)
from qchain.fock import (
    apply_create,
    apply_create_local,
    energy_eigenvalue,
    vacuum,
)
from qchain.sampling import RenderSpec, chain_window, draw_samples
from qchain.wavefunction import (
    evaluate,
    evaluate_batch,
    evaluate_oscillator2d,
    hamiltonian_residual,
)


def _report(num: int, ok: bool, desc: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {tag}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def _sign_changes(vals) -> int:
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def test_criterion_01_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    symmetric = True
    for kappa, gamma in [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)]:
        for n in range(1, 32, 2):
            params = ChainParams(n_sites=n, kappa=kappa, gamma=gamma)
            spec = mode_spectrum(params)
            dense = np.sort(np.linalg.eigvalsh(build_coupling_matrix(params)))
            worst = max(worst, float(np.max(np.abs(np.sort(spec) - dense) / dense)))
            symmetric = symmetric and np.array_equal(spec, spec[::-1])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and symmetric and elapsed < 1.0
    _report(1, ok, "analytic spectrum matches dense eigensolver, symmetric in +-k",
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_nodal_anchor_n15_k1():
    def flips():
        vals = [creator_vector(15, "b", site)[7 + 1] for site in range(1, 16)]
        return [s for s in range(1, 15) if vals[s - 1] * vals[s] < 0]

    flips()  # warm up numpy before timing
    t0 = time.perf_counter()
    got = flips()
    elapsed = time.perf_counter() - t0
    ok = got == [5, 13] and elapsed < 1e-3
    _report(2, ok, "k=1 profile changes sign between sites 5|6 and 13|14",
            f"flips {got}, {elapsed * 1e6:.0f}us")


def test_criterion_03_vacuum_is_global_maximum():
    t0 = time.perf_counter()
    params = ChainParams(n_sites=15)
    basis = real_mode_basis(params)
    v = vacuum(params)
    spec = RenderSpec(sample_count=100_000, window=chain_window(basis), seed=0)
    pts = draw_samples(spec, 15)
    vals = np.abs(evaluate_batch(v, basis, pts))
    center = evaluate(v, basis, np.zeros(15))
    elapsed = time.perf_counter() - t0
    ok = center.real > 0 and center.imag == 0 and float(vals.max()) <= abs(center)
    ok = ok and elapsed < 5.0
    _report(3, ok, "no sampled |psi0| exceeds psi0(0) over 1e5 points",
            f"max/center {float(vals.max()) / abs(center):.6f}, {elapsed:.2f}s")


def test_criterion_04_one_particle_sign_structure():
    params = ChainParams(n_sites=15)
    basis = real_mode_basis(params)
    state = apply_create(vacuum(params), 0)
    cs = np.linspace(-3.0, 3.0, 101)
    cs = cs[cs != 0]  # 100 nonzero displacements
    pts = np.outer(cs, np.ones(15))
    vals = evaluate_batch(state, basis, pts).real
    ok = len(cs) == 100 and bool(np.all(np.sign(vals) == np.sign(cs)))
    _report(4, ok, "sign(psi(c*1)) = sign(c) for the one-quantum k=0 state")


def test_criterion_05_two_particle_node_structure():
    params = ChainParams(n_sites=15)
    basis = real_mode_basis(params)
    state = apply_create(apply_create(vacuum(params), 0), 0)
    # sigma of the k=0 mode is 1/sqrt(m*Omega_0) = 1 here
    ts = np.linspace(-5.0, 5.0, 1000)
    vals = evaluate_batch(state, basis, np.outer(ts, np.ones(15))).real
    center = evaluate(state, basis, np.zeros(15)).real
    changes = _sign_changes(vals)
    ok = center < 0 and vals[0] > 0 and vals[-1] > 0 and changes == 2
    _report(5, ok, "two-quantum state: negative core, two nodal crossings on the diagonal",
            f"center {center:.3f}, changes {changes}")


def test_criterion_06_localized_sign_law():
    params = ChainParams(n_sites=11, gamma=0.0)
    basis = real_mode_basis(params)
    state = apply_create_local(vacuum(params), 5)
    spec = RenderSpec(sample_count=10_000, window=chain_window(basis), seed=2)
    pts = draw_samples(spec, 11)
    keep = np.abs(pts[:, 4]) > 1e-6
    vals = evaluate_batch(state, basis, pts[keep]).real
    ok = bool(np.all(np.sign(vals) == np.sign(pts[keep, 4])))
    _report(6, ok, "decoupled chain: sign(psi) = sign(q_5) for the site-5 quantum",
            f"{int(keep.sum())} points kept")


def _occupations_up_to_two(n: int):
    occs = [(0,) * n]
    for i in range(n):
        occ = [0] * n
        occ[i] = 1
        occs.append(tuple(occ))
    for i in range(n):
        for j in range(i, n):
            occ = [0] * n
            occ[i] += 1
            occ[j] += 1
            occs.append(tuple(occ))
    return occs


def _state_for_occupation(params: ChainParams, occ):
    state = vacuum(params)
    h = params.max_wavenumber
    for slot, count in enumerate(occ):
        for _ in range(count):
            state = apply_create(state, slot - h)
    return state


def test_criterion_07_hamiltonian_residual_all_two_quantum_states():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for n in (3, 5, 7):
        params = ChainParams(n_sites=n)
        basis = real_mode_basis(params)
        for occ in _occupations_up_to_two(n):
            state = _state_for_occupation(params, occ)
            energy = energy_eigenvalue(occ, basis)
            probe = rng.uniform(-1.5, 1.5, size=(256, n))
            scale = float(np.max(np.abs(evaluate_batch(state, basis, probe))))
            accepted = 0
            while accepted < 20:
                q = rng.uniform(-1.5, 1.5, size=n)
                if abs(evaluate(state, basis, q)) < 1e-3 * scale:
                    continue  # too close to a node for a stable quotient
                resid = hamiltonian_residual(state, basis, q, floor_ref=scale)
                worst = max(worst, resid / energy)
                accepted += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(7, ok, "finite-difference H psi / psi matches the eigenvalue for all "
                   "occupations <= 2 at N in {3,5,7}",
            f"{checked} points, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_monte_carlo_normalization():
    # 2D oscillator, sigma = 1: integrate |psi|^2 over the +-6 sigma box
    spec = RenderSpec(sample_count=1_000_000, window=6.0, seed=1)
    pts = draw_samples(spec, 2)
    volume = (2.0 * 6.0) ** 2
    results = {}
    for name, (nu1, nu2) in {"vacuum": (0, 0), "one-quantum": (1, 0)}.items():
        vals = evaluate_oscillator2d(nu1, nu2, 1.0, 1.0, pts)
        results[name] = volume * float(np.mean(np.abs(vals) ** 2))
    ok = all(abs(est - 1.0) <= 0.02 for est in results.values())
    _report(8, ok, "1e6-sample Monte Carlo norm of the 2D states is 1 +- 2%",
            ", ".join(f"{k} {v:.4f}" for k, v in results.items()))


def test_criterion_09_bosonic_symmetry_bit_identical():
    params = ChainParams(n_sites=11)
    v = vacuum(params)
    ok = True
    for n1 in range(1, 12):
        for n2 in range(1, 12):
            ab = apply_create_local(apply_create_local(v, n1), n2).terms
            ba = apply_create_local(apply_create_local(v, n2), n1).terms
            if ab != ba:
                ok = False
    _report(9, ok, "b_n1 b_n2 vacuum == b_n2 b_n1 vacuum bit-identically, all 121 pairs")


def _run_preset(preset: str, outdir, tag: str):
    svg = outdir / f"{preset}-{tag}.svg"
    csv = outdir / f"{preset}-{tag}.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qchain", preset, "--seed", "42",
         "--out", str(svg), "--dump-samples", str(csv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return svg.read_bytes(), csv.read_bytes()


def test_criterion_10_end_to_end_determinism(tmp_path):
    ok = True
    for preset in ("fig2", "fig6"):
        svg1, csv1 = _run_preset(preset, tmp_path, "first")
        svg2, csv2 = _run_preset(preset, tmp_path, "second")
        if svg1 != svg2 or csv1 != csv2:
            ok = False
    _report(10, ok, "fig2/fig6 with --seed 42 twice give byte-identical graphic and table")


def test_criterion_11_scatter_axis_crossings():
    # the axes themselves are nodal lines of psi_21, so the scans run on
    # parallel lines offset by 0.35 oscillator lengths
    offset = 0.35
    ts = np.linspace(-3.0, 3.0, 1000)
    along_q1 = np.column_stack([ts, np.full_like(ts, offset)])
    along_q2 = np.column_stack([np.full_like(ts, offset), ts])
    crossings_q1 = _sign_changes(evaluate_oscillator2d(2, 1, 1.0, 1.0, along_q1).real)
    crossings_q2 = _sign_changes(evaluate_oscillator2d(2, 1, 1.0, 1.0, along_q2).real)
    ok = crossings_q1 == 2 and crossings_q2 == 1
    _report(11, ok, "psi_21 crosses zero twice along q1 and once along q2",
            f"got {crossings_q1} and {crossings_q2}")


def test_criterion_12_performance_envelope(tmp_path):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qchain", "fig2", "--seed", "1",
         "--out", str(tmp_path / "fig2.svg")],
        capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr

    # linear scaling: 4x the samples should cost well under 8x the time
    params = ChainParams(n_sites=15)
    basis = real_mode_basis(params)
    v = vacuum(params)
    spec_small = RenderSpec(sample_count=10_000, window=3.0, seed=3)
    spec_large = RenderSpec(sample_count=40_000, window=3.0, seed=3)
    pts_small = draw_samples(spec_small, 15)
    pts_large = draw_samples(spec_large, 15)
    evaluate_batch(v, basis, pts_small)  # warm up

    def per_call(pts, min_loop=0.05):
        # CPU time of a loop of calls: a ~1 ms call timed alone, or by the
        # wall clock, measures the scheduler on a busy host, not the scaling
        calls, t = 0, time.process_time()
        while True:
            evaluate_batch(v, basis, pts)
            calls += 1
            elapsed = time.process_time() - t
            if elapsed >= min_loop:
                return elapsed / calls

    # best of 5, the two sizes alternating so a slow spell hits both
    times = [(per_call(pts_small), per_call(pts_large)) for _ in range(5)]
    t_small = min(small for small, _ in times)
    t_large = min(large for _, large in times)
    ratio = t_large / t_small
    ok = wall < 10.0 and ratio < 8.0
    _report(12, ok, "fig2 preset under 10 s; evaluation scales linearly in sample count",
            f"wall {wall:.2f}s, 4x-samples ratio {ratio:.2f}")
