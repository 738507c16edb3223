"""Child process of the benchmark.

``worker.py roundtrip`` runs one table round trip through the library and
prints a JSON report for ``checks.Checker.roundtrip``; the parent times the
whole process.  ``worker.py traced`` runs a workload in process, each item
once plain and once wrapped in spans, round after round until its time is
up, and prints the per-layer figures as JSON.  Both expect ``qchain`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import time

import numpy as np
from qchain import chain, cli, expr, sampling, wavefunction

from checks import Checker, Outcome, check_rows
from spans import Tracer, totals
from workloads import WORKLOADS

# Span names whose self time is a qchain layer's work, not the CLI's or the harness's.
LAYER_SPANS = ("chain.basis", "expr.parse", "expr.build", "fock.apply", "sampling.draw",
               "sampling.dump", "sampling.load", "wavefunction.eval", "render.svg")


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def roundtrip(item, seed: int, path: str) -> dict:
    """Build, draw, evaluate, dump, write, read, load and compare one sample table."""
    params = chain.ChainParams(n_sites=item.n_dims)
    basis = chain.real_mode_basis(params)
    ast = expr.parse_state_expr(item.state, item.n_dims)
    state = expr.evaluate_expr(ast, params)
    spec = sampling.RenderSpec(sample_count=item.samples, window=sampling.chain_window(basis),
                               seed=seed, color_mode=item.color_mode)
    points = sampling.draw_samples(spec, item.n_dims)
    values = wavefunction.evaluate_batch(state, basis, points)
    batch = sampling.SampleBatch(points, values, spec, expr.pretty(ast))
    text = sampling.dump_samples(batch)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    with open(path, encoding="utf-8") as fh:
        loaded = sampling.load_samples(fh.read())
    identical = (loaded.spec == spec and loaded.state_label == batch.state_label
                 and np.array_equal(_bits(loaded.points), _bits(points))
                 and np.array_equal(_bits(loaded.values), _bits(values)))
    magnitude = np.abs(values)
    rows = check_rows(item.samples) + [int(np.argmax(magnitude))]
    return {
        "identical": bool(identical),
        "points_sha256": hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest(),
        "rows": rows,
        "values": [[float(values[r].real).hex(), float(values[r].imag).hex()] for r in rows],
        "vmax": float(magnitude.max()).hex(),
        "table_bytes": len(text.encode("utf-8")),
    }


class _Counts:
    """Work counts observed at span boundaries, per figure id."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.terms = self.term_samples = self.table_bytes = 0
        self.values, self.zeros = {}, {}

    def observers(self):
        return {"expr.build": self._built, "wavefunction.eval": self._evaluated,
                "sampling.dump": self._dumped}

    def _built(self, state, args):
        self.terms += len(state.terms)

    def _evaluated(self, values, args):
        terms = len(args[0].terms) if hasattr(args[0], "terms") else 1
        self.term_samples += terms * len(values)
        item = self.tracer.item
        self.values[item] = self.values.get(item, 0) + len(values)
        self.zeros[item] = self.zeros.get(item, 0) + int(np.count_nonzero(values == 0))

    def _dumped(self, text, args):
        self.table_bytes += len(text.encode("utf-8"))


def _run_item(item, seed, tmp, tracer=None):
    """Run one item in process; returns (seconds, returncode, stdout, output path).

    A round trip's stdout is its JSON report, as ``worker.py roundtrip`` prints it.
    """
    if item.kind == "cli":
        path = os.path.join(tmp, f"{item.name}.svg")
        argv = [*item.cli_args, "--seed", str(seed), "--out", path]
        main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return time.perf_counter() - start, code, out.getvalue(), path
    path = os.path.join(tmp, f"{item.name}.table")
    run = tracer.wrap("bench.roundtrip", roundtrip) if tracer else roundtrip
    start = time.perf_counter()
    report = run(item, seed, path)
    return time.perf_counter() - start, 0, json.dumps(report), path


def traced(workload: str, seed: int, seconds: float, tmp: str, spans_path: str) -> dict:
    """Run every item plain and traced, back to back, round after round, for ``seconds``.

    Each round is one traced pass and one plain pass over the workload.  The
    two runs of an item sit next to each other in time, and which goes first
    alternates, so a slow spell on the machine hits both sides alike.
    """
    items = WORKLOADS[workload]
    checker = Checker(seed)
    deadline = time.perf_counter() + seconds
    rounds, failures, attempted = [], [], 0
    while True:
        round_start = time.perf_counter()
        tracer = Tracer()
        counts = _Counts(tracer)
        tracer.observers = counts.observers()
        elapsed = {False: 0.0, True: 0.0}
        outcomes = {}
        order = (False, True) if len(rounds) % 2 == 0 else (True, False)
        for item in items:
            for with_spans in order:
                attempted += 1
                if with_spans:
                    tracer.item = item.name
                    tracer.install()
                try:
                    seconds_item, code, output, path = _run_item(
                        item, seed, tmp, tracer if with_spans else None)
                    elapsed[with_spans] += seconds_item
                    outcome = checker.item(item, code, output, path)
                except Exception as exc:  # a failing item must not end the run
                    outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
                finally:
                    tracer.uninstall()
                if not outcome.ok:
                    failures.append(f"{item.name}: {outcome.reason}")
                outcomes[item.name] = outcome
        rounds.append((elapsed, tracer.spans, counts, outcomes))
        if time.perf_counter() + (time.perf_counter() - round_start) > deadline:
            break

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([spans for _, spans, _, _ in rounds], fh)

    by_name = [totals(spans) for _, spans, _, _ in rounds]
    layer_by_item = [totals(spans, key=lambda s: s[4] if s[0] in LAYER_SPANS else None)
                     for _, spans, _, _ in rounds]
    _, _, counts, outcomes = rounds[-1]
    elements = sum(o.elements for o in outcomes.values())
    zero_frac = {name: counts.zeros[name] / n for name, n in counts.values.items() if n}
    return {
        "attempted": attempted,
        "failures": failures,
        "rounds": len(rounds),
        "layer_s": {name: statistics.median(t.get(name, 0.0) for t in by_name)
                    for name in LAYER_SPANS},
        "layer_s_by_item": {item.name: statistics.median(t.get(item.name, 0.0)
                                                         for t in layer_by_item)
                            for item in items},
        "overhead_s": statistics.median(e[True] - e[False] for e, _, _, _ in rounds),
        "terms": counts.terms,
        "term_samples": counts.term_samples,
        "zero_frac_by_item": zero_frac,
        "table_bytes": counts.table_bytes,
        "svg_bytes": sum(outcomes[i.name].out_bytes for i in items if i.kind == "cli"),
        "elements": elements,
        "visible_frac": sum(o.visible for o in outcomes.values()) / elements if elements else 0.0,
        "visible_frac_by_item": {name: o.visible / o.elements
                                 for name, o in outcomes.items() if o.elements},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("roundtrip", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--item", help="roundtrip: the item to run")
    parser.add_argument("--out", help="roundtrip: table path")
    parser.add_argument("--seconds", type=float, help="traced: time budget")
    parser.add_argument("--tmp", help="traced: directory for outputs")
    parser.add_argument("--spans", help="traced: where to write the spans")
    args = parser.parse_args()
    if args.mode == "roundtrip":
        (item,) = [i for i in WORKLOADS[args.workload] if i.name == args.item]
        result = roundtrip(item, args.seed, args.out)
    else:
        result = traced(args.workload, args.seed, args.seconds, args.tmp, args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
