"""qchain benchmark: end-to-end figures with tracing off, per-layer figures traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload presets --seed 1 --seconds 40 --trace 0

One client runs one figure or round trip at a time (a closed loop), each in a
fresh process, round-robin over the workload's items until ``--seconds`` are
used.  ``--seed`` is passed to qchain as ``--seed``, so it fixes every input.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass of child processes and then the traced in-process worker, and prints the
per-layer metrics.  Every output is checked (see ``checks.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The machine record, the raw samples and, when
traced, the spans go to ``.bench_run/results/``; figures and tables are
written to a temporary directory under ``.bench_run/`` and removed at the end.
See ``bench/README.md`` for what each metric means and which change should
move it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CHILD_SHARE = 0.4  # of a traced run's time, for the untraced child processes
RUN_LIMIT_S = 170  # every run, including a hung child, ends well within 180 s
MB = 1e6


class Child:
    """Runs one child process at a time and measures its wall time and peak RSS."""

    def __init__(self, tmp: Path, started: float):
        self.tmp = tmp
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def run(self, cmd):
        """Returns (seconds, returncode, stdout, stderr, peak RSS in bytes)."""
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (seconds, proc.returncode, out.read().decode(), err.read().decode(),
                    usage.ru_maxrss * 1024)


def item_command(item, workload: str, seed: int, out: Path):
    if item.kind == "cli":
        return [sys.executable, "-m", "qchain", *item.cli_args, "--seed", str(seed),
                "--out", str(out)]
    return [sys.executable, str(BENCH / "worker.py"), "roundtrip", "--workload", workload,
            "--item", item.name, "--seed", str(seed), "--out", str(out)]


SETUP_CMD = [sys.executable, "-c", "import qchain"]


class Pass:
    """Child-process runs of a workload's items with their checked outcomes.

    Each item run is followed by one fresh interpreter running ``import
    qchain``, so set-up time is sampled all through the run, under the same
    conditions as the items.
    """

    def __init__(self, workload: str, seed: int, child: Child, checker):
        self.workload, self.seed, self.child, self.checker = workload, seed, child, checker
        self.walls, self.rss, self.out_bytes, self.setups = {}, {}, {}, []
        self.attempted, self.failures = 0, []
        child.run(SETUP_CMD)  # warm the bytecode and page caches

    def round_robin(self, items, deadline: float):
        """Every item once, then on in turn while the next one fits before ``deadline``."""
        spent, index = {}, 0
        while True:
            item = items[index % len(items)]
            if index >= len(items) and time.perf_counter() + spent[item.name] > deadline:
                return
            spent[item.name] = self.run_item(item)
            index += 1

    def run_item(self, item) -> float:
        """Run and check one item, then sample set-up; returns the time all that took."""
        begun = time.perf_counter()
        suffix = ".svg" if item.kind == "cli" else ".table"
        out = self.child.tmp / f"{item.name}{suffix}"
        seconds, code, stdout, stderr, rss = self.child.run(
            item_command(item, self.workload, self.seed, out))
        self.attempted += 1
        outcome = self.checker.item(item, code, stdout, str(out), stderr)
        if out.exists():
            out.unlink()
        if not outcome.ok:
            self.failures.append(f"{item.name}: {outcome.reason}")
        self.walls.setdefault(item.name, []).append(seconds)
        self.rss.setdefault(item.name, []).append(rss)
        self.out_bytes.setdefault(item.name, []).append(outcome.out_bytes)
        seconds, code, _, stderr, _ = self.child.run(SETUP_CMD)
        if code != 0:
            raise RuntimeError(f"import qchain failed: {stderr.strip()}")
        self.setups.append(seconds)
        return time.perf_counter() - begun

    def setup(self) -> float:
        return statistics.median(self.setups)

    def median_wall(self, name) -> float:
        return statistics.median(self.walls[name])


def end_to_end(items, runs: Pass) -> dict:
    wall = sum(runs.median_wall(item.name) for item in items)
    samples = sum(item.samples for item in items)
    return {
        "wall_s": (wall, "s"),
        "samples_per_s": (samples / wall, "1/s"),
        "setup_s": (runs.setup(), "s"),
        "peak_rss_mb": (max(statistics.median(v) for v in runs.rss.values()) / MB, "MB"),
        "output_mb": (sum(statistics.median(v) for v in runs.out_bytes.values()) / MB, "MB"),
    }


def per_layer(items, runs: Pass, traced: dict) -> dict:
    layer = traced["layer_s"]
    other = sum(runs.median_wall(item.name) - runs.setup() - traced["layer_s_by_item"][item.name]
                for item in items)
    eval_s = layer["wavefunction.eval"]
    return {
        "chain.basis_s": (layer["chain.basis"], "s"),
        "expr.parse_s": (layer["expr.parse"], "s"),
        "expr.build_s": (layer["expr.build"], "s"),
        "fock.apply_s": (layer["fock.apply"], "s"),
        "fock.terms": (traced["terms"], "count"),
        "sampling.draw_s": (layer["sampling.draw"], "s"),
        "sampling.dump_s": (layer["sampling.dump"], "s"),
        "sampling.load_s": (layer["sampling.load"], "s"),
        "sampling.table_bytes": (traced["table_bytes"], "B"),
        "wavefunction.eval_s": (eval_s, "s"),
        "wavefunction.term_samples": (traced["term_samples"], "count"),
        "wavefunction.ns_per_term_sample": (eval_s * 1e9 / max(traced["term_samples"], 1), "ns"),
        "wavefunction.zero_frac": (max(traced["zero_frac_by_item"].values(), default=0.0),
                                   "fraction"),
        "render.svg_s": (layer["render.svg"], "s"),
        "render.svg_bytes": (traced["svg_bytes"], "B"),
        "render.elements": (traced["elements"], "count"),
        "render.visible_frac": (traced["visible_frac"], "fraction"),
        "cli.other_s": (other, "s"),
        "trace.overhead_s": (traced["overhead_s"], "s"),
    }


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    """What a result must carry so that numbers from different machines are not compared."""
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[:1].lower()}"] = _read(f"{index}/size")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "qchain").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        # when set, every child compiles qchain from source, which setup_s includes
        "python_dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="qchain benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "qchain" / "__init__.py").is_file():
        print(f"bench: no qchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import Checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    items = WORKLOADS[args.workload]
    work = ROOT / ".bench_run"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=work))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        child = Child(tmp, started)
        runs = Pass(args.workload, args.seed, child, Checker(args.seed))
        deadline = started + args.seconds
        traced = None
        if args.trace:
            # child processes for cli.other_s first, the traced worker after
            runs.round_robin(items, started + CHILD_SHARE * args.seconds)
            worker_cmd = [sys.executable, str(BENCH / "worker.py"), "traced",
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(max(0.0, deadline - time.perf_counter())),
                          "--tmp", str(tmp), "--spans", str(results / f"{stamp}-spans.json")]
            _, code, stdout, stderr, _ = child.run(worker_cmd)
            if code != 0:
                print(f"bench: traced worker failed ({code}):\n{stderr}", file=sys.stderr)
                return 1
            traced = json.loads(stdout.splitlines()[-1])
            runs.attempted += traced["attempted"]
            runs.failures += traced["failures"]
            metrics = per_layer(items, runs, traced)
        else:
            runs.round_robin(items, deadline)
            metrics = end_to_end(items, runs)
        env = environment(args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(runs.failures)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "metrics": {name: value for name, (value, _) in metrics.items()},
              "attempted": runs.attempted, "failed": failed, "failures": runs.failures,
              "walls_s": runs.walls, "setups_s": runs.setups, "peak_rss_bytes": runs.rss,
              "output_bytes": runs.out_bytes, "traced": traced}
    with open(results / f"{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runs.attempted} failed={failed}")
    for failure in runs.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / runs.attempted:16.6g} fraction")
    if traced:
        for key in ("zero_frac_by_item", "visible_frac_by_item"):
            print(f"  {key}: " + ", ".join(f"{name} {value:.4g}"
                                           for name, value in traced[key].items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runs.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
