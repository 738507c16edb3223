"""Command line front end.

One pipeline: validate the arguments, draw uniform random sample points, take
the wavefunction value at each, and write the graphic (and, on request, the
sample table and the state's occupation terms).  A chain state built
from an expression such as ``"b[5] vac"`` is drawn as parallel axes (one
polyline per sample, colored by the wavefunction value; background-colored
samples are left out); ``--mode2d`` draws a two-dimensional oscillator
eigenstate as a scatter chart instead.

Exit codes: 0 success, 3 I/O failure, and any other error 1 (usage or
expression) until the sampling spec is built, 2 (numeric) after.  The output
paths are checked first, before anything is parsed or built; an output that
exists must be a regular file.  Every output text is complete before any file
is touched; the files are staged as new temp files and renamed into place once
all are written, and a failed run removes them all, leaving no output file.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

import numpy as np

from .chain import ChainParams, real_mode_basis
from .expr import build_state
from .fock import dump_state, expand_state
from .render import render_parallel_axes, render_scatter2d
from .sampling import (
    COLOR_MODES,
    RenderSpec,
    chain_window,
    default_window,
    dump_samples,
    sample_chain_state,
    sample_oscillator2d,
)
from .wavefunction import _oscillator2d_frequency

__all__ = ["PRESETS", "build_arg_parser", "main"]

# Named presets for the stock figures.  fig1 is the 2D oscillator; the rest
# are chain states.  N for fig7/fig8* is a documented choice (11), not a
# published value.
PRESETS = {
    "fig1": {"mode2d": True, "nu1": 2, "nu2": 1},
    "fig2": {"n": 15, "state": "vac"},
    "fig3": {"n": 15, "state": "a[0] vac"},
    "fig4": {"n": 15, "state": "a[0] a[0] vac"},
    "fig5": {"n": 15, "state": "a[1] vac"},
    "fig6": {"n": 11, "state": "b[5] vac"},
    "fig7": {"n": 11, "state": "b[3] b[8] vac"},
    "fig8a": {"n": 11, "state": "b[5] b[6] vac"},
    "fig8b": {"n": 11, "state": "b[5] b[5] vac"},
}


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for numeric
    # failures, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qchain",
        description="Sample and draw wavefunctions of a harmonic chain.",
    )
    parser.add_argument("preset", nargs="?", choices=sorted(PRESETS),
                        help="figure preset; explicit flags override its values")
    parser.add_argument("--n", type=int, help="number of chain sites (odd)")
    parser.add_argument("--mass", type=float, default=1.0, help="site mass m (default 1)")
    parser.add_argument("--kappa", type=float, default=1.0, help="on-site stiffness (default 1)")
    parser.add_argument("--gamma", type=float, help="neighbor coupling, chains only (default 1)")
    parser.add_argument("--state", help="state expression, e.g. 'a[0] a[0] vac'")
    parser.add_argument("--samples", type=int, default=20000,
                        help="number of sample points (default 20000)")
    parser.add_argument("--window", type=float,
                        help="half-width of the sampling box (default from the spectrum)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--out", help="output graphic path (default <preset>.svg)")
    parser.add_argument("--dump-samples", metavar="PATH",
                        help="also write the sample table to PATH")
    parser.add_argument("--dump-state", metavar="PATH",
                        help="also write the state's occupation terms to PATH")
    parser.add_argument("--color-mode", choices=COLOR_MODES, default="diverging_real",
                        help="diverging_real (default) or phase_hue")
    parser.add_argument("--mode2d", action="store_true",
                        help="render a 2D oscillator eigenstate instead of a chain")
    parser.add_argument("--nu1", type=int, help="first 2D quantum number (default 0)")
    parser.add_argument("--nu2", type=int, help="second 2D quantum number (default 0)")
    parser.add_argument("--width", type=int, default=900, help="graphic width in px (default 900)")
    parser.add_argument("--height", type=int, default=560,
                        help="graphic height in px (default 560)")
    return parser


def _write_atomic(outputs):
    """Write each (path, text) pair to a temp file created new in the path's
    directory, so it gets the umask's mode, then rename every temp file into
    place; on any error, remove the temp files and the outputs already renamed.
    :func:`main` has checked the paths.
    """
    staged, renamed = [], []
    try:
        for path, text in outputs:
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".qchain-{os.urandom(8).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                staged.append((tmp, path))
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for name in [tmp for tmp, _ in staged] + renamed:
            try:
                os.unlink(name)
            except OSError:  # a renamed temp file is gone
                pass
        raise


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if args.preset is not None:  # explicit flags still override the preset
            parser.set_defaults(**PRESETS[args.preset])
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    default_out = f"{args.preset or ('oscillator2d' if args.mode2d else 'chain')}.svg"
    out = default_out if args.out is None else args.out
    code = 1  # a ValueError or ArithmeticError exits 1 until the spec is built, then 2
    try:
        flags = {}  # each output's real path, and the flag that named it
        for flag, path in (("--out", out), ("--dump-samples", args.dump_samples),
                           ("--dump-state", args.dump_state)):
            if path == "":
                raise ValueError(f"{flag} needs a file path, got an empty one")
            if path is not None:
                real = os.path.realpath(path)
                if real in flags:
                    raise ValueError(f"{flags[real]} and {flag} name the same file {path!r}")
                flags[real] = flag
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or device
                    raise OSError(f"{path!r} exists and is not a regular file")
                if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if args.mode2d:
            if args.n is not None or args.state is not None or args.gamma is not None:
                raise ValueError("--mode2d takes --nu1/--nu2, not --n, --state or --gamma")
            if args.dump_state is not None:
                raise ValueError("--dump-state applies only to chain states")
            nu1, nu2 = (0 if nu is None else nu for nu in (args.nu1, args.nu2))
            omega = _oscillator2d_frequency(nu1, nu2, args.mass, args.kappa)
            window = default_window([omega], args.mass)
            sample = functools.partial(sample_oscillator2d, nu1, nu2, args.mass, args.kappa)
            render = render_scatter2d
        else:
            if args.nu1 is not None or args.nu2 is not None:
                raise ValueError("--nu1/--nu2 require --mode2d")
            for flag, value in (("--n", args.n), ("--state", args.state)):
                if value is None:
                    raise ValueError(f"{flag} is required (or use a preset)")
            gamma = 1.0 if args.gamma is None else args.gamma
            chain = ChainParams(n_sites=args.n, mass=args.mass, kappa=args.kappa, gamma=gamma)
            state, label = build_state(args.state, chain)
            basis = real_mode_basis(chain)
            window = chain_window(basis)
            sample = functools.partial(sample_chain_state, state, basis, state_label=label)
            render = render_parallel_axes
        spec = RenderSpec(
            sample_count=args.samples,
            window=window if args.window is None else args.window,
            seed=args.seed,
            color_mode=args.color_mode,
            width=args.width,
            height=args.height,
        )
        code = 2
        with np.errstate(all="ignore"):  # numeric failures are reported below, one line each
            # occupation terms are expanded only for the dump, before the draw,
            # so a refused expansion fails whatever the sample count
            state_text = None if args.dump_state is None else dump_state(expand_state(state))
            batch = sample(spec)
            if not np.any(batch.values):
                raise ValueError("every sampled wavefunction value is zero")
            outputs = [(out, render(batch))]
            if args.dump_samples is not None:
                outputs.append((args.dump_samples, dump_samples(batch)))
            if state_text is not None:
                outputs.append((args.dump_state, state_text))
            _write_atomic(outputs)  # every text is complete before any file is written
            print(f"n={batch.n_dims} state='{batch.state_label}' samples={spec.sample_count} "
                  f"seed={spec.seed} out={out}")
            return 0
    except OSError as exc:
        print(f"qchain: i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"qchain: {'error' if code == 1 else 'numeric error'}: {exc}", file=sys.stderr)
        return code
