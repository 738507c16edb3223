"""Command line front end.

Builds a chain state from an expression such as ``"b[5] vac"``, samples its
wavefunction at uniform random points, and writes a parallel-axes graphic
(one polyline per sample, colored by the wavefunction value; background-colored
samples are left out).  A separate mode renders a two-dimensional oscillator
eigenstate as a scatter chart.

Exit codes: 0 success, 1 usage or expression error, 2 numeric failure,
3 I/O failure.  Output files are written atomically, so a failed run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from .chain import ChainParams, real_mode_basis
from .expr import StateExprError, creator_state, evaluate_expr, parse_state_expr, pretty
from .fock import dump_state
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

__all__ = ["PRESETS", "build_arg_parser", "run", "run_oscillator2d", "main"]

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
    parser.add_argument("--gamma", type=float, default=1.0, help="neighbor coupling (default 1)")
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


def _write_atomic(path: str, text: str):
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qchain-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_figure(batch, render, output_path: str, samples_path: str | None,
                  extra: tuple = ()) -> int:
    """Check the values, write the figure, the sample table and ``extra``
    (path, text) pairs, and print the summary line."""
    if not np.all(np.isfinite(batch.values)):
        raise ValueError("wavefunction values are not finite")
    if not np.any(batch.values):
        raise ValueError("every sampled wavefunction value is zero")
    _write_atomic(output_path, render(batch))
    if samples_path is not None:
        _write_atomic(samples_path, dump_samples(batch))
    for path, text in extra:
        _write_atomic(path, text)
    print(f"n={batch.n_dims} state='{batch.state_label}' samples={batch.spec.sample_count} "
          f"seed={batch.spec.seed} out={output_path}")
    return 0


def run(chain: ChainParams, ast, spec: RenderSpec, output_path: str,
        samples_path: str | None = None, state_dump_path: str | None = None) -> int:
    """Chain pipeline: basis, state, samples, graphic (and optional dumps).

    The state is evaluated in creator form; its occupation terms are
    expanded only for ``state_dump_path``.
    """
    state = creator_state(ast, chain)
    batch = sample_chain_state(state, real_mode_basis(chain), spec, state_label=pretty(ast))
    extra = () if state_dump_path is None else (
        (state_dump_path, dump_state(evaluate_expr(ast, chain))),)
    return _write_figure(batch, render_parallel_axes, output_path, samples_path, extra)


def run_oscillator2d(nu1: int, nu2: int, mass: float, kappa: float,
                     render: RenderSpec, output_path: str,
                     samples_path: str | None = None) -> int:
    """2D oscillator pipeline: sample the (nu1, nu2) eigenstate, write a scatter chart."""
    batch = sample_oscillator2d(nu1, nu2, mass, kappa, render)
    return _write_figure(batch, render_scatter2d, output_path, samples_path)


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if args.preset is not None:  # explicit flags still override the preset
            parser.set_defaults(**PRESETS[args.preset])
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.mode2d:
            if args.n is not None or args.state is not None:
                raise ValueError("--mode2d takes --nu1/--nu2, not --n or --state")
            if args.dump_state is not None:
                raise ValueError("--dump-state applies only to chain states")
            nu1, nu2 = (0 if nu is None else nu for nu in (args.nu1, args.nu2))
            if nu1 < 0 or nu2 < 0:
                raise ValueError(f"quantum numbers must be >= 0, got ({nu1}, {nu2})")
            if args.mass <= 0 or args.kappa <= 0:
                raise ValueError("mass and kappa must be positive")
            window = default_window([math.sqrt(args.kappa / args.mass)], args.mass)
            default_out = f"{args.preset or 'oscillator2d'}.svg"
        else:
            if args.nu1 is not None or args.nu2 is not None:
                raise ValueError("--nu1/--nu2 require --mode2d")
            if args.n is None:
                raise ValueError("--n is required (or use a preset)")
            if args.state is None:
                raise ValueError("--state is required (or use a preset)")
            chain = ChainParams(n_sites=args.n, mass=args.mass, kappa=args.kappa, gamma=args.gamma)
            ast = parse_state_expr(args.state, chain.n_sites)
            window = chain_window(real_mode_basis(chain))
            default_out = f"{args.preset or 'chain'}.svg"
        spec = RenderSpec(
            sample_count=args.samples,
            window=window if args.window is None else args.window,
            seed=args.seed,
            color_mode=args.color_mode,
            width=args.width,
            height=args.height,
        )
        out = default_out if args.out is None else args.out
    except (StateExprError, ValueError) as exc:
        print(f"qchain: error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.mode2d:
            return run_oscillator2d(nu1, nu2, args.mass, args.kappa, spec, out,
                                    samples_path=args.dump_samples)
        return run(chain, ast, spec, out, samples_path=args.dump_samples,
                   state_dump_path=args.dump_state)
    except OSError as exc:
        print(f"qchain: i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"qchain: numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
