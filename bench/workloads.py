"""The benchmark's workloads: named lists of items, each one figure or round trip.

``presets`` is what users run every day: the nine stock figures plus the
README's phase-hue example, each in a fresh CLI process.  It is dominated by
rendering and interpreter start-up and covers both renderers and both colour
maps.  ``many_terms`` holds states with thousands of Fock terms, where state
build and evaluation outweigh rendering.  ``table_roundtrip`` writes and reads
sample tables through the library without any SVG; its N=301 input sits in
the region where today's evaluator underflows to exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

from reference import Reference

DEFAULT_SAMPLES = 20000


@dataclass(frozen=True)
class Item:
    """One unit of work: a CLI figure (``kind="cli"``) or a library round trip."""

    name: str
    kind: str
    cli_args: tuple = ()
    n_dims: int = 0
    state: str = ""
    samples: int = DEFAULT_SAMPLES
    color_mode: str = "diverging_real"
    nu: tuple | None = None  # (nu1, nu2) for the 2D oscillator

    @property
    def mode(self) -> str:
        return "scatter2d" if self.nu else "parallel_axes"

    def reference(self) -> Reference:
        if self.nu:
            return Reference.oscillator2d(*self.nu)
        return Reference.chain(self.n_dims, self.state)


def _preset(name, n_dims, state):
    return Item(name, "cli", (name,), n_dims, state)


def _chain(name, n_dims, state, color_mode="diverging_real"):
    args = ("--n", str(n_dims), "--state", state)
    if color_mode != "diverging_real":
        args += ("--color-mode", color_mode)
    return Item(name, "cli", args, n_dims, state, color_mode=color_mode)


def _roundtrip(name, n_dims, state, samples, color_mode="diverging_real"):
    return Item(name, "roundtrip", (), n_dims, state, samples, color_mode)


WORKLOADS = {
    "presets": (
        Item("fig1", "cli", ("fig1",), 2, "oscillator2d nu=(2,1)", nu=(2, 1)),
        _preset("fig2", 15, "vac"),
        _preset("fig3", 15, "a[0] vac"),
        _preset("fig4", 15, "a[0] a[0] vac"),
        _preset("fig5", 15, "a[1] vac"),
        _preset("fig6", 11, "b[5] vac"),
        _preset("fig7", 11, "b[3] b[8] vac"),
        _preset("fig8a", 11, "b[5] b[6] vac"),
        _preset("fig8b", 11, "b[5] b[5] vac"),
        _chain("wave15", 15, "(a[1] + i a[-1]) vac", "phase_hue"),
    ),
    "many_terms": (
        _chain("b5_n15", 15, "b[1] b[4] b[8] b[11] b[14] vac"),
        _chain("b3_n31", 31, "b[3] b[8] b[20] vac"),
    ),
    "table_roundtrip": (
        _roundtrip("vac_n101", 101, "vac", 20000),
        _roundtrip("wave15", 15, "(a[1] + i a[-1]) vac", 20000, "phase_hue"),
        _roundtrip("a1_n301", 301, "a[1] vac", 5000),
    ),
}
