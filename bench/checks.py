"""Output checks for every figure and round trip the benchmark runs.

A CLI figure passes when the process exits 0, prints the documented summary
line, and writes an SVG that parses as XML, whose metadata names the
requested seed, sample count and state, and whose element colours equal the
colour maps applied to reference values.  A round trip passes when the table
reads back bit-identical, its points are the documented PCG64 draw, and its
values on a fixed subset of rows, divided by the batch max |psi|, agree with
the reference to ``VALUE_TOL``.  Repeats of an item in one run must produce
the same bytes as its first, fully checked, run.
"""

from __future__ import annotations

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
from qchain.render import diverging_color, phase_color

# Admits a reordered evaluator (Wick expansion) or a rescaled batch (log
# offsets) and still catches a wrong sign, term or normalisation.
VALUE_TOL = 1e-12
CHECK_ROWS = 64
BACKGROUND = diverging_color(0.0, 1.0)

_SUMMARY = re.compile(r"n=(\d+) state='(.*)' samples=(\d+) seed=(\d+) out=(.*)")
_SVG_NS = "{http://www.w3.org/2000/svg}"


def check_rows(samples: int):
    """The fixed rows whose values a round trip reports: 64 evenly spaced."""
    return sorted({int(i) for i in np.linspace(0, samples - 1, CHECK_ROWS)})


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    out_bytes: int = 0
    elements: int = 0
    visible: int = 0


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason)


def expected_colours(relative, color_mode: str):
    """Colours the renderer should give to values already divided by their vmax."""
    if color_mode == "phase_hue":
        return [phase_color(complex(v), 1.0) for v in relative]
    return [diverging_color(float(v), 1.0) for v in relative.real]


def compare_values(rows, values, vmax: float, relative) -> str:
    """Empty string when values[i] / vmax matches relative[rows[i]] for every i."""
    if not vmax > 0:
        return f"batch max |psi| is {vmax!r}"
    for row, value in zip(rows, values):
        if not abs(value / vmax - relative[row]) <= VALUE_TOL:
            return (f"row {row}: psi/max|psi| = {value / vmax!r}, "
                    f"reference {complex(relative[row])!r}")
    return ""


class Checker:
    """Checks the outputs of one run; caches references and first outputs per item."""

    def __init__(self, seed: int):
        self.seed = seed
        self._first = {}
        self._refs = {}

    def _reference(self, item, real_part: bool):
        if item.name not in self._refs:
            ref = item.reference()
            points = ref.points(self.seed, item.samples)
            self._refs[item.name] = (ref, points, ref.relative(points, real_part))
        return self._refs[item.name]

    def item(self, item, returncode: int, stdout: str, out_path: str, stderr: str = "") -> Outcome:
        """Outcome of one run of ``item``; a malformed output fails it, never raises."""
        try:
            if item.kind == "cli":
                return self.cli(item, returncode, stdout, out_path)
            if returncode != 0:
                return _fail(f"exit code {returncode}: {stderr.strip()[-300:]}")
            return self.roundtrip(item, json.loads(stdout.splitlines()[-1]))
        except Exception as exc:  # noqa: BLE001 - any defect in the output fails the item
            return _fail(f"check raised {type(exc).__name__}: {exc}")

    def cli(self, item, returncode: int, stdout: str, svg_path: str) -> Outcome:
        if returncode != 0:
            return _fail(f"exit code {returncode}")
        lines = stdout.strip().splitlines()
        match = _SUMMARY.fullmatch(lines[-1]) if lines else None
        want = (str(item.n_dims), item.state, str(item.samples), str(self.seed), svg_path)
        if match is None or match.groups() != want:
            return _fail(f"summary line {lines[-1:]!r} does not match {want!r}")
        with open(svg_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        first = self._first.get(item.name)
        if first is not None:
            # a repeat is checked against the first, fully checked, output
            return first[1] if first[0] == digest else _fail(
                "output differs from this item's first run")
        outcome = self._check_svg(item, data)
        self._first[item.name] = (digest, outcome)
        return outcome

    def _check_svg(self, item, data: bytes) -> Outcome:
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            return _fail(f"SVG does not parse: {exc}")
        meta_el = root.find(f"{_SVG_NS}metadata")
        if meta_el is None or not meta_el.text:
            return _fail("SVG has no metadata")
        head, _, state = meta_el.text.partition("; state=")
        meta = dict(part.partition("=")[::2] for part in head.split("; "))
        ref, _, relative = self._reference(item, item.color_mode != "phase_hue")
        want = {"seed": str(self.seed), "samples": str(item.samples),
                "n_dims": str(item.n_dims), "mode": item.mode,
                "color_mode": item.color_mode}
        got = {key: meta.get(key) for key in want}
        if got != want or state != item.state:
            return _fail(f"metadata {meta_el.text!r} does not match {want} state={item.state!r}")
        if float(meta.get("window", "nan")) != ref.window:
            return _fail(f"metadata window {meta.get('window')} != {ref.window!r}")

        expected = expected_colours(relative, item.color_mode)
        drawn = {}
        for el in root:
            ident = el.get("id", "")
            if ident[:1] == "s" and ident[1:].isdigit():
                drawn[int(ident[1:])] = el.get("stroke", el.get("fill"))
        for idx, colour in enumerate(expected):
            got_colour = drawn.get(idx, BACKGROUND)
            if got_colour != colour:
                return _fail(f"sample {idx} drawn {got_colour}, reference colour {colour}")
        if len(drawn) > len(expected):
            return _fail(f"{len(drawn)} elements for {len(expected)} samples")
        visible = sum(1 for colour in drawn.values() if colour != BACKGROUND)
        return Outcome(True, out_bytes=len(data), elements=len(drawn), visible=visible)

    def roundtrip(self, item, report: dict) -> Outcome:
        """Check a round-trip report (see ``worker.roundtrip``)."""
        if not report.get("identical"):
            return _fail("sample table does not read back bit-identical")
        ref, points, relative = self._reference(item, real_part=False)
        if report["points_sha256"] != hashlib.sha256(points.tobytes()).hexdigest():
            return _fail("drawn points are not the documented PCG64 draw")
        values = [complex(float.fromhex(re_), float.fromhex(im)) for re_, im in report["values"]]
        problem = compare_values(report["rows"], values, float.fromhex(report["vmax"]), relative)
        if problem:
            return _fail(problem)
        return Outcome(True, out_bytes=report["table_bytes"])
