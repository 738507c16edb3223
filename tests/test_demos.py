"""Each demo runs on its own and prints the text recorded here.

The demos are narrative scripts, so their printed tables are part of what
they show.  Each runs in a fresh directory with this checkout's ``qchain``
first on the path; its stdout must equal the recorded lines, and every SVG
file named in its source or its output must exist afterwards.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qchain

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED_STDOUT = {
    "ground_state_chain": [
        'psi0(0) = 0.083060',
        'largest sampled |psi| / psi0(0) = 9.39e-04',
        'wrote ground_state_chain.svg',
    ],
    "localized_particles": [
        'b[5] vac        -> localized_one.svg (11 occupation terms)',
        'b[3] b[8] vac   -> localized_pair.svg (66 occupation terms)',
        'b[5] b[6] vac   -> localized_adjacent.svg (66 occupation terms)',
        'b[5] b[5] vac   -> localized_double.svg (66 occupation terms)',
        'b[3] b[8] vac == b[8] b[3] vac term map: True',
    ],
    "oscillator2d_scatter": [
        'psi_21 on 8000 samples:',
        '  range [-0.3917, +0.3920]',
        '  positive fraction 0.503',
        'wrote oscillator2d_scatter.svg',
    ],
    "particles_at_rest": [
        'a[0] vac        psi(c*1) at c = -1, -0.2, 0, 0.2, 1:'
        '  -0.0003  -0.0674  +0.0000  +0.0674  +0.0003',
        '  wrote one_particle_at_rest.svg',
        'a[0] a[0] vac   psi(c*1) at c = -1, -0.2, 0, 0.2, 1:'
        '  +0.0013  +0.0123  -0.0831  +0.0123  +0.0013',
        '  wrote two_particles_at_rest.svg',
    ],
    "progressive_wave_phase": [
        'wrote progressive_real.svg',
        'wrote progressive_phase.svg',
        'typical |Im psi| / |psi|: 0.708',
    ],
    "residual_check": [
        'vac             E = 4.192323  worst |H psi / psi - E| = 3.98e-07',
        'a[0] vac        E = 5.192323  worst |H psi / psi - E| = 2.98e-07',
        'a[1] a[-2] vac  E = 7.884646  worst |H psi / psi - E| = 1.27e-04',
    ],
    "standing_wave": [
        'k=1 mode profile by site:',
        '  +0.341  +0.365  +0.325  +0.230  +0.095  -0.057  -0.199  -0.306'
        '  -0.361  -0.353  -0.284  -0.166  -0.019  +0.131  +0.258',
        'sign changes between sites 5|6 and 13|14',
        'wrote standing_wave.svg',
    ],
}


def test_every_demo_has_recorded_output():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(EXPECTED_STDOUT)


@pytest.mark.parametrize("name", sorted(EXPECTED_STDOUT))
def test_demo_prints_recorded_text_and_writes_its_files(name, tmp_path):
    script = DEMOS / f"{name}.py"
    src_dir = str(Path(qchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == EXPECTED_STDOUT[name]
    named = set(re.findall(r"\w+\.svg", script.read_text(encoding="utf-8") + proc.stdout))
    missing = sorted(f for f in named if not (tmp_path / f).is_file())
    assert not missing
