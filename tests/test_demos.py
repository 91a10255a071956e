import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, recorded when the output was last known
# correct; a change that alters a demo's output on purpose records the new
# digest, and says why, in the same change
DIGESTS = {
    "01_trees_and_sequences.py":
        "c5b3b4fabf4c6059ba3a245a843f5c59c10dcf171f08b492730937ac81880f14",
    "02_coproducts.py":
        "cb6fa2f29e6dddd6c58a4791d67c01ff645aafd9a0726a0532268adca8650a3c",
    "03_derivatives_and_taylor.py":
        "602567b6a5b4dd2c7c3cc0b569e4595c76be3ae1e6eed8149384f9b68d7f0a74",
    "04_primitives_and_pbw.py":
        "ec683308e0e8b62c8148728e5be5b6fcc393ac333a7fe71955ff174cae858f8a",
    "05_isomorphisms.py":
        "dd92bb052351579093acea212e848c049379d9b0dd431db96e76e0393a79b961",
}


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_has_a_digest():
    assert [p.name for p in DEMOS] == sorted(DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_prints_the_recorded_bytes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo.name]
