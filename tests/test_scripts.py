"""The experiment scripts refuse bad arguments with a usage error (exit 2)
before any work, never with a traceback."""

import os
import subprocess
import sys

import pytest

import mdel

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.dirname(os.path.dirname(mdel.__file__))


@pytest.mark.parametrize("script, argv", [
    ("agreement_scan.py", ["--alphabet", ""]),
    ("agreement_scan.py", ["--alphabet", "a,B"]),
    ("agreement_scan.py", ["--interval-stride", "0"]),
    ("agreement_scan.py", ["--lambda-max", "-1"]),
    ("agreement_scan.py", ["--max-gap", "0"]),
    ("agreement_scan.py", ["--max-args", "-1"]),
    ("sos_experiment.py", ["--lambda-max", "-1"]),
    ("sos_experiment.py", ["--max-gap", "0"]),
])
def test_scripts_refuse_bad_arguments(script, argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{script}: error: " in proc.stderr
