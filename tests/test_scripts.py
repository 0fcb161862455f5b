import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import invkloos

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str) -> str:
    """stdout of scripts/<script> run on the invkloos under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(invkloos.__file__).parent.parent)}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120).stdout


def test_slope_survey_reaches_n2_past_p7():
    # the survey prices nothing itself: n = 2 at p = 11 and 13 goes through
    # the transform, which the library admits
    out = _run("slope_survey.py", "--n", "2", "--pmax", "13")
    rows = [line.split(" b∈")[0] for line in out.splitlines()]
    assert rows == ["n=2 p=2", "n=2 p=5", "n=2 p=7", "n=2 p=11", "n=2 p=13"]
    assert "refused" not in out


def test_bound_margins_rows_and_unproved_flags():
    lines = _run("bound_margins.py", "--q", "3,4,5", "--n", "1,2").splitlines()
    cells = [re.match(r"q=(\d+) n=(\d+) (equal|mixed): max", line).groups()
             for line in lines]
    assert cells == [(str(q), str(n), kind) for q in (3, 4, 5) for n in (1, 2)
                     for kind in ("equal", "mixed")]
    # p | n+1 exactly at q = 3, n = 2 and q = 4, n = 1
    flagged = {cell[:2] for cell, line in zip(cells, lines)
               if line.endswith("[p | n+1, no proved bound]")}
    assert flagged == {("3", "2"), ("4", "1")}


def test_bound_margins_stdout_is_pinned():
    # sha256 of the default run (q = 3, 4, 5, 7, 8, 9; n = 1, 2), recorded
    # while the script embedded every twisted sum one SumValue at a time
    out = _run("bound_margins.py", "--q", "3,4,5,7,8,9", "--n", "1,2")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "648f58be74c905c2682b0152bdc411f3fffffeeb02a11b82b99b84010f24de0f"


def test_slope_survey_stdout_is_pinned():
    # sha256 of the n = 1, 2 survey to p = 13, recorded while every b ran
    # its own reconstruction; the survey reads whole families of b
    out = _run("slope_survey.py", "--n", "1,2", "--pmax", "13")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4c80f5b204db936c2bfeec7623507899cd3ca8a9516f702e132b7e57f202fb4d"
