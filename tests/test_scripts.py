import os
import subprocess
import sys
from pathlib import Path

import invkloos

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_slope_survey_reaches_n2_past_p7():
    # the survey prices nothing itself: n = 2 at p = 11 and 13 goes through
    # the transform, which the library admits
    env = {**os.environ, "PYTHONPATH": str(Path(invkloos.__file__).parent.parent)}
    out = subprocess.run([sys.executable, str(SCRIPTS / "slope_survey.py"),
                          "--n", "2", "--pmax", "13"], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    rows = [line.split(" b∈")[0] for line in out.splitlines()]
    assert rows == ["n=2 p=2", "n=2 p=5", "n=2 p=7", "n=2 p=11", "n=2 p=13"]
    assert "refused" not in out
