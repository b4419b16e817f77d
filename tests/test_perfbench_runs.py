"""The frozen benchmark still runs every workload and every branch of its replay.

`perfbench/run.py` checks each operation's output against the correct answer
and reports the result as the last line of standard output.  One pass of each
timed workload (`--seconds 0`) and one traced pass, which replays each command
through `perfbench/replay.py`, must end with every operation correct, so that a
change to the package that breaks a benchmark operation fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload,trace", [
    ("derive-g2-b9", "0"), ("classify-g2", "0"), ("cli-mix", "0"), ("all", "1"),
], ids=["derive-g2-b9", "classify-g2", "cli-mix", "trace"])
def test_benchmark_pass_is_correct(workload, trace):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", trace],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0
