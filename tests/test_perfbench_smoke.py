"""Smoke run of the benchmark harness at tiny size.

The traced run looks library functions up by attribute, so a change that
renames or deletes one of them breaks the benchmark; this catches it. The
self-test's planted faults patch one library call per workload, so a change
that routes an operation around that call leaves the fault unreported;
this catches that too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["auth-2048", "auth-churn", "road-sim", "mc-oracle"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_fault_is_reported(workload):
    """``perfbench/selftest.py``'s planted fault, untraced: the patched
    call (``adversary.cheater_attempt``, ``revocation.screen_session`` or
    ``simulation.run_sim``) must still be the one each operation goes through."""
    code = (
        "import json, run, selftest\n"
        "run.import_library()\n"
        f"with selftest.planted_fault({workload!r}):\n"
        f"    result = selftest.run_tiny({workload!r}, 0)\n"
        "print(json.dumps(result))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0 and result["correct"] is False, result
