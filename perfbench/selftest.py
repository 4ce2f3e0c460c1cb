"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that the untraced run prints each end-to-end
metric of ``BENCHMARK.json`` with its unit and the traced run each
per-layer metric, that tracing leaves no wrapper behind, and that a
planted wrong outcome makes the run report a failure. Last, it checks that
the benchmark refuses to run, printing no result, in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_tiny(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
    check(code == 0, f"{workload} trace {trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, expected: list, label: str, positive: bool) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    check(result["correct"] is True and result["failed"] == 0, f"{label}: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    names = [m["name"] for m in expected]
    check(sorted(result["metrics"]) == sorted(names),
          f"{label}: metrics differ: {sorted(set(names) ^ set(result['metrics']))}")
    for m in expected:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)), f"{label}: {m['name']}")
        if positive:
            check(got["value"] > 0, f"{label}: {m['name']} is {got['value']}")


def no_wrappers_left() -> None:
    for name, mod in list(sys.modules.items()):
        if name != "anonauth" and not name.startswith("anonauth."):
            continue
        for key, value in vars(mod).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for label, obj in [(key, value), *((f"{key}.{a}", m) for a, m in members)]:
                check(not hasattr(obj, "span_name"), f"{name}.{label} is still traced")


def planted_fault(workload: str):
    """A patch that makes the library give ``workload`` a wrong outcome."""
    from anonauth import adversary, revocation, simulation

    if workload in ("auth-2048", "auth-churn"):
        # screening that never matches lets revoked members in
        return mock.patch.object(revocation, "screen_session", lambda *a, **kw: None)
    if workload == "road-sim":
        real_run_sim = simulation.run_sim

        def leaky_run_sim(config, seed):
            metrics = real_run_sim(config, seed)
            return replace(metrics, sessions_lost=metrics.sessions_lost + 1)

        return mock.patch.object(simulation, "run_sim", leaky_run_sim)
    # a cheater that always passes
    return mock.patch.object(adversary, "cheater_attempt", lambda *a, **kw: ([], True))


def check_refuses_without_sources(spec: dict) -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0, "ran without the library sources")
    check('"metrics"' not in proc.stdout, "printed a result without the library sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check_result(run_tiny(name, 0), spec["end_to_end"], f"{name} untraced", True)
        check_result(run_tiny(name, 1), spec["per_layer"], f"{name} traced", False)
        no_wrappers_left()
        with planted_fault(name):
            planted = run_tiny(name, 0)
        check(planted["failed"] > 0 and planted["correct"] is False,
              f"{name}: a planted wrong outcome was not reported: {planted}")
        print(f"ok {name}: metrics and units match; planted fault gives "
              f"fail_ratio {planted['failed'] / planted['attempted']:.3f}")
    check_refuses_without_sources(spec)
    print("ok: refuses to run without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
