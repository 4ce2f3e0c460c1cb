"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload auth-churn --seeds 1-10

Each run is ``run.py`` in its own process, one after another, with the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric it
prints the median, the quartiles and the spread: the distance between the
first and third quartile as a share of the median, which must stay within
the metric's bound. ``--save`` keeps the values in a JSON file, and
``--against`` compares the medians with such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, spec["run_seconds"])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}",
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    previous = json.loads(args.against.read_text()) if args.against else None
    for metric in spec["end_to_end"]:
        name, vals = metric["name"], values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        line = (f"{args.workload} {name}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                f"spread {spread:.3f} (bound {metric['bound']})")
        if previous:
            before = statistics.median(previous[name])
            worse = (med - before) / before * (1 if metric["better"] == "lower" else -1)
            line += f"; vs saved median {before:.5g}: {worse:+.3f} worse"
        print(line)
    if args.save:
        args.save.write_text(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
