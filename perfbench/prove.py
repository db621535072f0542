"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/prove.py --seeds 1-10 [--workload paper_mix ...] [--save FILE]
    python3 perfbench/prove.py --compare A.json B.json

For every workload and end-to-end metric this prints the median of the runs,
the distance between the first and third quartile as a share of the median
(the spread), the metric's bound from BENCHMARK.json, and the share of
failed operations.  ``--compare`` reads two saved sets and prints how far
the second set's median moved from the first's, in the worse direction.
Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(results: dict) -> None:
    for workload, runs in results.items():
        failed = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct {correct}, failed share {sorted(failed)}")
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            flag = "" if s <= metric["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {metric['name']:<12} median {statistics.median(values):>12.6g} "
                  f"{metric['unit']:<4} spread {s:6.2%}  bound {metric['bound']:.0%}{flag}")


def compare(first: dict, second: dict) -> None:
    for workload in first:
        print(workload)
        for metric in SPEC["end_to_end"]:
            a, b = (statistics.median(r["metrics"][metric["name"]]["value"]
                                      for r in side[workload]) for side in (first, second))
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            print(f"  {metric['name']:<12} {a:>12.6g} -> {b:>12.6g}  worse by {worse:+6.2%}"
                  f"  bound {metric['bound']:.0%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        compare(first, second)
        return 0
    results = {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        results[workload] = [run_once(workload, seed) for seed in args.seeds]
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results, indent=1), encoding="utf-8")
    summarise(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
