"""fdmix benchmark: time to a validated answer on one workload.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fdmix is imported from ``src/``.
The run repeats whole rounds of the workload in a closed loop from this
single-threaded process until ``--seconds`` have passed.  Every round makes
the same calls; the first round's outputs are checked apart from the
program and every later round must reproduce them exactly.  Between rounds,
spread over the run, fresh interpreters import fdmix and build the
workload's inputs (``setup_s``).  Times are scaled to a reference machine
speed measured by ``calibrate.py``.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` every other round is traced, spans are
written to ``perfbench_out/``, and the result holds the per-layer metrics.
A table of every metric with its unit and sample count is printed first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Pin numpy and any BLAS it loads to one thread, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("paper_mix", "crowded_fd", "theory_sweep")

SETUP_PROBES = 9  # spread evenly over the measured phase
SETUP_SLICES = 5  # calibration slices timed before, and again after, each probe
MIN_ROUNDS = 3  # a later round must reproduce the first round's outputs
KEPT_TRACED_ROUNDS = 5  # spans of later traced rounds are dropped to bound memory
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Import fdmix, build the inputs, print when they were ready."""
    start = time.perf_counter()
    import fdmix  # noqa: F401
    import fdmix.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workloads.build(args.workload, args.seed, OUT_DIR)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


def time_setup(args) -> dict:
    """Run one fresh interpreter to input-ready; times at reference speed.

    Calibration slices are timed just before and just after the probe.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    slices = [calibrate.slice_seconds() for _ in range(SETUP_SLICES)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    slices += [calibrate.slice_seconds() for _ in range(SETUP_SLICES)]
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    factor = calibrate.factor(slices)
    return {"setup_s": (probe["ready"] - start) * factor, "import_s": probe["import_s"] * factor}


class Round:
    """One round: a calibration slice before each call, each call's times, failures."""

    def __init__(self, tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.slices: list[float] = []
        self.calls: list[tuple[str, float, float]] = []  # kind, wall s, CPU s
        self.failures: list[str] = []

    def call(self, kind: str, fn, *args):
        self.slices.append(calibrate.slice_seconds())
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            with self.tracer.span("call", kind=kind):
                result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{kind}: {exc!r}")
            result = None
        self.calls.append((kind, time.perf_counter() - start, time.process_time() - cpu0))
        return result

    def factor(self) -> float:
        return calibrate.factor(self.slices)

    def wall(self) -> float:
        return sum(wall for _, wall, _ in self.calls) * self.factor()

    def cpu(self) -> float:
        return sum(cpu for _, _, cpu in self.calls) * self.factor()


def call_ms(rounds: list[Round]) -> tuple[float, int]:
    """Median over call kinds of each kind's median wall time, in ms."""
    by_kind = defaultdict(list)
    for rnd in rounds:
        factor = rnd.factor()
        for kind, wall, _ in rnd.calls:
            by_kind[kind].append(wall * factor)
    samples = sum(len(v) for v in by_kind.values())
    return median(median(v) for v in by_kind.values()) * 1e3, samples


def layer_metrics(traced: list, counts: dict, setups: list) -> dict:
    """Per-layer metrics from (spans, factor) of traced rounds: name -> (value, samples)."""
    by_name = defaultdict(list)
    for round_spans, factor in traced:
        for span in round_spans:
            by_name[span.name].append((span, span.seconds * factor))
    out = {"import_s": (median(s["import_s"] for s in setups), len(setups))}

    def put(metric, values, scale=1.0):
        values = list(values)
        out[metric] = (median(values) * scale if values else 0.0, len(values))

    def seconds(name):
        return (t for _, t in by_name[name])

    for name in ("throughputs", "validate", "head_fraction", "preset"):
        put(f"analytic.{name}_us", seconds(f"analytic.{name}"), 1e6)
    out["analytic.calls"] = (sum(s.name.startswith("analytic.") for s in traced[0][0]), 1)
    per_net = defaultdict(list)
    for span, t in by_name["simulator.run"]:
        per_net[span.attrs["net"]].append(t / span.attrs["slots"] * 1e6)
    for net, values in per_net.items():
        put(f"simulator.run_us_per_slot.{net}", values)
    put("simulator.run_us_per_slot", (median(v) for v in per_net.values()))
    put("simulator.step_us", (t / s.attrs["slots"] * 1e6 for s, t in by_name["simulator.step"]))
    put("simulator.new_sim_ms", seconds("simulator.new_sim"), 1e3)
    put("simulator.empirical_report_us", seconds("simulator.empirical_report"), 1e6)
    put("stats.compare_us", seconds("stats.compare"), 1e6)
    by_cmd = defaultdict(list)
    for span, t in by_name["cli.main"]:
        by_cmd[span.attrs["cmd"]].append(t)
    for cmd in ("validate", "simulate", "theory", "sweep"):
        put(f"cli.{cmd}_ms", by_cmd[cmd], 1e3)
    put("cli.load_scenario_us", seconds("cli.load_scenario"), 1e6)
    for name, value in counts.items():
        out[name] = (value, 1)
    return out


def write_trace(path: Path, traced: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for index, round_spans in enumerate(traced):
            for s in round_spans:
                fh.write(json.dumps({"round": index, "id": s.id, "name": s.name,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fdmix" / "__init__.py").is_file():
        print(f"run.py: no fdmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    import workloads

    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    rounds: list[Round] = []
    traced_spans = []
    problems: list[str] = []
    reference = counts = None
    setups: list[dict] = []
    begin = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < begin + args.seconds:
        if len(setups) * args.seconds / SETUP_PROBES <= time.perf_counter() - begin:
            setups.append(time_setup(args))
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = spans.Tracer() if traced else spans.NO_TRACE
        rnd = Round(tracer, traced)
        gc.collect()
        outputs = workload.round(workload.inputs, workloads.Layers(tracer), rnd.call)
        rounds.append(rnd)
        if traced and len(traced_spans) < KEPT_TRACED_ROUNDS:
            traced_spans.append((tracer.spans, rnd.factor()))
        if reference is None:
            reference = outputs
            try:
                problems, counts = workload.verify(workload.inputs, outputs)
            except Exception as exc:  # malformed output from the program
                problems, counts = [f"checking round 1 raised {exc!r}"], {}
        elif outputs != reference:
            problems.append(f"round {len(rounds)} outputs differ from round 1")
    setups += [time_setup(args) for _ in range(SETUP_PROBES - len(setups))]

    attempted = sum(len(rnd.calls) for rnd in rounds)
    failed = sum(len(rnd.failures) for rnd in rounds)
    plain = [rnd for rnd in rounds if not rnd.traced]
    slices = [t for rnd in rounds for t in rnd.slices]
    wall_s = median(rnd.wall() for rnd in plain)
    if args.trace:
        measured = layer_metrics(traced_spans, counts, setups)
        traced_wall = median(rnd.wall() for rnd in rounds if rnd.traced)
        measured["trace.overhead_pct"] = (100.0 * (traced_wall / wall_s - 1.0), len(rounds))
        measured["calibration_ms"] = (median(slices) * 1e3, len(slices))
        listed = spec["per_layer"]
        write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                    [round_spans for round_spans, _ in traced_spans])
    else:
        measured = {
            "setup_s": (median(s["setup_s"] for s in setups), len(setups)),
            "wall_s": (wall_s, len(plain)),
            "cpu_s": (median(rnd.cpu() for rnd in plain), len(plain)),
            "work_per_s": (workload.inputs.units() / wall_s, len(plain)),
            "call_ms": call_ms(plain),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        listed = spec["end_to_end"]
    unlisted = sorted(set(measured) - {m["name"] for m in listed})
    if unlisted:
        problems.append(f"metrics missing from BENCHMARK.json: {unlisted}")

    for failure in sorted({f for rnd in rounds for f in rnd.failures}):
        print(f"FAILED: {failure}", file=sys.stderr)
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  correct {not problems}")
    print(f"  calibration slice median {median(slices) * 1e3:.4g} ms "
          f"(reference {calibrate.REFERENCE_S * 1e3:g} ms); times below are at reference speed")
    metrics = {}
    for m in listed:
        value, samples = measured.get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<6} n={samples}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
