"""The three workloads: inputs made from a seed, one round of calls, checks.

A round is a fixed list of top-level calls into fdmix, the same in every
round of a run, so every round does the same work and gives the same
outputs.  ``verify`` checks one round's outputs apart from the program,
after the round's clock has stopped.

Why these workloads:

- ``paper_mix``: the paper's special cases at small scale, where the
  per-slot interpreter cost of the simulator dominates.  A ``step()`` walk
  uses the simulator a second way, so a ``run()`` rewrite that slows
  ``step()`` shows here.
- ``crowded_fd``: many stations and skewed mixes, where the window scan on
  each full-duplex win and the debt-rejected refill draws dominate.  One
  crowded network runs at a small window capacity.
- ``theory_sweep``: the closed form only, through the library and the CLI.
  No simulator runs, so a simulator speed-up must leave it unmoved.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from fdmix import analytic, cli, simulator, stats


class Layers:
    """The public fdmix functions a round calls, wrapped in spans when traced."""

    def __init__(self, tracer):
        wrap = tracer.wrap
        self.span = tracer.span
        self.preset = {
            "dca": wrap("analytic.preset", analytic.dca_config),
            "fair": wrap("analytic.preset", analytic.fairness_config),
        }
        self.validate = wrap("analytic.validate", analytic.validate)
        self.head_fraction = wrap("analytic.head_fraction", analytic.head_fraction)
        self.throughputs = wrap("analytic.throughputs", analytic.throughputs)
        self.new_sim = wrap("simulator.new_sim", simulator.new_sim)
        self.empirical_report = wrap("simulator.empirical_report", simulator.empirical_report)
        self.compare = wrap("stats.compare", stats.compare)
        self.load_scenario = wrap("cli.load_scenario", cli.load_scenario)

    def run(self, net: str, config, slots: int, warmup: int, capacity, seed: int):
        with self.span("simulator.run", net=net, slots=slots + warmup):
            return simulator.run(
                config, slots, warmup_slots=warmup, capacity=capacity, seed=seed
            )

    def main(self, argv: list[str]) -> tuple[int, str, str]:
        """fdmix main() in process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with self.span("cli.main", cmd=argv[0]), redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()


def _net_tuple(config) -> tuple:
    return (config.m, config.n, config.p_A, config.p_F, config.p_H)


def _cfg_payload(config) -> dict:
    return dict(zip(("m", "n", "p_A", "p_F", "p_H"), _net_tuple(config)))


def _report_payload(report) -> dict:
    return {flow: getattr(report, flow) for flow in checks.FLOWS}


# --------------------------------------------------------------------------
# paper_mix and crowded_fd: simulated networks


@dataclass(frozen=True)
class Network:
    name: str
    preset: str | None  # "dca", "fair", or None for explicit probabilities
    m: int
    n: int
    probs: tuple[float, float, float] | None = None
    capacity: int | None = None
    cli: str | None = None  # also run through `fdmix validate` or `fdmix simulate`

    def config(self, layers: Layers):
        if self.preset is not None:
            return layers.preset[self.preset](self.m, self.n)
        return analytic.NetworkConfig(self.m, self.n, *self.probs)

    def flags(self) -> list[str]:
        if self.preset is not None:
            return ["--preset", self.preset, "--m", str(self.m), "--n", str(self.n)]
        return ["--m", str(self.m), "--n", str(self.n)] + [
            flag for name, p in zip(("--pA", "--pF", "--pH"), self.probs)
            for flag in (name, repr(p))
        ]


# `fdmix validate` judges p with a binomial error bar that ignores queue
# correlation; on the saturation boundary and below saturation its verdict
# depends on the seed.  Those networks go through `fdmix simulate`; only
# saturated networks, where p is exactly 1, go through `validate`.
SIM_NETWORKS = {
    "paper_mix": (
        Network("dca_1_1", "dca", 1, 1, cli="simulate"),
        Network("dca_2_2", "dca", 2, 2, cli="validate"),
        Network("dca_4_2", "dca", 4, 2, cli="validate"),
        Network("fair_2_2", "fair", 2, 2, cli="simulate"),
        Network("fair_4_2", "fair", 4, 2, cli="simulate"),
        Network("x_1_1", None, 1, 1, probs=(0.6, 0.3, 0.1), cli="simulate"),
    ),
    "crowded_fd": (
        Network("dca_100_100", "dca", 100, 100),
        Network("dca_100_100_cap50", "dca", 100, 100, capacity=50),
        Network("dca_200_1", "dca", 200, 1),
        Network("dca_40_1", "dca", 40, 1),
        Network("fair_20_20", "fair", 20, 20),
    ),
}
# (measured slots, warmup slots) per replication.
SIM_SPAN = {"paper_mix": (6000, 2000), "crowded_fd": (1500, 1500)}
STEP_NETWORK = {"paper_mix": "dca_2_2", "crowded_fd": None}


@dataclass(frozen=True)
class SimInputs:
    networks: tuple[Network, ...]
    seeds: dict  # network name -> one seed per replication
    slots: int
    warmup: int
    step: str | None

    @property
    def span(self) -> int:
        return self.slots + self.warmup

    def units(self) -> int:
        """Simulated slots per round, warmup included."""
        runs = sum(checks.REPLICATIONS + (net.cli is not None) for net in self.networks)
        return self.span * (runs + (self.step is not None))

    def cli_argv(self, net: Network) -> list[str]:
        argv = [net.cli, *net.flags(), "--slots", str(self.slots),
                "--warmup", str(self.warmup), "--seed", str(self.seeds[net.name][0])]
        if net.capacity is not None:
            argv += ["--capacity", str(net.capacity)]
        return argv


@dataclass(frozen=True)
class Replication:
    config: object
    theory: object
    window: tuple | None  # (entries, debt, measured slots) of a fresh new_sim
    stats: object
    report: object
    comparison: object


def _simulate(layers: Layers, inp: SimInputs, net: Network, seed: int, first: bool):
    config = net.config(layers)
    theory = layers.throughputs(config)
    window = None
    if first:
        state = layers.new_sim(config, capacity=net.capacity, seed=seed)
        window = (tuple(state.queue.entries), tuple(state.debt), state.stats.total_slots)
    run_stats = layers.run(net.name, config, inp.slots, inp.warmup, net.capacity, seed)
    report = layers.empirical_report(run_stats, config)
    comparison = layers.compare(theory, run_stats, config)
    return Replication(config, theory, window, run_stats, report, comparison)


def _step_walk(layers: Layers, inp: SimInputs, net: Network, seed: int):
    with layers.span("simulator.step", slots=inp.span):
        config = net.config(layers)
        state = layers.new_sim(config, capacity=net.capacity, seed=seed)
        state.measuring = False
        step = simulator.step
        for _ in range(inp.warmup):
            step(state)
        state.measuring = True
        outcomes = [step(state) for _ in range(inp.slots)]
    return outcomes, state.stats


def sim_round(inp: SimInputs, layers: Layers, call) -> tuple:
    nets = []
    for net in inp.networks:
        seeds = inp.seeds[net.name]
        reps = [
            call(f"sim.{net.name}", _simulate, layers, inp, net, seed, i == 0)
            for i, seed in enumerate(seeds)
        ]
        cli_out = call(f"cli.{net.name}", layers.main, inp.cli_argv(net)) if net.cli else None
        nets.append((reps, cli_out))
    walk = None
    if inp.step is not None:
        net = next(net for net in inp.networks if net.name == inp.step)
        walk = call(f"step.{net.name}", _step_walk, layers, inp, net, inp.seeds[net.name][0])
    return tuple(nets), walk


def _cli_expect(inp: SimInputs, net: Network, rep: Replication) -> dict:
    """The payload `fdmix validate|simulate` must print, from library values."""
    expect = {
        "preset": net.preset,
        "config": _cfg_payload(rep.config),
        "sim": {
            "slots": inp.slots,
            "warmup": inp.warmup,
            "capacity": net.capacity or 10 * (net.m + net.n),
            "seed": inp.seeds[net.name][0],
            "rng": simulator.RNG_ALGORITHM,
        },
    }
    if net.cli == "simulate":
        st = rep.stats
        expect["empirical"] = _report_payload(rep.report)
        expect["counters"] = {
            "total_slots": st.total_slots,
            "ap_wins": st.ap_wins,
            "ap_wins_hd_head": st.ap_wins_hd_head,
            "fd_wins_no_packet": st.fd_wins_no_packet,
        }
        return expect
    expect["z_max"] = 4.0
    expect["theory"] = _report_payload(rep.theory)
    expect["flows"] = [
        {
            "name": f.name,
            "theory": f.theory,
            "mean": None if f.estimate is None else f.estimate.mean,
            "std_error": None if f.estimate is None else f.estimate.std_error,
            "z": f.z,
            "verdict": f.verdict,
        }
        for f in rep.comparison.flows
    ]
    expect["overall"] = "pass"
    return expect


def sim_verify(inp: SimInputs, outputs) -> tuple[list[str], dict]:
    nets, walk = outputs
    bad: list[str] = []
    misses = wins = judged = out_bytes = 0
    for net, (reps, cli_out) in zip(inp.networks, nets):
        done = [rep for rep in reps if rep is not None]
        for i, rep in enumerate(done):
            label = f"{net.name} rep {i}"
            bad += checks.counters(label, rep.stats, net.m, net.n, inp.slots)
            misses += rep.stats.fd_wins_no_packet
            wins += checks.fd_wins(rep.stats, net.n)
            for flow in rep.comparison.flows:
                judged += flow.verdict != stats.NOT_APPLICABLE
                est = flow.estimate
                if est is not None and abs(est.mean - getattr(rep.report, flow.name)) > 1e-12:
                    bad.append(f"{label}: compare() mean of {flow.name} != empirical_report()")
                if flow.theory != getattr(rep.theory, flow.name):
                    bad.append(f"{label}: compare() theory of {flow.name} != throughputs()")
        if not done:
            continue
        first = done[0]
        bad += checks.closed_form(net.name, _net_tuple(first.config), first.theory, net.preset)
        if (first.config.m, first.config.n) != (net.m, net.n):
            bad.append(f"{net.name}: config has m={first.config.m}, n={first.config.n}")
        if first.window is not None:
            entries, debt, measured = first.window
            capacity = net.capacity or 10 * (net.m + net.n)
            if len(entries) != capacity or not all(0 <= e < net.m + net.n for e in entries):
                bad.append(f"{net.name}: new_sim window is not {capacity} valid destinations")
            if debt != (0,) * net.m or measured != 0:
                bad.append(f"{net.name}: new_sim state is not fresh")
        if len(done) == len(reps):
            bad += checks.replicated(net.name, _net_tuple(first.config), [r.report for r in done])
        if cli_out is not None:
            problems, text = checks.cli_run(f"fdmix {net.cli} {net.name}", cli_out)
            bad += problems
            out_bytes += len(text.encode())
            if reps[0] is not None:
                bad += checks.cli_json(f"fdmix {net.cli} {net.name}", text,
                                       _cli_expect(inp, net, reps[0]))
    if walk is not None:
        net = next(net for net in inp.networks if net.name == inp.step)
        outcomes, walk_stats = walk
        label = f"step() walk of {net.name}"
        bad += checks.counters(label, walk_stats, net.m, net.n, inp.slots)
        bad += checks.walk(label, outcomes, walk_stats, net.m, net.n)
        rep0 = nets[inp.networks.index(net)][0][0]
        if rep0 is not None and walk_stats != rep0.stats:
            bad.append(f"{label}: SimStats differ from run() with the same seed")
    counts = {
        "simulator.slots": inp.units(),
        "simulator.miss_ratio": misses / wins if wins else 0.0,
        "stats.flows_judged": judged,
        "cli.output_bytes": out_bytes,
    }
    return bad, counts


def _sim_inputs(workload: str, seed: int) -> SimInputs:
    rng = np.random.default_rng(seed)
    networks = SIM_NETWORKS[workload]
    seeds = {
        net.name: tuple(rng.integers(0, 2**31, checks.REPLICATIONS).tolist())
        for net in networks
    }
    slots, warmup = SIM_SPAN[workload]
    return SimInputs(networks, seeds, slots, warmup, STEP_NETWORK[workload])


# --------------------------------------------------------------------------
# theory_sweep: the closed form only

SWEEP_TOTALS = (10, 40, 100, 400)
CLI_SWEEP_TOTALS = (40, 100)
EXPLICIT_NETWORKS = 4000
EXPLICIT_BATCH = 250
MAX_STATIONS = 60


@dataclass(frozen=True)
class TheoryInputs:
    explicit: tuple  # batches of NetworkConfig
    scenarios: tuple  # (name, path, expected NetworkConfig, preset)
    cli_theory: tuple  # (label, argv, expected NetworkConfig, preset)

    def units(self) -> int:
        """Closed-form evaluations per round, those inside CLI calls included."""
        sweeps = 2 * sum(total + 1 for total in SWEEP_TOTALS)
        cli_sweeps = 2 * sum(total + 1 for total in CLI_SWEEP_TOTALS)
        explicit = sum(len(batch) for batch in self.explicit)
        return sweeps + cli_sweeps + explicit + len(self.scenarios) + len(self.cli_theory)


def _random_network(rng) -> tuple:
    """(m, n, p_A, p_F, p_H) with the probabilities closing to 1.

    One network in ten has a silent AP, to reach the p_A == 0 convention.
    """
    while True:
        m, n = (int(x) for x in rng.integers(0, MAX_STATIONS + 1, 2))
        if m + n:
            break
    a = 0.0 if rng.random() < 0.1 and m else float(rng.random())
    f = float(rng.random()) if m else 0.0
    h = float(rng.random()) if n else 0.0
    total = a + f + h
    return (m, n, a / total, f / total / m if m else 0.0, h / total / n if n else 0.0)


def _theory_inputs(seed: int, out_dir: Path) -> TheoryInputs:
    rng = np.random.default_rng(seed)
    nets = [analytic.NetworkConfig(*_random_network(rng)) for _ in range(EXPLICIT_NETWORKS)]
    explicit = tuple(
        tuple(nets[i:i + EXPLICIT_BATCH]) for i in range(0, len(nets), EXPLICIT_BATCH)
    )
    scenario_dir = out_dir / f"scenarios-seed{seed}"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    scenarios = []
    for i, config in enumerate(nets[:3]):
        scenarios.append((f"explicit{i}", _cfg_payload(config), config, None))
    for preset, build in (("dca", analytic.dca_config), ("fair", analytic.fairness_config)):
        m, n = (int(x) for x in rng.integers(1, MAX_STATIONS + 1, 2))
        scenarios.append((preset, {"preset": preset, "m": m, "n": n}, build(m, n), preset))
    written = []
    for name, payload, config, preset in scenarios:
        path = scenario_dir / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        written.append((name, str(path), config, preset))
    cli_theory = [
        (f"theory.scenario.{name}", ["theory", "--scenario", path], config, preset)
        for name, path, config, preset in written
    ]
    m, n = (int(x) for x in rng.integers(1, MAX_STATIONS + 1, 2))
    cli_theory.append(("theory.flags.dca", ["theory", "--preset", "dca", "--m", str(m),
                                            "--n", str(n)], analytic.dca_config(m, n), "dca"))
    config = nets[3]
    explicit_flags = ["theory"] + Network("x", None, config.m, config.n,
                                          probs=_net_tuple(config)[2:]).flags()
    cli_theory.append(("theory.flags.explicit", explicit_flags, config, None))
    return TheoryInputs(explicit, tuple(written), tuple(cli_theory))


def _evaluate(layers: Layers, config) -> tuple:
    return config, layers.validate(config), layers.head_fraction(config), layers.throughputs(config)


def _sweep(layers: Layers, preset: str, total: int) -> list:
    build = layers.preset[preset]
    return [_evaluate(layers, build(m, total - m)) for m in range(total + 1)]


def _batch(layers: Layers, configs) -> list:
    return [_evaluate(layers, config) for config in configs]


def _scenario(layers: Layers, path: str) -> tuple:
    scenario = layers.load_scenario(path)
    return scenario, layers.throughputs(scenario.config)


def theory_round(inp: TheoryInputs, layers: Layers, call) -> tuple:
    sweeps = tuple(
        call(f"sweep.{preset}.{total}", _sweep, layers, preset, total)
        for preset in ("dca", "fair") for total in SWEEP_TOTALS
    )
    batches = tuple(call("explicit", _batch, layers, batch) for batch in inp.explicit)
    scenarios = tuple(
        call(f"scenario.{name}", _scenario, layers, path) for name, path, _, _ in inp.scenarios
    )
    theory = tuple(call(f"cli.{label}", layers.main, argv) for label, argv, _, _ in inp.cli_theory)
    sweep_csv = tuple(
        call(f"cli.sweep.{total}", layers.main, ["sweep", "--total-stations", str(total)])
        for total in CLI_SWEEP_TOTALS
    )
    return sweeps, batches, scenarios, theory, sweep_csv


def _check_evaluations(label: str, results, preset: str | None) -> list[str]:
    bad = []
    for config, violations, head, report in results:
        where = f"{label} m={config.m} n={config.n}"
        if violations:
            bad.append(f"{where}: validate() reports {violations}")
        if head != report.p:
            bad.append(f"{where}: head_fraction() {head!r} != throughputs().p {report.p!r}")
        bad += checks.closed_form(where, _net_tuple(config), report, preset)
    return bad


def _sweep_rows(total: int) -> list[list[str]]:
    """The rows `fdmix sweep` must print, from library values."""
    rows = []
    for preset, build in (("dca", analytic.dca_config), ("fair", analytic.fairness_config)):
        for m in range(total + 1):
            n = total - m
            config = build(m, n)
            r = analytic.throughputs(config)
            values = (config.p_A, config.p_F, config.p_H, r.p, r.hd_down, r.hd_up,
                      r.fd_down, r.fd_up, r.sum, n * r.hd_down, n * r.hd_up,
                      m * r.fd_down, m * r.fd_up)
            rows.append([preset, str(m), str(n)] + [checks.sig(v) for v in values])
    return rows


def theory_verify(inp: TheoryInputs, outputs) -> tuple[list[str], dict]:
    sweeps, batches, scenarios, theory, sweep_csv = outputs
    bad: list[str] = []
    labels = [(preset, total) for preset in ("dca", "fair") for total in SWEEP_TOTALS]
    for (preset, total), result in zip(labels, sweeps):
        if result is None:
            continue
        bad += _check_evaluations(f"{preset} sweep of {total}", result, preset)
        got = [(config.m, config.n) for config, *_ in result]
        if got != [(m, total - m) for m in range(total + 1)]:
            bad.append(f"{preset} sweep of {total}: wrong station mixes")
    for batch, result in zip(inp.explicit, batches):
        if result is not None:
            bad += _check_evaluations("explicit", result, None)
    for (name, _, config, preset), result in zip(inp.scenarios, scenarios):
        if result is None:
            continue
        scenario, report = result
        if scenario.config != config or scenario.preset != preset:
            bad.append(f"load_scenario({name}) gave {scenario.config}, wrote {config}")
        bad += checks.closed_form(f"scenario {name}", _net_tuple(config), report, preset)
    out_bytes = 0
    for (label, _, config, preset), result in zip(inp.cli_theory, theory):
        if result is None:
            continue
        problems, text = checks.cli_run(f"fdmix {label}", result)
        out_bytes += len(text.encode())
        expect = {
            "preset": preset,
            "config": _cfg_payload(config),
            "theory": _report_payload(analytic.throughputs(config)),
        }
        bad += problems + checks.cli_json(f"fdmix {label}", text, expect)
    for total, result in zip(CLI_SWEEP_TOTALS, sweep_csv):
        if result is None:
            continue
        problems, text = checks.cli_run(f"fdmix sweep {total}", result)
        out_bytes += len(text.encode())
        bad += problems + checks.cli_csv(f"fdmix sweep {total}", text, _sweep_rows(total))
    counts = {
        "simulator.slots": 0,
        "simulator.miss_ratio": 0.0,
        "stats.flows_judged": 0,
        "cli.output_bytes": out_bytes,
    }
    return bad, counts


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: object
    round: object  # (inputs, layers, call) -> outputs
    verify: object  # (inputs, outputs) -> (problems, counts)


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Make a workload's inputs from its seed; the same seed, the same inputs."""
    if name == "theory_sweep":
        return Workload(_theory_inputs(seed, out_dir), theory_round, theory_verify)
    return Workload(_sim_inputs(name, seed), sim_round, sim_verify)
