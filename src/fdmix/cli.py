"""Command line front end: theory, simulate, sweep and validate.

The network is described either by a preset (``--preset dca|fair`` with
``--m``/``--n``), by explicit probabilities (``--m --n --pA --pF --pH``), or
by a JSON scenario file.  Floats in every output are rendered with 12
significant digits so that repeated runs are byte-identical.

Exit codes: 0 on success, 1 when ``validate`` finds a statistical mismatch,
2 on bad usage or an invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .analytic import (
    InvalidConfigError,
    NetworkConfig,
    as_count,
    dca_config,
    fairness_config,
    require_valid,
    throughputs,
)
from .simulator import (
    RNG_ALGORITHM,
    SimStats,
    default_capacity,
    default_warmup,
    empirical_report,
    run,
)
from .stats import compare

DEFAULT_SLOTS = 1_000_000

PRESETS = {"dca": dca_config, "fair": fairness_config}

_CSV_COLUMNS = (
    "preset,m,n,p_A,p_F,p_H,p,hd_down,hd_up,fd_down,fd_up,sum,"
    "hd_down_total,hd_up_total,fd_down_total,fd_up_total"
)

_CONFIG_KEYS = ("m", "n", "p_A", "p_F", "p_H")
# sim field -> smallest accepted value
_SIM_MINIMUM = {"slots": 1, "warmup": 0, "capacity": 1, "seed": 0}


class ScenarioError(ValueError):
    """A scenario file or flag combination that cannot be interpreted."""


@dataclass(frozen=True)
class Scenario:
    """A network plus the simulation parameters to run it with."""

    config: NetworkConfig
    preset: str | None = None
    slots: int = DEFAULT_SLOTS
    warmup: int | None = None
    capacity: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class SweepSpec:
    """Mix sweep at a fixed station total, one row per preset and mix."""

    total_stations: int
    presets: tuple[str, ...] = ("dca", "fair")


def _sig(value: float) -> str:
    return format(value, ".12g")


def _round_floats(value):
    if isinstance(value, float):
        return float(_sig(value))
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_floats(item) for item in value]
    return value


def _render_json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), indent=2) + "\n"


def _as_prob(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    return float(value)


def load_scenario(path: str) -> Scenario:
    """Parse a JSON scenario file; unknown fields are rejected."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    unknown = sorted(set(raw) - {"preset", "sim", *_CONFIG_KEYS})
    if unknown:
        raise ScenarioError(f"{path}: unknown scenario fields {unknown}")

    sim = raw.get("sim", {})
    if not isinstance(sim, dict):
        raise ScenarioError(f"{path}: 'sim' must be a JSON object")
    unknown = sorted(set(sim) - set(_SIM_MINIMUM))
    if unknown:
        raise ScenarioError(f"{path}: unknown sim fields {unknown}")
    try:
        sim_values = {
            key: as_count(f"sim.{key}", value, _SIM_MINIMUM[key])
            for key, value in sim.items()
        }
    except InvalidConfigError as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    preset = raw.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ScenarioError(f"{path}: unknown preset {preset!r}")
        if any(key in raw for key in ("p_A", "p_F", "p_H")):
            raise ScenarioError(
                f"{path}: a preset fixes the probabilities; "
                "p_A/p_F/p_H may not also be given"
            )
        missing = [key for key in ("m", "n") if key not in raw]
        if missing:
            raise ScenarioError(f"{path}: preset scenarios need {missing}")
        config = PRESETS[preset](raw["m"], raw["n"])
    else:
        missing = [key for key in _CONFIG_KEYS if key not in raw]
        if missing:
            raise ScenarioError(f"{path}: missing scenario fields {missing}")
        config = NetworkConfig(
            m=raw["m"],
            n=raw["n"],
            p_A=_as_prob("p_A", raw["p_A"]),
            p_F=_as_prob("p_F", raw["p_F"]),
            p_H=_as_prob("p_H", raw["p_H"]),
        )
    require_valid(config)
    return Scenario(
        config=config,
        preset=preset,
        slots=sim_values.get("slots", DEFAULT_SLOTS),
        warmup=sim_values.get("warmup"),
        capacity=sim_values.get("capacity"),
        seed=sim_values.get("seed", 0),
    )


def _scenario_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Scenario:
    flag_names = ("preset", "m", "n", "pA", "pF", "pH")
    given = [name for name in flag_names if getattr(args, name) is not None]
    if args.scenario is not None:
        if given:
            parser.error("--scenario cannot be combined with config flags")
        scenario = load_scenario(args.scenario)
    elif args.preset is not None:
        if args.pA is not None or args.pF is not None or args.pH is not None:
            parser.error("--preset and --pA/--pF/--pH are mutually exclusive")
        if args.m is None or args.n is None:
            parser.error("--preset requires --m and --n")
        scenario = Scenario(
            config=PRESETS[args.preset](args.m, args.n), preset=args.preset
        )
    else:
        if len(given) < 5:
            parser.error(
                "describe the network with --preset --m --n, "
                "with --m --n --pA --pF --pH, or with --scenario FILE"
            )
        config = NetworkConfig(
            m=args.m, n=args.n, p_A=args.pA, p_F=args.pF, p_H=args.pH
        )
        require_valid(config)
        scenario = Scenario(config=config)
    overrides = {
        key: getattr(args, key)
        for key in _SIM_MINIMUM
        if getattr(args, key, None) is not None
    }
    return replace(scenario, **overrides)


def _sim_payload(scenario: Scenario) -> dict:
    warmup = scenario.warmup
    if warmup is None:
        warmup = default_warmup(scenario.slots)
    capacity = scenario.capacity
    if capacity is None:
        capacity = default_capacity(scenario.config)
    return {
        "slots": scenario.slots,
        "warmup": warmup,
        "capacity": capacity,
        "seed": scenario.seed,
        "rng": RNG_ALGORITHM,
    }


def cmd_theory(scenario: Scenario) -> dict:
    """Closed-form flows for the scenario's network."""
    report = throughputs(scenario.config)
    return {
        "preset": scenario.preset,
        "config": asdict(scenario.config),
        "theory": asdict(report),
    }


def _simulate(scenario: Scenario) -> SimStats:
    return run(
        scenario.config,
        scenario.slots,
        warmup_slots=scenario.warmup,
        capacity=scenario.capacity,
        seed=scenario.seed,
    )


def cmd_simulate(scenario: Scenario) -> dict:
    """Run the slot simulator and report empirical flows plus counters."""
    stats = _simulate(scenario)
    report = empirical_report(stats, scenario.config)
    return {
        "preset": scenario.preset,
        "config": asdict(scenario.config),
        "sim": _sim_payload(scenario),
        "empirical": asdict(report),
        "counters": {
            "total_slots": stats.total_slots,
            "ap_wins": stats.ap_wins,
            "ap_wins_hd_head": stats.ap_wins_hd_head,
            "fd_wins_no_packet": stats.fd_wins_no_packet,
        },
    }


def cmd_validate(scenario: Scenario, z_max: float) -> tuple[dict, int]:
    """Simulate, judge against the closed form, and return (payload, exit code)."""
    stats = _simulate(scenario)
    theory = throughputs(scenario.config)
    result = compare(theory, stats, scenario.config, z_max=z_max)
    flows = [
        {
            "name": flow.name,
            "theory": flow.theory,
            "mean": None if flow.estimate is None else flow.estimate.mean,
            "std_error": None if flow.estimate is None else flow.estimate.std_error,
            "z": flow.z,
            "verdict": flow.verdict,
        }
        for flow in result.flows
    ]
    payload = {
        "preset": scenario.preset,
        "config": asdict(scenario.config),
        "sim": _sim_payload(scenario),
        "z_max": z_max,
        "theory": asdict(theory),
        "flows": flows,
        "overall": "pass" if result.overall else "fail",
    }
    return payload, 0 if result.overall else 1


def cmd_sweep(spec: SweepSpec) -> str:
    """CSV over every mix m + n == total_stations, one block per preset.

    Per-station flows are accompanied by *_total columns (flow times class
    size) so aggregate curves can be plotted without post-processing.
    """
    if spec.total_stations < 1:
        raise ScenarioError("total_stations must be >= 1")
    lines = [_CSV_COLUMNS]
    for preset in sorted(spec.presets):
        if preset not in PRESETS:
            raise ScenarioError(f"unknown preset {preset!r}")
        build = PRESETS[preset]
        for m in range(spec.total_stations + 1):
            n = spec.total_stations - m
            config = build(m, n)
            report = throughputs(config)
            cells = [
                preset,
                str(m),
                str(n),
                _sig(config.p_A),
                _sig(config.p_F),
                _sig(config.p_H),
                _sig(report.p),
                _sig(report.hd_down),
                _sig(report.hd_up),
                _sig(report.fd_down),
                _sig(report.fd_up),
                _sig(report.sum),
                _sig(n * report.hd_down),
                _sig(n * report.hd_up),
                _sig(m * report.fd_down),
                _sig(m * report.fd_up),
            ]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdmix",
        description=(
            "Closed-form throughput and slot simulation for one full-duplex "
            "AP serving m full-duplex and n half-duplex stations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--m", type=int, help="full-duplex station count")
        p.add_argument("--n", type=int, help="half-duplex station count")
        p.add_argument("--pA", type=float, help="AP transmit probability")
        p.add_argument("--pF", type=float, help="per full-duplex station probability")
        p.add_argument("--pH", type=float, help="per half-duplex station probability")
        p.add_argument("--scenario", metavar="FILE", help="JSON scenario file")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    def add_sim_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--slots", type=int, help=f"measured slots (default {DEFAULT_SLOTS})")
        p.add_argument("--warmup", type=int, help="warmup slots (default 1%%, min 10000)")
        p.add_argument("--capacity", type=int, help="queue window size (default 10 per station)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    p_theory = sub.add_parser("theory", help="print closed-form flows as JSON")
    add_config_flags(p_theory)

    p_sim = sub.add_parser("simulate", help="run the slot simulator, print empirical flows")
    add_config_flags(p_sim)
    add_sim_flags(p_sim)

    p_val = sub.add_parser("validate", help="simulate and judge each flow against theory")
    add_config_flags(p_val)
    add_sim_flags(p_val)
    p_val.add_argument("--z-max", type=float, default=4.0, dest="z_max",
                       help="acceptance threshold in standard errors (default 4)")

    p_sweep = sub.add_parser("sweep", help="CSV sweep of both presets at a fixed station total")
    p_sweep.add_argument("--total-stations", type=int, default=40, dest="total_stations")
    p_sweep.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            _emit(cmd_sweep(SweepSpec(total_stations=args.total_stations)), args.out)
            return 0
        scenario = _scenario_from_args(args, parser)
        if args.command == "theory":
            _emit(_render_json(cmd_theory(scenario)), args.out)
            return 0
        if args.command == "simulate":
            _emit(_render_json(cmd_simulate(scenario)), args.out)
            return 0
        payload, code = cmd_validate(scenario, args.z_max)
        _emit(_render_json(payload), args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"fdmix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
