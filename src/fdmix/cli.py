"""Command line front end: theory, simulate, sweep and validate.

The network is described either by a preset (``--preset dca|fair`` with
``--m``/``--n``), by explicit probabilities (``--m --n --pA --pF --pH``), or
by a JSON scenario file.  Floats in every output are rendered with 12
significant digits so that repeated runs are byte-identical.

Exit codes: 0 on success, 1 when ``validate`` finds a statistical mismatch,
2 on bad usage, an invalid configuration or too little memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .analytic import (
    NetworkConfig,
    ThroughputReport,
    as_count,
    dca_config,
    fairness_config,
    require_valid,
    throughputs,
)

# The simulator and the judge import numpy, which theory and sweep do not
# need, so only the commands that simulate import them, when they run.
if TYPE_CHECKING:
    from .simulator import SimStats

DEFAULT_SLOTS = 1_000_000

PRESETS = {"dca": dca_config, "fair": fairness_config}

_CONFIG_KEYS = tuple(field.name for field in fields(NetworkConfig))
_COUNTS, _PROBS = _CONFIG_KEYS[:2], _CONFIG_KEYS[2:]  # a preset's arguments, and what it fixes
_CSV_COLUMNS = ",".join((
    "preset", *_CONFIG_KEYS, *ThroughputReport._fields,
    "hd_down_total", "hd_up_total", "fd_down_total", "fd_up_total",
))
# Every float in every output: 12 significant digits.
_SIG = "%.12g"
# One sweep row: the preset and the two counts, then a float per other column.
_CSV_ROW = "%s,%d,%d" + ("," + _SIG) * (_CSV_COLUMNS.count(",") - 2)
# sim field -> smallest accepted value
_SIM_MINIMUM = {"slots": 1, "warmup": 0, "capacity": 1, "seed": 0}


@dataclass(frozen=True)
class Scenario:
    """A network plus the simulation parameters to run it with."""

    config: NetworkConfig
    preset: str | None = None
    slots: int = DEFAULT_SLOTS
    warmup: int | None = None
    capacity: int | None = None
    seed: int = 0


def _sig(value: float) -> str:
    return _SIG % value


def _round_floats(value):
    if isinstance(value, float):
        return float(_sig(value))
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_floats(item) for item in value]
    return value


def _render_json(payload: dict) -> str:
    # default=operator.index serialises integral numpy values such as np.int64
    return json.dumps(_round_floats(payload), indent=2, default=operator.index) + "\n"


def parse_scenario(raw) -> Scenario:
    """Build a :class:`Scenario` from a scenario mapping, as a JSON file holds it.

    The mapping names a preset with ``m`` and ``n``, or all five of ``m``,
    ``n``, ``p_A``, ``p_F`` and ``p_H``, plus an optional ``sim`` block.
    Unknown fields are rejected.  Raises :class:`ValueError` (or its
    subclass :class:`InvalidConfigError`) naming the field that is missing
    or bad.
    """
    if not isinstance(raw, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = sorted(set(raw) - {"preset", "sim", *_CONFIG_KEYS})
    if unknown:
        raise ValueError(f"unknown scenario fields {unknown}")
    sim = raw.get("sim", {})
    if not isinstance(sim, dict):
        raise ValueError("'sim' must be a JSON object")
    unknown = sorted(set(sim) - set(_SIM_MINIMUM))
    if unknown:
        raise ValueError(f"unknown sim fields {unknown}")
    sim = {key: as_count(f"sim.{key}", value, _SIM_MINIMUM[key]) for key, value in sim.items()}

    preset = raw.get("preset")
    if preset is None:
        missing = [key for key in _CONFIG_KEYS if key not in raw]
        if missing:
            raise ValueError(f"missing scenario fields {missing}")
        config = require_valid(NetworkConfig(*(raw[key] for key in _CONFIG_KEYS)))
    else:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        given = [key for key in _PROBS if key in raw]
        if given:
            raise ValueError(
                f"a preset fixes the probabilities; {given} may not also be given"
            )
        missing = [key for key in _COUNTS if key not in raw]
        if missing:
            raise ValueError(f"preset scenarios need {missing}")
        config = PRESETS[preset](*(raw[key] for key in _COUNTS))
    return Scenario(config=config, preset=preset, **sim)


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def load_scenario(path: str) -> Scenario:
    """Parse a JSON scenario file with :func:`parse_scenario`."""
    return parse_scenario(_read_json(path))


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    # Flags make the same mapping a scenario file holds; sim flags override
    # the file's sim block field by field.
    raw = {
        field: getattr(args, field)
        for field in ("preset", *_CONFIG_KEYS)
        if getattr(args, field) is not None
    }
    if args.scenario is not None:
        if raw:
            raise ValueError("--scenario cannot be combined with config flags")
        raw = _read_json(args.scenario)
    sim = {
        key: getattr(args, key)
        for key in _SIM_MINIMUM
        if getattr(args, key, None) is not None
    }
    if isinstance(raw, dict) and isinstance(raw.get("sim", {}), dict):
        raw = {**raw, "sim": {**raw.get("sim", {}), **sim}}
    return parse_scenario(raw)


def _head(scenario: Scenario) -> dict:
    """The fields every payload opens with; the config in plain numbers."""
    return {"preset": scenario.preset, "config": asdict(require_valid(scenario.config))}


def cmd_theory(scenario: Scenario) -> dict:
    """Closed-form flows for the scenario's network."""
    return {**_head(scenario), "theory": throughputs(scenario.config)._asdict()}


def _simulate(scenario: Scenario) -> tuple[SimStats, dict]:
    """Run the scenario; also return the payload head, with ``sim`` as run."""
    from .simulator import RNG_ALGORITHM, default_capacity, default_warmup, run

    warmup, capacity = scenario.warmup, scenario.capacity
    sim = {
        "slots": scenario.slots,
        "warmup": default_warmup(scenario.slots) if warmup is None else warmup,
        "capacity": default_capacity(scenario.config) if capacity is None else capacity,
        "seed": scenario.seed,
        "rng": RNG_ALGORITHM,
    }
    stats = run(
        scenario.config,
        sim["slots"],
        warmup_slots=sim["warmup"],
        capacity=sim["capacity"],
        seed=sim["seed"],
    )
    return stats, {**_head(scenario), "sim": sim}


def cmd_simulate(scenario: Scenario) -> dict:
    """Run the slot simulator and report empirical flows plus counters."""
    from .simulator import empirical_report

    stats, head = _simulate(scenario)
    report = empirical_report(stats, scenario.config)
    return {
        **head,
        "empirical": report._asdict(),
        "counters": {
            "total_slots": stats.total_slots,
            "ap_wins": stats.ap_wins,
            "ap_wins_hd_head": stats.ap_wins_hd_head,
            "fd_wins_no_packet": stats.fd_wins_no_packet,
        },
    }


def cmd_validate(scenario: Scenario, z_max: float) -> tuple[dict, int]:
    """Simulate, judge against the closed form, and return (payload, exit code)."""
    from .stats import FAIL, PASS, _check_z_max, compare

    _check_z_max(z_max)  # before any slot is simulated
    stats, head = _simulate(scenario)
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
        **head,
        "z_max": result.z_max,
        "theory": theory._asdict(),
        "flows": flows,
        "overall": PASS if result.overall else FAIL,
    }
    return payload, 0 if result.overall else 1


def cmd_sweep(total_stations: int) -> str:
    """CSV over every mix m + n == total_stations, one block per preset.

    Per-station flows are accompanied by *_total columns (flow times class
    size) so aggregate curves can be plotted without post-processing.
    """
    total = as_count("total_stations", total_stations, 1)
    lines = [_CSV_COLUMNS]
    for preset, build in sorted(PRESETS.items()):
        for m in range(total + 1):
            n = total - m
            config = build(m, n)
            r = throughputs(config)
            lines.append(_CSV_ROW % (
                preset, m, n, config.p_A, config.p_F, config.p_H, *r,
                n * r.hd_down, n * r.hd_up, m * r.fd_down, m * r.fd_up,
            ))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# Building the parser costs more than a theory call; parse_args leaves it
# unchanged, so every main() call in a process shares one.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for the fdmix command line."""
    parser = argparse.ArgumentParser(
        prog="fdmix",
        description=(
            "Closed-form throughput and slot simulation for one full-duplex "
            "AP serving m full-duplex and n half-duplex stations."
        ),
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--preset", choices=sorted(PRESETS))
    config.add_argument("--m", type=int, help="full-duplex station count")
    config.add_argument("--n", type=int, help="half-duplex station count")
    config.add_argument("--pA", type=float, dest="p_A", metavar="PA",
                        help="AP transmit probability")
    config.add_argument("--pF", type=float, dest="p_F", metavar="PF",
                        help="per full-duplex station probability")
    config.add_argument("--pH", type=float, dest="p_H", metavar="PH",
                        help="per half-duplex station probability")
    config.add_argument("--scenario", metavar="FILE", help="JSON scenario file")
    config.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--slots", type=int, help=f"measured slots (default {DEFAULT_SLOTS})")
    sim.add_argument("--warmup", type=int, help="warmup slots (default 1%%, min 10000)")
    sim.add_argument("--capacity", type=int, help="queue window size (default 10 per station)")
    sim.add_argument("--seed", type=int, help="RNG seed (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("theory", help="print closed-form flows as JSON", parents=[config])
    sub.add_parser("simulate", help="run the slot simulator, print empirical flows",
                   parents=[config, sim])
    p_val = sub.add_parser("validate", help="simulate and judge each flow against theory",
                           parents=[config, sim])
    p_val.add_argument("--z-max", type=float, default=4.0, dest="z_max",
                       help="acceptance threshold in standard errors (default 4)")

    p_sweep = sub.add_parser("sweep", help="CSV sweep of both presets at a fixed station total")
    p_sweep.add_argument("--total-stations", type=int, default=40, dest="total_stations")
    p_sweep.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            _emit(cmd_sweep(args.total_stations), args.out)
            return 0
        scenario = _scenario_from_args(args)
        if args.command == "theory":
            payload, code = cmd_theory(scenario), 0
        elif args.command == "simulate":
            payload, code = cmd_simulate(scenario), 0
        else:
            payload, code = cmd_validate(scenario, args.z_max)
        _emit(_render_json(payload), args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"fdmix: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("fdmix: error: out of memory for this network and window", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
