#!/usr/bin/env python3
"""Full-length theory-versus-simulation validation across configurations.

Runs ``fdmix validate`` at full length (10^6 slots by default) for a set of
representative networks and several seeds, and prints every flow's z score.
This is the long-form companion of the quick control test in the suite.

The fairness preset is expected to show large z on the head composition
``p``: it sits exactly on the head-saturation boundary, where the
composition's excursions are burst-correlated and the binomial error model
does not apply.  All its other flows should pass.
"""

import argparse
import sys

from fdmix.analytic import NetworkConfig, as_count, dca_config, fairness_config
from fdmix.cli import Scenario, cmd_validate
from fdmix.stats import NOT_APPLICABLE, PASS

CASES = [
    ("dca(2,2)", dca_config(2, 2)),
    ("dca(4,4)", dca_config(4, 4)),
    ("fair(2,2)", fairness_config(2, 2)),
    ("fair(3,5)", fairness_config(3, 5)),
    ("explicit(1,1)", NetworkConfig(1, 1, 0.6, 0.3, 0.1)),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=1_000_000)
    parser.add_argument("--seeds", type=int, default=3, help="seeds 0..N-1")
    parser.add_argument("--z-max", type=float, default=4.0)
    args = parser.parse_args(argv)
    try:
        slots = as_count("slots", args.slots, 1)
        seeds = as_count("seeds", args.seeds, 1)
    except ValueError as exc:
        parser.error(str(exc))

    width = max(len(name) for name, _ in CASES)
    failures = 0
    for name, config in CASES:
        for seed in range(seeds):
            scenario = Scenario(config=config, slots=slots, seed=seed)
            try:
                payload, code = cmd_validate(scenario, args.z_max)
            except (ValueError, OSError) as exc:
                parser.error(str(exc))
            cells = []
            for flow in payload["flows"]:
                if flow["verdict"] == NOT_APPLICABLE:
                    cells.append(f"{flow['name']}=na")
                elif flow["z"] is None:
                    cells.append(f"{flow['name']}=exact:{flow['verdict']}")
                else:
                    mark = "" if flow["verdict"] == PASS else "!"
                    cells.append(f"{flow['name']}={flow['z']:+.2f}{mark}")
            verdict = "pass" if code == 0 else "FAIL"
            print(f"{name:<{width}} seed={seed} {verdict:<4} " + " ".join(cells))
            failures += code != 0
    print(f"\n{failures} failing run(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
