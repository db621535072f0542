#!/usr/bin/env python3
"""Digests of the seeded outputs a refactor must leave byte-identical.

Prints one sha256 line per section:

- ``run``: the ``SimStats`` repr of ``run()`` over a panel of networks, at
  seeds 0 and 3 and warmups of 4095 and 4097 slots, either side of a
  4096-draw block edge, then over runs that each take their own path: no
  AP, a compacted window, a crowded small window, a one-packet window, and
  a run that ends on a block edge;
- ``step``: the outcomes of ``step()`` walks over the same runs, and each
  walk's final ``state.stats``, window and debt;
- ``cli``: stdout, stderr and exit code of ``theory``, ``simulate``,
  ``validate`` and ``sweep`` on a few command lines, usage errors and
  invalid configs included.

Run it against two source trees and compare the lines::

    PYTHONPATH=src python3 scripts/seeded_digest.py

``tests/test_scripts.py`` pins the three lines.  A change that moves seeded
output on purpose updates that pin and says why in CHANGES.md.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from fdmix.analytic import NetworkConfig, dca_config, fairness_config
from fdmix.cli import main as cli_main
from fdmix.simulator import new_sim, run, step

# The benchmark's network panel, as in tests/test_simulator.py.
PANEL = {
    "dca11": dca_config(1, 1),
    "dca22": dca_config(2, 2),
    "dca42": dca_config(4, 2),
    "fair22": fairness_config(2, 2),
    "fair42": fairness_config(4, 2),
    "mixed11": NetworkConfig(1, 1, 0.6, 0.3, 0.1),
    "dca401": dca_config(40, 1),
    "fair2020": fairness_config(20, 20),
}
# (config, seed, warmup slots, measured slots, capacity); None is the default window.
RUNS = [
    (config, seed, warmup, 2_000, None)
    for config in PANEL.values() for seed in (0, 3) for warmup in (4095, 4097)
] + [
    (fairness_config(3, 0), 0, 4097, 2_000, 2),  # p_A = 0: the head never moves
    (dca_config(300, 0), 0, 4097, 2_000, 50),  # hits pile up until run() compacts
    (dca_config(100, 100), 0, 4097, 2_000, 50),
    (dca_config(40, 1), 0, 4097, 2_000, 1),
    (dca_config(2, 2), 0, 4096, 4096, None),  # ends on a block edge
]

EXPLICIT = ["--m", "1", "--n", "1", "--pA", "0.6", "--pF", "0.3", "--pH", "0.1"]
COMMANDS = [
    ["theory", "--preset", "dca", "--m", "2", "--n", "2"],
    ["theory", "--preset", "fair", "--m", "4", "--n", "2"],
    ["theory", *EXPLICIT],
    ["simulate", "--preset", "dca", "--m", "2", "--n", "2", "--slots", "20000", "--seed", "3"],
    ["simulate", *EXPLICIT, "--slots", "20000", "--warmup", "4097", "--capacity", "3"],
    ["simulate", "--preset", "dca", "--m", "100", "--n", "100", "--slots", "5000", "--capacity", "50"],
    ["validate", "--preset", "fair", "--m", "2", "--n", "2", "--slots", "20000"],
    ["validate", "--preset", "dca", "--m", "40", "--n", "1", "--slots", "20000", "--capacity", "1"],
    ["validate", "--preset", "dca", "--m", "1", "--n", "1", "--slots", "100", "--z-max", "0"],
    ["simulate", "--m", "1", "--n", "1", "--pA", "0.9", "--pF", "0.9", "--pH", "0.9"],
    ["sweep", "--total-stations", "6"],
    ["sweep", "--total-stations", "100"],  # the benchmark's largest CLI sweep
    # a flow printed in exponent form
    ["theory", "--m", "1", "--n", "1", "--pA", "0.99999", "--pF", "5e-06", "--pH", "5e-06"],
    # invalid configs: every broken rule named, in order, on stderr
    ["theory", "--m", "-1", "--n", "0", "--pA", "2", "--pF", "0", "--pH", "0.5"],
    ["theory", "--preset", "dca", "--m", "0", "--n", "0"],
    ["simulate", "--m", "0", "--n", "0", "--pA", "nan", "--pF", "0.1", "--pH", "0"],
    ["validate", "--m", "1", "--n", "1", "--pA", "0.7", "--pF", "0.3", "--pH", "0.1"],
]


def run_section():
    for config, seed, warmup, slots, capacity in RUNS:
        yield repr(run(config, slots, warmup_slots=warmup, capacity=capacity, seed=seed))


def step_section():
    for config, seed, warmup, slots, capacity in RUNS:
        state = new_sim(config, capacity=capacity, seed=seed)
        state.measuring = False
        for _ in range(warmup):
            step(state)
        state.measuring = True
        yield repr([step(state) for _ in range(slots)])
        yield repr((state.stats, list(state.queue.entries), state.debt))


def cli_section():
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        yield repr((argv, code, out.getvalue(), err.getvalue()))


def main() -> int:
    for name, section in (("run", run_section), ("step", step_section), ("cli", cli_section)):
        digest = hashlib.sha256()
        for item in section():
            digest.update(item.encode("utf-8") + b"\n")
        print(f"{digest.hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
