#!/usr/bin/env python3
"""Generate the station-mix sweep table behind the throughput figure.

Writes the CSV produced by ``fdmix sweep`` (per-station and aggregate flows
for both presets at a fixed station total) and prints the aggregate curves
so the shape is visible without a plotting stack.  Any plotting tool can
consume the CSV; the aggregate columns are ``sum`` per preset against ``m``.
"""

import argparse
import csv
import io
import sys

from fdmix.cli import cmd_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total-stations", type=int, default=40)
    parser.add_argument("--out", default="sweep.csv", help="CSV destination")
    args = parser.parse_args(argv)

    csv_text = cmd_sweep(args.total_stations)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(csv_text)
    print(f"wrote {args.out}")

    rows = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        rows.setdefault(row["preset"], []).append(row)
    print(f"\naggregate packets per slot, {args.total_stations} stations")
    print(f"{'m':>3} {'n':>3} {'uniform':>10} {'fairness':>10}")
    for dca, fair in zip(rows["dca"], rows["fair"]):
        print(
            f"{dca['m']:>3} {dca['n']:>3} "
            f"{float(dca['sum']):>10.6f} {float(fair['sum']):>10.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
