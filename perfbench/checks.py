"""Correctness checks made apart from the program.

Nothing here calls fdmix.  The closed form is evaluated again from the
paper's expressions, simulator counters are held to exact accounting
identities, simulated flows are judged with an error bar taken from
independent seeded replications, and CLI output is parsed and held to the
library's values at 12 significant digits.  Every check returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics

FLOWS = ("p", "hd_down", "hd_up", "fd_down", "fd_up", "sum")

# Two-sided Student t critical value for 7 degrees of freedom at 1e-6, for
# the mean of 8 replications: a correct simulator trips one flow check about
# once in 10^6.
REPLICATIONS = 8
T_CRIT = 15.77

# Slack on float comparisons of two evaluations of the same expression.
FLOAT_TOL = 1e-9


def head_fraction(m: int, n: int, p_A: float, p_F: float) -> tuple[float, float]:
    """Return (p, raw): the head fraction and its value before the cap at 1.

    p = min(1, n/(n+m) * (p_A + m*p_F) / p_A), with the README's conventions
    for absent classes and a silent AP.
    """
    if m == 0:
        return 1.0, 1.0
    if n == 0 or p_A == 0.0:
        return 0.0, 0.0
    raw = n / (n + m) * (p_A + m * p_F) / p_A
    return min(1.0, raw), raw


def flows_at(m: int, n: int, p_A: float, p_F: float, p_H: float, p: float) -> dict:
    """Per-station flows given the head fraction p; the sum adds up the flows."""
    hd_down = p_A * p / n if n else 0.0
    hd_up = p_H if n else 0.0
    fd = p_A * (1.0 - p) / m + p_F if m else 0.0
    total = n * (hd_down + hd_up) + 2 * m * fd
    return {"p": p, "hd_down": hd_down, "hd_up": hd_up, "fd_down": fd,
            "fd_up": fd, "sum": total}


def reference(m: int, n: int, p_A: float, p_F: float, p_H: float) -> dict:
    """The paper's closed-form flows."""
    return flows_at(m, n, p_A, p_F, p_H, head_fraction(m, n, p_A, p_F)[0])


def on_boundary(m: int, n: int, p_A: float, p_F: float) -> bool:
    """True when the head fraction sits exactly on its saturation point."""
    raw = head_fraction(m, n, p_A, p_F)[1]
    return m > 0 and n > 0 and p_A > 0.0 and abs(raw - 1.0) <= FLOAT_TOL


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def closed_form(label: str, net: tuple, report, preset: str | None) -> list[str]:
    """Check a ThroughputReport against the reference and the preset laws.

    ``net`` is (m, n, p_A, p_F, p_H).  Uniform contention with half-duplex
    stations must sum to 1 + m/(1+m+n); the fairness preset must give every
    present class the flow 1/(2n+m).
    """
    m, n = net[0], net[1]
    want = reference(*net)
    bad = [
        f"{label}: {flow} = {getattr(report, flow)!r}, closed form {want[flow]!r}"
        for flow in FLOWS
        if not _close(getattr(report, flow), want[flow])
    ]
    if preset == "dca" and n > 0 and not _close(report.sum, 1 + m / (1 + m + n)):
        bad.append(f"{label}: dca sum {report.sum!r} != 1 + m/(1+m+n)")
    if preset == "fair" and n > 0:
        for flow in ["hd_down", "hd_up"] + (["fd_down", "fd_up"] if m else []):
            if not _close(getattr(report, flow), 1 / (2 * n + m)):
                bad.append(f"{label}: fair {flow} {getattr(report, flow)!r} != 1/(2n+m)")
    return bad


def counters(label: str, stats, m: int, n: int, slots: int) -> list[str]:
    """Exact accounting identities of one run's SimStats.

    Downlink slots equal AP wins plus full-duplex wins; full-duplex uplinks
    equal full-duplex wins plus AP wins on a full-duplex head; every slot is
    won by exactly one of the AP, a full-duplex and a half-duplex station.
    """
    bad = []
    down, up = stats.down_slots, stats.up_slots
    if len(down) != m + n or len(up) != m + n:
        return [f"{label}: {len(down)}/{len(up)} station counters for {m + n} stations"]
    if min(down + up + [stats.ap_wins, stats.ap_wins_hd_head, stats.fd_wins_no_packet]) < 0:
        bad.append(f"{label}: negative counter")
    ap_fd_head = stats.ap_wins - stats.ap_wins_hd_head
    fd_wins = sum(down[n:]) - ap_fd_head
    hd_wins = sum(up[:n])
    if stats.total_slots != slots:
        bad.append(f"{label}: {stats.total_slots} measured slots, asked for {slots}")
    if sum(down) != stats.ap_wins + fd_wins:
        bad.append(f"{label}: downlink slots != AP wins + full-duplex wins")
    if sum(up[n:]) != fd_wins + ap_fd_head:
        bad.append(f"{label}: full-duplex uplinks != full-duplex wins + AP wins on a full-duplex head")
    if stats.ap_wins + fd_wins + hd_wins != stats.total_slots:
        bad.append(f"{label}: wins {stats.ap_wins}+{fd_wins}+{hd_wins} != slots {stats.total_slots}")
    if not 0 <= stats.fd_wins_no_packet <= fd_wins:
        bad.append(f"{label}: {stats.fd_wins_no_packet} misses for {fd_wins} full-duplex wins")
    return bad


def fd_wins(stats, n: int) -> int:
    return sum(stats.down_slots[n:]) - (stats.ap_wins - stats.ap_wins_hd_head)


def replicated(label: str, net: tuple, reports: list) -> list[str]:
    """Judge the mean of independent replications against the closed form.

    The error bar is the replications' own standard error times T_CRIT, so
    slot-to-slot correlation in the queue is accounted for.  On the head
    fraction's saturation boundary the head composition converges like a
    critical random walk (criterion 6b in the README): p and every flow that
    depends on it are biased by order T^-1/2, by many standard errors.  There
    p is checked only as <= 1 and the other flows against the closed form at
    each replication's measured p.
    """
    boundary = on_boundary(*net[:4])
    want = [
        flows_at(*net, r.p) if boundary else reference(*net) for r in reports
    ]
    bad = []
    for flow in FLOWS:
        if boundary and flow == "p":
            if max(r.p for r in reports) > 1.0:
                bad.append(f"{label}: head fraction above 1")
            continue
        dev = [getattr(r, flow) - w[flow] for r, w in zip(reports, want)]
        err = T_CRIT * statistics.stdev(dev) / math.sqrt(len(dev)) + 1e-12
        if abs(statistics.fmean(dev)) > err:
            bad.append(
                f"{label}: {flow} off the closed form by {statistics.fmean(dev):.3g} "
                f"(error bar {err:.3g} from {len(dev)} replications)"
            )
    return bad


def walk(label: str, outcomes: list, stats, m: int, n: int) -> list[str]:
    """Tally step() outcomes and hold them to the walk's own counters."""
    wins = {"ap": 0, "fd": 0, "hd": 0}
    down = [0, 0]  # half-duplex, full-duplex destinations
    for outcome in outcomes:
        wins[outcome.winner] += 1
        if outcome.downlink_to is not None:
            down[outcome.downlink_to.dest_class == "fd"] += 1
    bad = []
    if wins["ap"] != stats.ap_wins or wins["fd"] != fd_wins(stats, n):
        bad.append(f"{label}: step() winners {wins} disagree with its counters")
    if wins["hd"] != sum(stats.up_slots[:n]):
        bad.append(f"{label}: step() half-duplex wins disagree with uplink counters")
    if down != [sum(stats.down_slots[:n]), sum(stats.down_slots[n:])]:
        bad.append(f"{label}: step() downlinks {down} disagree with counters")
    return bad


def sig(value) -> str | None:
    return None if value is None else format(value, ".12g")


def cli_run(label: str, result) -> tuple[list[str], object]:
    """Exit code 0, nothing on stderr; returns (problems, stdout text)."""
    code, out, err = result
    bad = []
    if code != 0:
        bad.append(f"{label}: exit code {code}")
    if err:
        bad.append(f"{label}: stderr {err.strip()[:200]!r}")
    return bad, out


def cli_json(label: str, text: str, expect: dict) -> list[str]:
    """Parse CLI JSON and hold every expected leaf to 12 significant digits.

    ``expect`` mirrors the payload's shape; floats are compared as their
    12-digit renderings, everything else exactly.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: output is not JSON ({exc})"]
    bad = []

    def walk_tree(path, want, got):
        if isinstance(want, dict):
            if not isinstance(got, dict):
                bad.append(f"{label}: {path} is not an object")
                return
            for key, item in want.items():
                walk_tree(f"{path}.{key}", item, got.get(key))
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                bad.append(f"{label}: {path} has the wrong length")
                return
            for i, (w, g) in enumerate(zip(want, got)):
                walk_tree(f"{path}[{i}]", w, g)
        elif isinstance(want, float):
            if not isinstance(got, (int, float)) or sig(float(got)) != sig(want):
                bad.append(f"{label}: {path} = {got!r}, library {sig(want)}")
        elif got != want or type(got) is not type(want):
            bad.append(f"{label}: {path} = {got!r}, expected {want!r}")

    walk_tree("$", expect, payload)
    return bad


def cli_csv(label: str, text: str, rows: list[list[str]]) -> list[str]:
    """Parse a sweep CSV and require exactly ``rows`` after the header."""
    parsed = list(csv.reader(io.StringIO(text)))
    if len(parsed) != len(rows) + 1:
        return [f"{label}: {len(parsed) - 1} rows, expected {len(rows)}"]
    return [
        f"{label}: row {i} {got} != library {want}"
        for i, (got, want) in enumerate(zip(parsed[1:], rows), start=1)
        if got != want
    ]
