"""Slot-by-slot Monte Carlo simulator for the mixed-duplex access network.

The AP holds an infinite backlog of downlink packets with independent
uniform destinations.  Materialising the whole backlog is impossible, so the
simulator keeps a sliding window: the oldest ``capacity`` packets, stored as
encoded destinations (half-duplex stations first, then full-duplex; see
``encode_dest``).  When a winning full-duplex station finds no packet for
itself inside the window, the packet it serves is the first one addressed to
it beyond the window.  That slot still carries a downlink, the event is
counted in ``fd_wins_no_packet``, and a per-station debt is recorded so that
later window refills skip destinations already consumed ahead of time.
Because backlog destinations are independent, consuming the first
out-of-window packet for station i and skipping i in ``debt[i]`` later draws
leaves the window distribution identical to the one an unbounded queue would
produce.

One categorical draw decides each slot: the AP transmits with probability
``p_A`` (serving the window head, FIFO), otherwise a station transmits.  A
winning full-duplex station receives its own packet out of turn and answers
it in the same slot, so its downlink and uplink counts advance together.  A
winning half-duplex station only uplinks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytic import NetworkConfig, ThroughputReport, as_count, require_valid

HD = "hd"
FD = "fd"
AP = "ap"

# Identifier of the pseudo-random generator backing every run; recorded in
# CLI output so results can be tied to the bit stream that produced them.
RNG_ALGORITHM = "pcg64"

_BLOCK = 4096  # draws fetched from numpy per batch


@dataclass(frozen=True)
class Packet:
    """A downlink packet, identified by its destination station."""

    dest_class: str  # HD or FD
    dest_index: int  # 0-based within the class


class SlotOutcome(NamedTuple):
    """What a single slot carried.

    ``winner`` is ``"ap"``, ``"fd"`` or ``"hd"``.  ``downlink_to`` and
    ``uplink_from`` name the stations at each end of the slot's transfers
    (``uplink_from`` is a source, expressed with the same Packet address).
    ``head_class_at_win`` records the class of the queue head popped by an
    AP win and is None for station wins.
    """

    winner: str
    downlink_to: Packet | None
    uplink_from: Packet | None
    head_class_at_win: str | None


@dataclass
class ApQueue:
    """Window over the AP backlog: the oldest ``capacity`` packets.

    ``entries`` holds encoded destinations, oldest first.  The length is
    restored to ``capacity`` by the end of every step.
    """

    entries: deque[int]
    capacity: int


@dataclass
class SimStats:
    """Counters accumulated over measured slots.

    Per-station lists are indexed by encoded destination: half-duplex
    stations occupy 0..n-1, full-duplex stations n..n+m-1.
    ``ap_wins_hd_head`` counts AP wins whose popped head was half-duplex,
    which estimates the head composition.  ``fd_wins_no_packet`` counts
    full-duplex wins served from beyond the window.
    """

    total_slots: int = 0
    down_slots: list[int] = field(default_factory=list)
    up_slots: list[int] = field(default_factory=list)
    ap_wins: int = 0
    ap_wins_hd_head: int = 0
    fd_wins_no_packet: int = 0


@dataclass
class SimState:
    config: NetworkConfig
    queue: ApQueue
    debt: list[int]  # per FD station, packets consumed beyond the window
    rng: np.random.Generator
    stats: SimStats
    measuring: bool = True
    # batched draws; refilled from rng in blocks to keep the loop cheap
    _u: list[float] = field(default_factory=list)
    _ui: int = 0
    _d: list[int] = field(default_factory=list)
    _di: int = 0


def encode_dest(config: NetworkConfig, packet: Packet) -> int:
    """Map a packet destination to its queue code (HD first, then FD)."""
    if packet.dest_class == HD:
        if not 0 <= packet.dest_index < config.n:
            raise ValueError(f"no half-duplex station {packet.dest_index}")
        return packet.dest_index
    if packet.dest_class == FD:
        if not 0 <= packet.dest_index < config.m:
            raise ValueError(f"no full-duplex station {packet.dest_index}")
        return config.n + packet.dest_index
    raise ValueError(f"unknown station class {packet.dest_class!r}")


def decode_dest(config: NetworkConfig, code: int) -> Packet:
    """Inverse of :func:`encode_dest`."""
    if not 0 <= code < config.n + config.m:
        raise ValueError(f"destination code {code} out of range")
    if code < config.n:
        return Packet(HD, code)
    return Packet(FD, code - config.n)


def default_capacity(config: NetworkConfig) -> int:
    """Window size used when none is given: 10 packets per station."""
    return 10 * (config.m + config.n)


def default_warmup(measured_slots: int) -> int:
    """Warmup used when none is given: 1% of the run, floored at 10^4."""
    return max(10_000, measured_slots // 100)


def new_sim(
    config: NetworkConfig,
    capacity: int | None = None,
    seed: int = 0,
) -> SimState:
    """Build a simulator state with a freshly drawn backlog window.

    ``capacity`` defaults to 10 * (m + n).  The initial window is filled
    with independent uniform destinations, the stationary condition for the
    un-consumed part of the backlog.
    """
    require_valid(config)
    total = config.m + config.n
    if capacity is None:
        capacity = default_capacity(config)
    capacity = as_count("capacity", capacity, 1)
    seed = as_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    entries: deque[int] = deque(rng.integers(0, total, capacity).tolist())
    return SimState(
        config=config,
        queue=ApQueue(entries=entries, capacity=capacity),
        debt=[0] * config.m,
        rng=rng,
        stats=SimStats(
            down_slots=[0] * total,
            up_slots=[0] * total,
        ),
    )


def _next_u(state: SimState) -> float:
    if state._ui >= len(state._u):
        state._u = state.rng.random(_BLOCK).tolist()
        state._ui = 0
    u = state._u[state._ui]
    state._ui += 1
    return u


def _next_dest(state: SimState) -> int:
    if state._di >= len(state._d):
        total = state.config.m + state.config.n
        state._d = state.rng.integers(0, total, _BLOCK).tolist()
        state._di = 0
    d = state._d[state._di]
    state._di += 1
    return d


def _refill(state: SimState) -> None:
    # Draw backlog destinations until one survives the debt filter; draws
    # matching a station with positive debt materialise packets that were
    # already consumed out of turn.
    n = state.config.n
    debt = state.debt
    while True:
        d = _next_dest(state)
        if d >= n and debt[d - n] > 0:
            debt[d - n] -= 1
            continue
        state.queue.entries.append(d)
        return


def step(state: SimState) -> SlotOutcome:
    """Advance one slot, updating counters when ``state.measuring`` is set."""
    cfg = state.config
    n, m = cfg.n, cfg.m
    stats = state.stats
    measuring = state.measuring
    if measuring:
        stats.total_slots += 1
    u = _next_u(state)
    if u < cfg.p_A:
        # AP wins: serve the window head in FIFO order.
        head = state.queue.entries.popleft()
        _refill(state)
        if head < n:
            if measuring:
                stats.ap_wins += 1
                stats.ap_wins_hd_head += 1
                stats.down_slots[head] += 1
            return SlotOutcome(AP, Packet(HD, head), None, HD)
        if measuring:
            stats.ap_wins += 1
            stats.down_slots[head] += 1
            stats.up_slots[head] += 1
        return SlotOutcome(AP, Packet(FD, head - n), Packet(FD, head - n), FD)
    if m > 0 and (n == 0 or u < cfg.p_A + m * cfg.p_F):
        # A full-duplex station wins and pulls its own packet out of turn.
        if cfg.p_F > 0.0:
            k = min(int((u - cfg.p_A) / cfg.p_F), m - 1)
        else:
            k = 0  # unreachable for valid configs; float-spill guard
        code = n + k
        entries = state.queue.entries
        if code in entries:
            entries.remove(code)
            _refill(state)
        else:
            # Served from beyond the window; settle the debt on refill.
            state.debt[k] += 1
            if measuring:
                stats.fd_wins_no_packet += 1
        if measuring:
            stats.down_slots[code] += 1
            stats.up_slots[code] += 1
        return SlotOutcome(FD, Packet(FD, k), Packet(FD, k), None)
    # A half-duplex station wins; uplink only, the queue is untouched.
    if cfg.p_H > 0.0:
        j = min(int((u - cfg.p_A - m * cfg.p_F) / cfg.p_H), n - 1)
    else:
        j = 0  # unreachable for valid configs; float-spill guard
    if measuring:
        stats.up_slots[j] += 1
    return SlotOutcome(HD, None, Packet(HD, j), None)


def run(
    config: NetworkConfig,
    measured_slots: int,
    warmup_slots: int | None = None,
    capacity: int | None = None,
    seed: int = 0,
) -> SimStats:
    """Simulate ``measured_slots`` slots after a warmup and return counters.

    ``warmup_slots`` defaults to 1% of the measured span, floored at 10^4,
    long enough for the window head composition to forget the uniform
    initial fill.
    """
    measured_slots = as_count("measured_slots", measured_slots, 1)
    if warmup_slots is None:
        warmup_slots = default_warmup(measured_slots)
    warmup_slots = as_count("warmup_slots", warmup_slots, 0)
    state = new_sim(config, capacity=capacity, seed=seed)
    state.measuring = False
    for _ in range(warmup_slots):
        step(state)
    state.measuring = True
    for _ in range(measured_slots):
        step(state)
    return state.stats


def flow_counts(stats: SimStats, config: NetworkConfig) -> dict[str, tuple[int, int]]:
    """(count, trials) per measured flow: the per-class sums of ``stats``.

    ``hd_down``/``hd_up`` count packets per half-duplex station-slot,
    ``fd_down``/``fd_up`` per full-duplex station-slot, and ``p`` the AP
    wins whose head was half-duplex.  Flows of an absent station class are
    left out, as is ``p`` when the AP never won a slot.
    """
    if stats.total_slots <= 0:
        raise ValueError("no measured slots to report on")
    n, m, t = config.n, config.m, stats.total_slots
    out = {}
    if n > 0:
        out["hd_down"] = (sum(stats.down_slots[:n]), n * t)
        out["hd_up"] = (sum(stats.up_slots[:n]), n * t)
    if m > 0:
        out["fd_down"] = (sum(stats.down_slots[n:]), m * t)
        out["fd_up"] = (sum(stats.up_slots[n:]), m * t)
    if stats.ap_wins > 0:
        out["p"] = (stats.ap_wins_hd_head, stats.ap_wins)
    return out


def empirical_report(stats: SimStats, config: NetworkConfig) -> ThroughputReport:
    """Turn raw counters into per-station flow estimates.

    Mirrors the analytic report: per-station means over the class, head
    composition from AP wins, aggregate packets per slot.  Flows of an
    absent class are 0; the head composition is reported as 0 when the AP
    never won a slot (no observations).
    """
    counts = flow_counts(stats, config)
    mean = {name: count / trials for name, (count, trials) in counts.items()}
    packets = sum(count for name, (count, _) in counts.items() if name != "p")
    return ThroughputReport(
        p=mean.get("p", 0.0),
        hd_down=mean.get("hd_down", 0.0),
        hd_up=mean.get("hd_up", 0.0),
        fd_down=mean.get("fd_down", 0.0),
        fd_up=mean.get("fd_up", 0.0),
        sum=packets / stats.total_slots,
    )
