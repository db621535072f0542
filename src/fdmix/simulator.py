"""Slot-by-slot Monte Carlo simulator for the mixed-duplex access network.

The AP holds an infinite backlog of downlink packets with independent
uniform destinations.  Materialising the whole backlog is impossible, so the
simulator keeps a sliding window: the oldest ``capacity`` packets, stored as
destination codes.  Half-duplex station ``i`` has code ``i`` and full-duplex
station ``k`` code ``n + k``; ``step()`` turns codes into :class:`Packet`
addresses.  When a winning full-duplex station finds no packet for itself
inside the window, the packet it serves is the first one addressed to it
beyond the window.  That slot still carries a downlink, the event is
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

:func:`step` plays one slot and is the readable definition; :func:`run`
plays a whole span from the same draws and returns the same counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .analytic import NetworkConfig, ThroughputReport, as_count, require_valid

HD = "hd"
FD = "fd"
AP = "ap"

# Identifier of the pseudo-random generator backing every run; recorded in
# CLI output so results can be tied to the bit stream that produced them.
RNG_ALGORITHM = "pcg64"

_BLOCK = 4096  # draws fetched from numpy per batch


@dataclass(frozen=True, slots=True)
class Packet:
    """A downlink packet, identified by its destination station.

    Slotted, because ``step()`` makes one or two per slot and a caller may
    keep every outcome.
    """

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
    uniforms: Iterator[float]  # one per slot, picks the winner
    dests: Iterator[int]  # backlog destinations for window refills
    stats: SimStats
    measuring: bool = True


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
    config = require_valid(config)
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
        uniforms=_stream(rng.random),
        dests=_stream(partial(rng.integers, 0, total)),
        stats=SimStats(
            down_slots=[0] * total,
            up_slots=[0] * total,
        ),
    )


def _stream(draw: Callable[[int], np.ndarray]) -> Iterator:
    """Yield draws one at a time, fetched lazily in blocks to keep the loop cheap."""
    while True:
        yield from draw(_BLOCK).tolist()


def _refill(state: SimState) -> None:
    # Draw backlog destinations until one survives the debt filter; draws
    # matching a station with positive debt materialise packets that were
    # already consumed out of turn.
    n = state.config.n
    debt = state.debt
    dests = state.dests
    while True:
        d = next(dests)
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
    u = next(state.uniforms)
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
            k = 0  # float spill, reached when a valid config closes short of 1
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
        j = 0  # float spill, reached when a valid config closes short of 1
    if measuring:
        stats.up_slots[j] += 1
    return SlotOutcome(HD, None, Packet(HD, j), None)


def _winners(cfg: NetworkConfig, u: np.ndarray) -> np.ndarray:
    """Winner of each slot, picked from ``u`` with the float expressions of
    ``step()``: -1 for the AP, otherwise the winning station's code."""
    n, m = cfg.n, cfg.m
    who = np.full(len(u), -1)
    station = u >= cfg.p_A
    if m > 0:
        fd = station if n == 0 else station & (u < cfg.p_A + m * cfg.p_F)
        if cfg.p_F > 0.0:
            # min before truncation equals step()'s min(int(x), m - 1) for x >= 0
            who[fd] = n + np.minimum((u[fd] - cfg.p_A) / cfg.p_F, m - 1).astype(np.int64)
        else:
            who[fd] = n  # float spill, reached as in step()
        station &= ~fd
    if n > 0:
        if cfg.p_H > 0.0:
            x = (u[station] - cfg.p_A - m * cfg.p_F) / cfg.p_H
            who[station] = np.minimum(x, n - 1).astype(np.int64)
        else:
            who[station] = 0  # float spill, reached as in step()
    return who


def _serve(codes: list[int], entries: deque[int], in_window: list[int], gone: list[int],
           debt: list[int], dests: Iterator[int]) -> tuple[list[int], int]:
    """Play AP wins (-1) and full-duplex wins (their codes) against the window.

    Returns the popped heads and the number of full-duplex misses.  Mirrors
    ``step()`` and ``_refill``, with ``in_window`` counting each code in the
    window and ``debt`` indexed by code.  A full-duplex hit leaves its packet
    in ``entries`` and counts it in ``gone``: the oldest packets of a code
    are the ones taken, so the head skips the first ``gone[code]`` it meets.
    """
    heads = []
    misses = 0
    for code in codes:
        if code < 0:
            code = entries.popleft()
            while gone[code]:
                gone[code] -= 1
                code = entries.popleft()
            heads.append(code)
        elif in_window[code]:
            gone[code] += 1
        else:
            debt[code] += 1
            misses += 1
            continue
        in_window[code] -= 1
        d = next(dests)
        while debt[d]:
            debt[d] -= 1
            d = next(dests)
        entries.append(d)
        in_window[d] += 1
    return heads, misses


def _compact(entries: deque[int], gone: list[int]) -> deque[int]:
    """``entries`` without the packets ``gone`` counts; zeroes ``gone``."""
    kept: deque[int] = deque()
    for code in entries:
        if gone[code]:
            gone[code] -= 1
        else:
            kept.append(code)
    return kept


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

    The result equals stepping a ``new_sim`` state with :func:`step`, draw
    for draw.  Each block of winner draws is classified with numpy; a
    half-duplex win touches no queue, so it is only counted, and Python
    loops over AP and full-duplex wins alone, each in amortised O(1) at any
    ``capacity``.
    """
    measured_slots = as_count("measured_slots", measured_slots, 1)
    if warmup_slots is None:
        warmup_slots = default_warmup(measured_slots)
    warmup_slots = as_count("warmup_slots", warmup_slots, 0)
    state = new_sim(config, capacity=capacity, seed=seed)
    n = state.config.n
    total = n + state.config.m
    entries = state.queue.entries
    in_window = np.bincount(list(entries), minlength=total).tolist()
    gone = [0] * total  # hit packets still in entries, per code
    debt = [0] * total
    served = np.zeros(total, dtype=np.int64)  # measured AP wins by head code
    won = np.zeros(total, dtype=np.int64)  # measured station wins by code
    misses = 0
    end = warmup_slots + measured_slots
    for start in range(0, end, _BLOCK):
        # fetched where step() would fetch it: before this block's refills
        who = _winners(state.config, state.rng.random(_BLOCK)[: end - start])
        lo = min(max(warmup_slots - start, 0), len(who))
        queued = (who < 0) | (who >= n)
        codes = who[queued].tolist()
        warm = int(np.count_nonzero(queued[:lo]))
        _serve(codes[:warm], entries, in_window, gone, debt, state.dests)
        heads, missed = _serve(codes[warm:], entries, in_window, gone, debt, state.dests)
        misses += missed
        if len(entries) > 4 * state.queue.capacity:  # amortised O(1) per hit
            entries = _compact(entries, gone)
        if heads:
            served += np.bincount(heads, minlength=total)
        measured = who[lo:]
        won += np.bincount(measured[measured >= 0], minlength=total)
    down = served.copy()
    down[n:] += won[n:]
    up = won.copy()
    up[n:] += served[n:]
    return SimStats(
        total_slots=measured_slots,
        down_slots=down.tolist(),
        up_slots=up.tolist(),
        ap_wins=int(served.sum()),
        ap_wins_hd_head=int(served[:n].sum()),
        fd_wins_no_packet=misses,
    )


def flow_counts(stats: SimStats, config: NetworkConfig) -> dict[str, tuple[int, int]]:
    """(count, trials) per measured flow, the table every judged flow comes from.

    ``hd_down``/``hd_up`` count packets per half-duplex station-slot,
    ``fd_down``/``fd_up`` per full-duplex station-slot, ``p`` the AP wins
    whose head was half-duplex, and ``sum`` every packet per slot: one per
    slot plus one per two-way slot.  Flows of an absent station class are
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
    out["sum"] = (sum(stats.down_slots) + sum(stats.up_slots), t)
    return out


def empirical_report(stats: SimStats, config: NetworkConfig) -> ThroughputReport:
    """Turn raw counters into per-station flow estimates.

    Mirrors the analytic report: each flow is its ``flow_counts`` rate.
    Flows of an absent class are 0; the head composition is reported as 0
    when the AP never won a slot (no observations).
    """
    mean = {name: count / trials for name, (count, trials) in flow_counts(stats, config).items()}
    return ThroughputReport(*(mean.get(name, 0.0) for name in ThroughputReport._fields))
