"""Slot-by-slot Monte Carlo simulator for the mixed-duplex access network.

The AP holds an infinite backlog of downlink packets with independent
uniform destinations.  Materialising the whole backlog is impossible, so the
simulator keeps a sliding window: the oldest ``capacity`` packets, stored as
destination codes.  Half-duplex station ``i`` has code ``i`` and full-duplex
station ``k`` code ``n + k``; ``step()`` turns codes into :class:`Packet`
addresses.  When a winning full-duplex station finds no packet for itself
inside the window, the packet it serves is the first one addressed to it
beyond the window.  That slot still carries a downlink, the event is
counted in ``fd_wins_no_packet``, and a debt is recorded against the code
so that later window refills skip destinations already consumed ahead of
time.  Because backlog destinations are independent, consuming the first
out-of-window packet for a code and skipping that code in its next
``owed[code]`` draws leaves the window distribution identical to the one an
unbounded queue would produce.

One categorical draw decides each slot: the AP transmits with probability
``p_A`` (serving the window head, FIFO), otherwise a station transmits.  A
winning full-duplex station receives its own packet out of turn and answers
it in the same slot, so its downlink and uplink counts advance together.  A
winning half-duplex station only uplinks.

Only the streams :func:`new_sim` builds draw, from the generators of
:func:`_generators`.  :func:`_winners` is the one rule that turns draws
into winners, :func:`_serve` the one that plays an AP or full-duplex win
against the window, and ``SimState.stats`` the one that turns tallies of
measured slots into counters.  :func:`step` plays one slot and is the
readable definition; :func:`run` plays a whole span of a ``new_sim`` state.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .analytic import NetworkConfig, ThroughputReport, as_count, require_valid

HD = "hd"
FD = "fd"
AP = "ap"

# Identifier of the pseudo-random generator backing every run; recorded in
# CLI output so results can be tied to the bit stream that produced them.
RNG_ALGORITHM = "pcg64"

_BLOCK = 4096  # uniforms or destinations a stream draws from numpy at a time


@dataclass(frozen=True, slots=True)
class Packet:
    """A downlink packet, identified by its destination station.

    Frozen, because ``step()`` hands the same object to every caller that
    sees that station; slotted, because its outcome tables hold one per
    station.
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

    ``entries`` holds encoded destinations, oldest first: exactly ``capacity``
    after every :func:`step`.  In :func:`run` a packet that a full-duplex hit
    took stays until ``_compact``, counted in ``SimState.gone``.
    """

    entries: deque[int]
    capacity: int


@dataclass
class SimStats:
    """Counters over measured slots, read from a state's tallies by ``SimState.stats``.

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
    """A simulation in progress; its streams, from ``new_sim``, draw a block when first read."""

    config: NetworkConfig
    queue: ApQueue
    draws: Iterator[np.ndarray]  # blocks of _BLOCK uniforms, one per slot; winners classifies them
    winners: Iterator[int]  # one per slot: -1 for the AP, else the winner's code
    dests: Iterator[int]  # backlog destinations for window refills
    in_window: list[int]  # packets in queue.entries not counted in gone, by code
    gone: list[int]  # packets left in queue.entries after a full-duplex hit took them, by code
    owed: list[int]  # packets consumed beyond the window, by code; refills skip them
    served: list[int]  # measured AP wins, by head code
    won: list[int]  # measured station wins, by winner code
    misses: int = 0  # measured full-duplex wins served from beyond the window
    measuring: bool = True

    @property
    def debt(self) -> list[int]:
        """``owed`` per full-duplex station, a copy taken when read."""
        return self.owed[self.config.n:]

    @property
    def stats(self) -> SimStats:
        """Counters of the slots measured so far, a snapshot taken when read: each slot
        adds one tally, and a full-duplex head or winner answers in the same slot."""
        n, served, won = self.config.n, self.served, self.won
        fd = [s + w for s, w in zip(served[n:], won[n:])]
        return SimStats(
            total_slots=sum(served) + sum(won),
            down_slots=served[:n] + fd,
            up_slots=won[:n] + fd,
            ap_wins=sum(served),
            ap_wins_hd_head=sum(served[:n]),
            fd_wins_no_packet=self.misses,
        )


def default_capacity(config: NetworkConfig) -> int:
    """Window size used when none is given: 10 packets per station."""
    return 10 * (config.m + config.n)


def default_warmup(measured_slots: int) -> int:
    """Warmup used when none is given: 1% of the run, floored at 10^4."""
    return max(10_000, measured_slots // 100)


def _generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Generators of the slot uniforms and of the backlog destinations: one generator, twice."""
    return (np.random.default_rng(seed),) * 2


def new_sim(
    config: NetworkConfig,
    capacity: int | None = None,
    seed: int = 0,
) -> SimState:
    """Build a simulator state with a freshly drawn backlog window.

    ``capacity`` defaults to 10 * (m + n).  The initial window is filled
    with independent uniform destinations, the stationary condition for the
    un-consumed part of the backlog.  Later draws come only from its streams.
    """
    config = require_valid(config)
    total = config.m + config.n
    if capacity is None:
        capacity = default_capacity(config)
    capacity = as_count("capacity", capacity, 1, sys.maxsize)  # a numpy array size must fit an index
    seed = as_count("seed", seed, 0)
    uniforms, destinations = _generators(seed)
    window = destinations.integers(0, total, capacity)
    draws = map(uniforms.random, repeat(_BLOCK))
    dest_blocks = map(partial(destinations.integers, 0, total), repeat(_BLOCK))
    return SimState(
        config=config,
        queue=ApQueue(entries=deque(window.tolist()), capacity=capacity),
        draws=draws,
        winners=chain.from_iterable(_winners(config, u).tolist() for u in draws),
        dests=chain.from_iterable(map(np.ndarray.tolist, dest_blocks)),
        in_window=np.bincount(window, minlength=total).tolist(),
        gone=[0] * total,
        owed=[0] * total,
        served=[0] * total,
        won=[0] * total,
    )


@lru_cache(maxsize=16)
def _outcomes(n: int, m: int) -> tuple[tuple[SlotOutcome, ...], tuple[SlotOutcome, ...]]:
    """Every outcome ``step()`` can return, built once per ``(n, m)``: an AP
    win by the code of its popped head, and a station win by the winner's code."""
    to = [Packet(HD, i) for i in range(n)] + [Packet(FD, k) for k in range(m)]
    ap = [SlotOutcome(AP, p, None, HD) for p in to[:n]] + [SlotOutcome(AP, p, p, FD) for p in to[n:]]
    won = [SlotOutcome(HD, None, p, None) for p in to[:n]] + [SlotOutcome(FD, p, p, None) for p in to[n:]]
    return tuple(ap), tuple(won)


def step(state: SimState) -> SlotOutcome:
    """Advance one slot, tallying it when ``state.measuring`` is set.

    The returned outcome is immutable and shared by every slot with the same
    winner and, for an AP win, the same head.
    """
    n = state.config.n
    measuring = state.measuring
    ap_won, station_won = _outcomes(n, state.config.m)
    code = next(state.winners)
    if code < 0 or code >= n:
        # The AP serves the window head; a full-duplex winner takes its own packet.
        entries = state.queue.entries
        head = entries[0]
        _serve((code,), state, measuring)
        if code < 0:
            return ap_won[head]
        if state.gone[code]:
            # Take the hit packet out, so the window stays exactly ``capacity`` long.
            state.gone[code] = 0
            entries.remove(code)
    # A half-duplex win touches no queue.
    if measuring:
        state.won[code] += 1
    return station_won[code]


def _winners(cfg: NetworkConfig, u: np.ndarray) -> np.ndarray:
    """Winner of each slot with draw ``u``: -1 for the AP, otherwise the
    winning station's code.  ``step()`` and ``run()`` both read it."""
    n, m = cfg.n, cfg.m
    d = u - cfg.p_A
    # Every slot is divided by every class probability, so a tiny p_F or p_H
    # overflows to inf in slots that class did not win; the clip absorbs it.
    with np.errstate(over="ignore"):
        if n > 0:
            station = _index(d - m * cfg.p_F, cfg.p_H, n)
        if m > 0:
            fd = n + _index(d, cfg.p_F, m)
            station = fd if n == 0 else np.where(u < cfg.p_A + m * cfg.p_F, fd, station)
    return np.where(u < cfg.p_A, -1, station)


def _index(x: np.ndarray, p: float, count: int) -> np.ndarray | int:
    """``x / p`` truncated to an index in ``[0, count)``; the clip absorbs
    offsets that round below 0 or past the last station at a class edge.
    ``p`` is 0 only in the sliver a valid config leaves short of 1, which
    goes to station 0."""
    if p > 0.0:
        return np.clip(x / p, 0, count - 1).astype(np.int64)
    return 0


def _serve(codes: Iterable[int], state: SimState, measuring: bool) -> None:
    """Play AP wins (-1) and full-duplex wins (their codes) against the window.

    The one queue rule.  An AP win pops the oldest packet.  A full-duplex
    win takes the oldest packet of its own code, found by ``in_window``
    without a scan; with none in the window it takes the first one beyond,
    a miss, and ``owed`` makes a later refill skip that destination.  Every
    packet taken from the window is refilled from ``dests``.  A hit leaves
    its packet in the window and counts it in ``gone``: the oldest packets
    of a code are the ones taken, so the head skips the first ``gone[code]``
    it meets.  When ``measuring``, each popped head is counted in
    ``served`` and each miss in ``misses``.
    """
    entries, in_window, gone, owed, dests = (
        state.queue.entries, state.in_window, state.gone, state.owed, state.dests)
    served = state.served
    misses = 0
    for code in codes:
        if code < 0:
            code = entries.popleft()
            while gone[code]:
                gone[code] -= 1
                code = entries.popleft()
            served[code] += measuring
        elif in_window[code]:
            gone[code] += 1
        else:
            owed[code] += 1
            misses += 1
            continue
        in_window[code] -= 1
        d = next(dests)
        while owed[d]:
            owed[d] -= 1
            d = next(dests)
        entries.append(d)
        in_window[d] += 1
    if measuring:
        state.misses += misses


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

    The result is the ``stats`` of a ``new_sim`` state played to the end: the
    same as stepping it with :func:`step`, since both read its streams.  Each
    block of ``draws``, cut at the end of the run, is classified with numpy;
    a half-duplex win is only counted, and :func:`_serve` plays the AP and
    full-duplex wins alone, each in amortised O(1) at any ``capacity``.
    """
    measured_slots = as_count("measured_slots", measured_slots, 1)
    if warmup_slots is None:
        warmup_slots = default_warmup(measured_slots)
    warmup_slots = as_count("warmup_slots", warmup_slots, 0)
    state = new_sim(config, capacity=capacity, seed=seed)
    n = state.config.n
    total = n + state.config.m
    queue = state.queue
    won = np.zeros(total + 1, dtype=np.int64)  # measured wins by code + 1, the AP's at 0
    end = warmup_slots + measured_slots
    for start in range(0, end, _BLOCK):
        who = _winners(state.config, next(state.draws)[: end - start])
        lo = min(max(warmup_slots - start, 0), len(who))
        queued = (who < 0) | (who >= n)
        codes = who[queued].tolist()
        warm = int(np.count_nonzero(queued[:lo]))
        _serve(codes[:warm], state, False)
        _serve(codes[warm:], state, True)
        if len(queue.entries) > 4 * queue.capacity:  # amortised O(1) per hit
            queue.entries = _compact(queue.entries, state.gone)
        won += np.bincount(who[lo:] + 1, minlength=total + 1)
    state.won = won[1:].tolist()
    return state.stats


def flow_counts(stats: SimStats, config: NetworkConfig) -> dict[str, tuple[int, int] | None]:
    """(count, trials) per judged flow, in the order ``validate`` prints them.

    ``hd_down``/``hd_up`` count packets per half-duplex station-slot,
    ``fd_down``/``fd_up`` per full-duplex station-slot, ``p`` the AP wins
    whose head was half-duplex, and ``sum`` every packet per slot: one per
    slot plus one per two-way slot.  A flow with no trials is None: both
    flows of an absent station class, and ``p`` when the AP never won a slot.
    """
    if stats.total_slots <= 0:
        raise ValueError("no measured slots to report on")
    n, m, t = config.n, config.m, stats.total_slots
    down, up = stats.down_slots, stats.up_slots
    flows = {
        "hd_down": (sum(down[:n]), n * t),
        "hd_up": (sum(up[:n]), n * t),
        "fd_down": (sum(down[n:]), m * t),
        "fd_up": (sum(up[n:]), m * t),
        "p": (stats.ap_wins_hd_head, stats.ap_wins),
        "sum": (sum(down) + sum(up), t),
    }
    return {name: entry if entry[1] else None for name, entry in flows.items()}


def empirical_report(stats: SimStats, config: NetworkConfig) -> ThroughputReport:
    """Turn raw counters into per-station flow estimates.

    Mirrors the analytic report: each flow is its ``flow_counts`` rate, and
    0 when that entry is None (an absent class, or ``p`` without AP wins).
    """
    return ThroughputReport(**{
        name: entry[0] / entry[1] if entry else 0.0
        for name, entry in flow_counts(stats, config).items()
    })
