"""Brute-force cross-check simulator with an unbounded, materialised backlog.

Independent of the windowed implementation in ``fdmix.simulator``: one FIFO
of global sequence numbers per station, grown lazily, so no window, no
capacity and no debt bookkeeping exist here.  Slow but conceptually direct.
It draws one value at a time from the generators of :func:`streams`: a
uniform per slot, classified by :func:`classify`, and a destination each
time the backlog must grow.  ``run()`` and ``step()``, with these streams
as ``fdmix.simulator._generators``, consume the same packets in the same
slots at any ``capacity``, so the tests compare their counters exactly.

Counters are returned in a ``SimStats`` container for easy comparison.
``fd_wins_no_packet`` stays 0: with the whole backlog materialised on
demand, a winning full-duplex station always finds its packet.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from fdmix.analytic import NetworkConfig, require_valid
from fdmix.simulator import SimStats


def streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators from ``seed``: slot uniforms and backlog destinations."""
    uniforms, destinations = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(uniforms), np.random.default_rng(destinations)


def classify(config: NetworkConfig, u: float) -> int:
    """Winner of a slot with draw ``u``: -1 for the AP, otherwise the
    winning station's code (half-duplex first, then full-duplex).

    Spelled here with plain floats, apart from ``fdmix.simulator``.  An
    index is clipped in floats before ``int``, since at a class edge the
    offset can round below 0 or a tiny class probability can divide it to
    inf.  A class of probability 0 is reached only in the sliver a valid
    config leaves short of 1, and gives station 0.
    """
    n, m = config.n, config.m
    if u < config.p_A:
        return -1
    x = u - config.p_A
    if m > 0 and (n == 0 or u < config.p_A + m * config.p_F):
        return n + _clipped(x, config.p_F, m)
    return _clipped(x - m * config.p_F, config.p_H, n)


def _clipped(x: float, p: float, count: int) -> int:
    return int(min(max(x / p, 0.0), count - 1)) if p > 0.0 else 0


def run_reference(
    config: NetworkConfig,
    measured_slots: int,
    warmup_slots: int,
    seed: int,
) -> SimStats:
    require_valid(config)
    n, m = config.n, config.m
    total = n + m
    uniforms, destinations = streams(seed)

    fifos: list[deque[int]] = [deque() for _ in range(total)]
    seq = itertools.count()  # global arrival order

    def grow_one() -> None:
        fifos[int(destinations.integers(0, total))].append(next(seq))

    down = [0] * total
    up = [0] * total
    ap_wins = ap_wins_hd_head = 0

    for slot in range(warmup_slots + measured_slots):
        measuring = slot >= warmup_slots
        code = classify(config, float(uniforms.random()))
        if code < 0:
            # AP serves the globally oldest packet.
            if not any(fifos):
                grow_one()
            head = min(
                (s for s in range(total) if fifos[s]),
                key=lambda s: fifos[s][0],
            )
            fifos[head].popleft()
            if measuring:
                ap_wins += 1
                down[head] += 1
                if head < n:
                    ap_wins_hd_head += 1
                else:
                    up[head] += 1
        elif code >= n:
            # Materialise backlog until the station's next packet exists.
            while not fifos[code]:
                grow_one()
            fifos[code].popleft()
            if measuring:
                down[code] += 1
                up[code] += 1
        elif measuring:
            up[code] += 1

    return SimStats(
        total_slots=measured_slots,
        down_slots=down,
        up_slots=up,
        ap_wins=ap_wins,
        ap_wins_hd_head=ap_wins_hd_head,
        fd_wins_no_packet=0,
    )
