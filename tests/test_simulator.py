"""Slot simulator: determinism, step invariants, conservation, convergence."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fdmix.analytic import (
    InvalidConfigError,
    NetworkConfig,
    dca_config,
    fairness_config,
    throughputs,
)
from fdmix import simulator
from fdmix.simulator import (
    AP,
    FD,
    HD,
    Packet,
    SimStats,
    SlotOutcome,
    _winners,
    default_capacity,
    default_warmup,
    empirical_report,
    flow_counts,
    new_sim,
    run,
    step,
)
from fdmix.stats import NOT_APPLICABLE, compare

from reference import classify, run_reference, streams
from strategies import edge_configs, valid_configs

DCA22 = dca_config(2, 2)
MIXED = NetworkConfig(1, 1, 0.6, 0.3, 0.1)


def _on_streams(simulate, *args):
    """``simulate(*args)`` with ``new_sim`` on the reference's streams (a context, for Hypothesis)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_generators", streams)
        return simulate(*args)


def _walk(config, slots, warmup, capacity, seed):
    """``SimStats`` of a ``new_sim`` state stepped ``warmup`` slots unmeasured, then ``slots``."""
    state = new_sim(config, capacity, seed)
    state.measuring = False
    for _ in range(warmup):
        step(state)
    state.measuring = True
    for _ in range(slots):
        step(state)
    return state.stats


# The benchmark's network panel, each at seeds 0, 3 and 17 with warmups of
# 4095, 4096 and 4097 slots: both sides of the 4096-draw block edge.
_PANEL = {
    "dca11": dca_config(1, 1),
    "dca22": DCA22,
    "dca42": dca_config(4, 2),
    "fair22": fairness_config(2, 2),
    "fair42": fairness_config(4, 2),
    "mixed11": MIXED,
    "dca401": dca_config(40, 1),
    "fair2020": fairness_config(20, 20),
}
_ORACLE_CASES = [
    pytest.param(MIXED, 500, 0, 20, 3, id="mixed11-w0-cap20-s3"),
    *(
        pytest.param(config, 4_200, warmup, None, seed, id=f"{name}-w{warmup}-s{seed}")
        for name, config in _PANEL.items()
        for seed, warmup in ((0, 4095), (3, 4096), (17, 4097))
    ),
    pytest.param(DCA22, 4_200, 4096, 1, 3, id="dca22-w4096-cap1-s3"),
    # ends where the second 4096-draw block ends: that block is played in full
    pytest.param(DCA22, 4_096, 4096, None, 0, id="dca22-w4096-s4096"),
    pytest.param(fairness_config(20, 20), 2_000, 100, 1, 0, id="fair2020-w100-cap1-s0"),
    pytest.param(NetworkConfig(1, 1, 0.0, 0.5, 0.5), 4_200, 4097, None, 3, id="pA0"),
    pytest.param(fairness_config(3, 0), 4_200, 4095, 2, 17, id="pA0-n0"),
    pytest.param(NetworkConfig(1, 2, 0.5, 0.0, 0.25), 4_200, 4096, 3, 0, id="pF0"),
    pytest.param(dca_config(0, 3), 4_200, 4097, 1, 3, id="m0"),
    pytest.param(NetworkConfig(2, 0, 0.5, 0.25, 0.0), 4_200, 4095, None, 17, id="n0"),
    # Crowded networks, where most queue events are full-duplex hits; each
    # spans over 3 x 4096 slots, so run() drops the served prefix of its
    # window in several blocks.
    pytest.param(dca_config(200, 1), 8_400, 4097, None, 1, id="dca2001-w4097-s1"),
    pytest.param(dca_config(100, 100), 8_400, 4095, None, 3, id="dca100100-w4095-s3"),
    pytest.param(dca_config(100, 100), 8_400, 4096, 50, 17, id="dca100100-w4096-cap50-s17"),
    pytest.param(dca_config(40, 1), 8_400, 4097, 1, 0, id="dca401-w4097-cap1-s0"),
    # An old head held back by a rare AP win while hits pile up behind it:
    # run() compacts its window, and later AP wins and hits use what it kept.
    pytest.param(dca_config(300, 0), 8_400, 4097, 50, 3, id="dca3000-w4097-cap50-s3"),
    pytest.param(dca_config(200, 1), 8_400, 4097, 30, 1, id="dca2001-w4097-cap30-s1"),
    pytest.param(dca_config(100, 1), 8_400, 4097, 100, 3, id="dca1001-w4097-cap100-s3"),
    # The benchmark's crowded runs: warmup edge and end inside one 4096-draw
    # block, at windows of 50 to 2010 packets.
    pytest.param(dca_config(100, 100), 1_500, 1500, None, 0, id="dca100100-w1500-s0"),
    pytest.param(dca_config(100, 100), 1_500, 1500, 50, 3, id="dca100100-w1500-cap50-s3"),
    pytest.param(dca_config(200, 1), 1_500, 1500, None, 0, id="dca2001-w1500-s0"),
    pytest.param(dca_config(40, 1), 1_500, 1500, None, 3, id="dca401-w1500-s3"),
    pytest.param(fairness_config(20, 20), 1_500, 1500, None, 0, id="fair2020-w1500-s0"),
]


class TestConstruction:
    def test_defaults(self):
        state = new_sim(DCA22)
        assert state.queue.capacity == default_capacity(DCA22) == 40
        assert len(state.queue.entries) == 40
        assert all(0 <= code < 4 for code in state.queue.entries)
        assert state.debt == [0, 0]
        assert state.stats.down_slots == [0, 0, 0, 0]
        assert state.stats.up_slots == [0, 0, 0, 0]
        assert state.measuring

    def test_rejects_bad_capacity_and_seed(self):
        with pytest.raises(ValueError):
            new_sim(DCA22, capacity=0)
        with pytest.raises(ValueError):
            new_sim(DCA22, seed=-1)
        with pytest.raises(InvalidConfigError):
            new_sim(NetworkConfig(1, 1, 0.9, 0.9, 0.9))

    def test_rejects_bool_seed(self):
        with pytest.raises(ValueError, match="seed"):
            new_sim(DCA22, seed=True)

    def test_same_seed_same_initial_window(self):
        a = new_sim(DCA22, seed=7)
        b = new_sim(DCA22, seed=7)
        assert list(a.queue.entries) == list(b.queue.entries)

    def test_default_seed_is_zero(self):
        assert list(new_sim(DCA22).queue.entries) == list(new_sim(DCA22, seed=0).queue.entries)
        assert run(DCA22, 2_000) == run(DCA22, 2_000, seed=0)

    def test_default_warmup_floor_and_fraction(self):
        assert default_warmup(1_000_000) == 10_000
        assert default_warmup(100) == 10_000
        assert default_warmup(10_000_000) == 100_000


def encode_dest(config, packet):
    """Window code of a packet address: half-duplex stations first, then
    full-duplex, the layout of ``SimStats`` and of the window."""
    if packet.dest_class == HD and 0 <= packet.dest_index < config.n:
        return packet.dest_index
    if packet.dest_class == FD and 0 <= packet.dest_index < config.m:
        return config.n + packet.dest_index
    raise ValueError(f"no station {packet!r}")


def decode_dest(config, code):
    """Inverse of :func:`encode_dest`."""
    if not 0 <= code < config.n + config.m:
        raise ValueError(f"destination code {code} out of range")
    return Packet(HD, code) if code < config.n else Packet(FD, code - config.n)


class TestDestinationCodes:
    def test_roundtrip(self):
        cfg = NetworkConfig(2, 3, 0.4, 0.15, 0.1)
        for code in range(5):
            assert encode_dest(cfg, decode_dest(cfg, code)) == code
        assert decode_dest(cfg, 0) == Packet(HD, 0)
        assert decode_dest(cfg, 3) == Packet(FD, 0)

    def test_out_of_range(self):
        cfg = dca_config(1, 1)
        with pytest.raises(ValueError):
            decode_dest(cfg, 2)
        with pytest.raises(ValueError):
            encode_dest(cfg, Packet(HD, 1))
        with pytest.raises(ValueError):
            encode_dest(cfg, Packet("xx", 0))


def _walk_checking_invariants(config, slots, seed, warmup=0, capacity=None):
    """Step ``warmup`` unmeasured slots, then ``slots`` measured ones,
    asserting per-slot invariants in every slot; return the measured
    slots' tallies, counted from the outcomes alone."""
    state = new_sim(config, capacity=capacity, seed=seed)
    capacity = state.queue.capacity
    n, m = config.n, config.m
    down = [0] * (n + m)
    up = [0] * (n + m)
    ap_wins = ap_hd = fd_misses = 0
    window = list(state.queue.entries)
    for slot in range(warmup + slots):
        state.measuring = measured = slot >= warmup
        before = window
        outcome = step(state)
        window = list(state.queue.entries)
        # window size is restored by the end of every slot, and the window
        # holds no taken packet: its count by code is its exact content
        assert len(window) == capacity
        assert state.in_window == np.bincount(window, minlength=n + m).tolist()
        assert not any(state.gone)
        if outcome.winner == AP:
            assert outcome.downlink_to is not None
            assert outcome.head_class_at_win in (HD, FD)
            ap_wins += measured
            if outcome.head_class_at_win == HD:
                assert outcome.downlink_to.dest_class == HD
                assert outcome.uplink_from is None
                ap_hd += measured
            else:
                assert outcome.uplink_from == outcome.downlink_to
            # the popped head is the oldest window entry
            assert encode_dest(config, outcome.downlink_to) == before[0]
        elif outcome.winner == FD:
            assert outcome.downlink_to == outcome.uplink_from
            assert outcome.downlink_to.dest_class == FD
            assert outcome.head_class_at_win is None
            if encode_dest(config, outcome.downlink_to) not in before:
                fd_misses += measured
        else:
            # a half-duplex winner only uplinks
            assert outcome.winner == HD
            assert outcome.downlink_to is None
            assert outcome.uplink_from.dest_class == HD
            assert outcome.head_class_at_win is None
        if outcome.downlink_to is not None:
            down[encode_dest(config, outcome.downlink_to)] += measured
        if outcome.uplink_from is not None:
            up[encode_dest(config, outcome.uplink_from)] += measured
    return state.stats, down, up, ap_wins, ap_hd, fd_misses


def _code_of(config, outcome):
    """The winner code of a ``step()`` outcome: -1 for the AP."""
    return -1 if outcome.winner == AP else encode_dest(config, outcome.uplink_from)


# Valid networks with a tiny p_H, on which the half-duplex offset of a draw
# at the full-duplex bound (the first) or at 1 - 2**-52 (the second) rounds
# below 0; each draw belongs to half-duplex station 0.
_TINY_PH = [
    NetworkConfig(1, 1, 0.763774618976614, 0.2362253810231309, 1e-300),
    NetworkConfig(2, 1, 0.34675854484918295, 0.32662072757540844, 1e-16),
]
_EDGE_NETWORKS = [
    pytest.param(DCA22, id="dca22"),
    pytest.param(MIXED, id="mixed11"),
    pytest.param(dca_config(0, 3), id="dca03"),
    pytest.param(fairness_config(3, 0), id="fair30"),
    pytest.param(NetworkConfig(2, 2, 1.0, 0.0, 0.0), id="pA1"),
    pytest.param(NetworkConfig(2, 1, 0.5, 0.25, 5e-324), id="pH-subnormal"),
    pytest.param(_TINY_PH[0], id="pH-1e-300"),
    pytest.param(_TINY_PH[1], id="pH-1e-16"),
    # at 1 - 2**-52, u - (p_A + m*p_F) in one subtraction gives half-duplex
    # station 0, the two subtractions of _winners station 1
    pytest.param(NetworkConfig(1, 3, 0.31865429249351523, 0.6813457075064845, 8.656991294376404e-17),
                 id="pH-9e-17-n3"),
]


def _edge_draws(config):
    """Draws at the class bounds and their float neighbours, and the two
    largest draws ``rng.random`` returns."""
    bounds = (config.p_A, config.p_A + config.m * config.p_F)
    near = [np.nextafter(b, d) for b in bounds for d in (0, 1)]
    us = [0.0, *bounds, *near, 1 - 2**-52, 1 - 2**-53]
    return [float(u) for u in us if 0 <= u < 1]


def _check_edge_draws(config):
    """``_winners`` and the reference classify every edge draw alike, and
    a fresh state fed those winners plays each and keeps fd down == up."""
    us = _edge_draws(config)
    codes = _winners(config, np.array(us)).tolist()
    assert codes == [classify(config, u) for u in us]
    state = new_sim(config)
    state.winners = iter(codes)
    assert [_code_of(config, step(state)) for _ in codes] == codes
    assert state.stats.down_slots[config.n:] == state.stats.up_slots[config.n:]


class TestStepInvariants:
    @pytest.mark.parametrize("config,seed,warmup,capacity", [
        pytest.param(DCA22, 0, 0, None, id="config0-0"),
        pytest.param(MIXED, 1, 0, None, id="config1-1"),
        # 4097 unmeasured slots cross a 4096-draw block edge
        pytest.param(dca_config(0, 3), 3, 4097, None, id="dca03-no-fd-w4097"),
        pytest.param(fairness_config(3, 0), 17, 4097, None, id="fair30-no-ap-w4097"),
        pytest.param(NetworkConfig(2, 2, 1.0, 0.0, 0.0), 0, 4097, None, id="pA1-only-ap-w4097"),
        pytest.param(dca_config(40, 1), 3, 4097, 1, id="dca401-misses-w4097-cap1"),
    ])
    def test_outcomes_and_counters_agree(self, config, seed, warmup, capacity):
        # the tallies are counted from step()'s outcomes, apart from SimState.stats
        stats, down, up, ap_wins, ap_hd, fd_misses = _walk_checking_invariants(
            config, 20_000, seed, warmup, capacity
        )
        assert stats.total_slots == 20_000
        assert stats.down_slots == down
        assert stats.up_slots == up
        assert stats.ap_wins == ap_wins
        assert stats.ap_wins_hd_head == ap_hd
        assert stats.fd_wins_no_packet == fd_misses
        # every counted downlink consumes one backlog packet, window or not
        assert sum(down) == ap_wins + sum(up[config.n:]) - (ap_wins - ap_hd)

    @pytest.mark.parametrize("config,winner", [
        (NetworkConfig(1, 0, 1 - 5e-10, 0.0, 0.0), FD),
        (NetworkConfig(1, 1, 0.5, 0.5 - 5e-10, 0.0), HD),
        pytest.param(_TINY_PH[0], HD, id="pH-1e-300"),
        pytest.param(_TINY_PH[1], HD, id="pH-1e-16"),
    ])
    def test_short_closure_gives_the_last_sliver_to_station_zero(self, config, winner):
        # valid within CLOSURE_TOL, so a draw can pass every class bound and
        # reach a class whose probability is 0 (the first two), or round
        # below the first station of a tiny one (_TINY_PH): from the
        # full-duplex bound on, every draw is station 0's
        us = [config.p_A + config.m * config.p_F, 1 - 2**-52, 1 - 2**-53]
        codes = _winners(config, np.array(us)).tolist()
        assert codes == [classify(config, u) for u in us]
        state = new_sim(config)
        state.winners = iter(codes)
        for _ in us:
            outcome = step(state)
            assert outcome.winner == winner
            assert encode_dest(config, outcome.uplink_from) == 0
        assert state.stats.down_slots[config.n:] == state.stats.up_slots[config.n:]

    @pytest.mark.parametrize("config", _EDGE_NETWORKS)
    def test_winners_match_step_at_class_edges(self, config):
        # _winners divides every draw by every class probability, so a tiny
        # one overflows where its class did not win
        _check_edge_draws(config)

    @settings(max_examples=200, deadline=None)
    @given(config=edge_configs())
    def test_winners_match_reference_on_tiny_classes(self, config):
        _check_edge_draws(config)

    @pytest.mark.parametrize("config", _EDGE_NETWORKS[:4])
    def test_shared_outcomes_equal_fresh_ones(self, config):
        # step() returns prebuilt outcomes; each must equal the one built
        # anew for its winner and, for an AP win, its head
        n, m = config.n, config.m
        cases = []  # (head put at the window's front, winner code, fresh outcome)
        for code in range(n + m):
            to = Packet(HD, code) if code < n else Packet(FD, code - n)
            fresh = SlotOutcome(AP, to, None, HD) if code < n else SlotOutcome(AP, to, to, FD)
            cases.append((code, -1, fresh))
        for k in range(m):
            fresh = SlotOutcome(FD, Packet(FD, k), Packet(FD, k), None)
            cases.append((None, n + k, fresh))
        for j in range(n):
            fresh = SlotOutcome(HD, None, Packet(HD, j), None)
            cases.append((None, j, fresh))
        for head, code, fresh in cases:
            state = new_sim(config)
            if head is not None:
                # make ``head`` the oldest packet, and count it in the window
                state.in_window[state.queue.entries[0]] -= 1
                state.queue.entries[0] = head
                state.in_window[head] += 1
            state.winners = iter([code])
            assert step(state) == fresh

    def test_same_seed_same_outcomes(self):
        a, b = new_sim(MIXED, seed=4), new_sim(MIXED, seed=4)
        assert [step(a) for _ in range(3_000)] == [step(b) for _ in range(3_000)]

    def test_full_duplex_down_equals_up_per_station(self):
        stats = run(MIXED, 30_000, warmup_slots=0, seed=5)
        n = MIXED.n
        assert stats.down_slots[n:] == stats.up_slots[n:]


class TestRun:
    def test_deterministic(self):
        a = run(DCA22, 5_000, warmup_slots=100, seed=3)
        b = run(DCA22, 5_000, warmup_slots=100, seed=3)
        assert a == b

    @pytest.mark.parametrize("config,slots,warmup,capacity,seed", _ORACLE_CASES)
    def test_matches_manual_stepping(self, config, slots, warmup, capacity, seed):
        # step() is the oracle: run() must give its counters draw for draw
        stats = run(config, slots, warmup_slots=warmup, capacity=capacity, seed=seed)
        assert stats == _walk(config, slots, warmup, capacity, seed)

    def test_warmup_slots_not_counted(self):
        stats = run(DCA22, 1_000, warmup_slots=777, seed=0)
        assert stats.total_slots == 1_000
        assert sum(stats.down_slots) <= 1_000

    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            run(DCA22, 0)
        with pytest.raises(ValueError):
            run(DCA22, 10, warmup_slots=-1)

    def test_rejects_non_integral_span(self):
        # a float span is refused as a value, not left to fail in range()
        with pytest.raises(ValueError, match="measured_slots"):
            run(DCA22, 10.0)
        with pytest.raises(ValueError, match="warmup_slots"):
            run(DCA22, 10, warmup_slots=1.5)

    def test_numpy_integer_seed_matches_int_seed(self):
        cfg = dca_config(1, 1)
        assert run(cfg, 100, seed=np.int64(3)) == run(cfg, 100, seed=3)

    def test_numpy_integer_counts_match_int_counts(self):
        cfg = NetworkConfig(np.int64(1), np.int64(1), 0.6, 0.3, 0.1)
        assert type(new_sim(cfg).config.m) is int
        assert run(cfg, 2_000, seed=3) == run(MIXED, 2_000, seed=3)

    def test_numpy_float_probabilities_become_plain_floats(self):
        # step() would otherwise compute in float32, run() in float64; the
        # values are exact in binary, so the closure holds in floats as well
        cfg = NetworkConfig(1, 1, np.float32(0.625), np.float32(0.25), np.float32(0.125))
        assert type(new_sim(cfg).config.p_A) is float
        assert run(cfg, 2_000, warmup_slots=0, seed=3) == _walk(cfg, 2_000, 0, None, 3)

    @pytest.mark.parametrize("config,slots,capacity", [
        (MIXED, 150_000, None),
        # p_A == 0: the head never moves, so only compaction drops hit packets
        (fairness_config(3, 0), 300_000, None),
        # per-station state stays a few ints, whatever the window size
        (dca_config(20_000, 1), 100, 1),
    ], ids=["mixed11", "fair30", "dca200001-cap1"])
    def test_window_memory_is_bounded(self, config, slots, capacity):
        # run() leaves a hit packet in its window until the head reaches it,
        # and compacts the window once such packets outnumber three windows,
        # so it holds a few windows, never every refill made
        run(config, 1_000, warmup_slots=0, capacity=capacity, seed=3)  # imports, caches
        tracemalloc.start()
        try:
            run(config, slots, warmup_slots=0, capacity=capacity, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 750_000 + 150 * (config.m + config.n)

    @pytest.mark.parametrize("config,expected", [
        (DCA22, SimStats(
            total_slots=10_000,
            down_slots=[1018, 999, 1994, 1990],
            up_slots=[2013, 1986, 1994, 1990],
            ap_wins=2017, ap_wins_hd_head=2017, fd_wins_no_packet=3984,
        )),
        (MIXED, SimStats(
            total_slots=10_000,
            down_slots=[4541, 4503],
            up_slots=[956, 4503],
            ap_wins=6048, ap_wins_hd_head=4541, fd_wins_no_packet=1,
        )),
    ])
    def test_random_stream_is_pinned(self, config, expected):
        # 12 000 slots draw past the 4096-draw block edges of both the
        # winner and the destination streams; seeded outputs must not move.
        assert run(config, 10_000, warmup_slots=2_000, seed=3) == expected


_spans = {
    "slots": st.integers(1, 3_000),
    "warmup": st.integers(0, 5_000),
    "capacity": st.one_of(st.none(), st.integers(1, 60)),
    "seed": st.integers(0, 2**32),
}


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(config=valid_configs(), **_spans)
    def test_counter_identities(self, config, slots, warmup, capacity, seed):
        stats = run(config, slots, warmup_slots=warmup, capacity=capacity, seed=seed)
        n = config.n
        down, up = stats.down_slots, stats.up_slots
        assert stats.total_slots == slots
        # a full-duplex station's downlinks are all answered in the same slot
        assert down[n:] == up[n:]
        fd_wins = sum(up[n:]) - (stats.ap_wins - stats.ap_wins_hd_head)
        hd_wins = sum(up[:n])
        assert sum(down) == stats.ap_wins + fd_wins
        assert stats.ap_wins + fd_wins + hd_wins == stats.total_slots
        assert 0 <= stats.fd_wins_no_packet <= fd_wins
        flow_counts(stats, config)
        compare(throughputs(config), stats, config)

    @settings(max_examples=30, deadline=None)
    @given(config=valid_configs(), **_spans)
    def test_matches_step_on_random_networks(self, config, slots, warmup, capacity, seed):
        stats = run(config, slots, warmup_slots=warmup, capacity=capacity, seed=seed)
        assert stats == _walk(config, slots, warmup, capacity, seed)


class TestExactRegimes:
    def test_all_full_duplex_every_slot_carries_two(self):
        cfg = fairness_config(3, 0)
        stats = run(cfg, 20_000, warmup_slots=100, seed=2)
        assert sum(stats.down_slots) == stats.total_slots
        assert sum(stats.up_slots) == stats.total_slots
        rep = empirical_report(stats, cfg)
        assert rep.sum == 2.0
        assert rep.fd_down == rep.fd_up
        # the AP never transmits here, so no head observations exist
        assert stats.ap_wins == 0
        assert rep.p == 0.0

    def test_all_half_duplex_every_slot_carries_one(self):
        cfg = dca_config(0, 4)
        stats = run(cfg, 20_000, warmup_slots=100, seed=2)
        assert sum(stats.down_slots) + sum(stats.up_slots) == stats.total_slots
        rep = empirical_report(stats, cfg)
        assert rep.sum == 1.0
        assert rep.fd_down == 0.0 and rep.fd_up == 0.0
        assert rep.p == 1.0


class TestEmpiricalReport:
    def test_requires_measured_slots(self):
        with pytest.raises(ValueError):
            empirical_report(SimStats(down_slots=[0], up_slots=[0]), dca_config(0, 1))

    def test_flow_counts_cover_present_classes(self):
        def absent(config):
            counts = flow_counts(run(config, 2_000, seed=0), config)
            assert list(counts) == ["hd_down", "hd_up", "fd_down", "fd_up", "p", "sum"]
            return [name for name, entry in counts.items() if entry is None]

        assert absent(DCA22) == []
        # fair(3,0) has p_A == 0, so the AP never wins and p has no trials
        assert absent(fairness_config(3, 0)) == ["hd_down", "hd_up", "p"]
        assert absent(dca_config(0, 2)) == ["fd_down", "fd_up"]

    @pytest.mark.parametrize(
        "config", [DCA22, dca_config(0, 3), fairness_config(3, 0)],
        ids=["dca22", "dca03", "fair30"],
    )
    def test_compare_judges_exactly_the_flow_counts(self, config):
        stats = run(config, 2_000, seed=0)
        counts = flow_counts(stats, config)
        flows = compare(throughputs(config), stats, config).flows
        assert [f.name for f in flows] == list(counts)
        for f in flows:
            assert (f.verdict == NOT_APPLICABLE) == (counts[f.name] is None), f.name

    def test_convergence_smoke(self):
        for cfg in (DCA22, MIXED):
            stats = run(cfg, 200_000, seed=0)
            result = compare(throughputs(cfg), stats, cfg, z_max=4.0)
            assert result.overall, [(f.name, f.z) for f in result.flows]


class TestAgainstUnboundedReference:
    """Fed the same uniforms and backlog destinations, ``run()`` and ``step()``
    at any ``capacity`` and the unbounded reference consume the same packets
    in the same slots, on the saturation boundary of fair(2,2) too."""

    @pytest.mark.parametrize("config", [
        DCA22, MIXED, fairness_config(2, 2), fairness_config(3, 0), dca_config(0, 3),
    ], ids=["dca22", "mixed11", "fair22", "fair30", "dca03"])
    def test_flows_match_reference(self, config):
        reference = run_reference(config, 20_000, 2_000, seed=11)
        for capacity in (1, default_capacity(config), 500):
            ran = _on_streams(run, config, 20_000, 2_000, capacity, 11)
            assert ran == _on_streams(_walk, config, 20_000, 2_000, capacity, 11), capacity
            assert ran == replace(reference, fd_wins_no_packet=ran.fd_wins_no_packet), capacity

    @settings(max_examples=60, deadline=None)
    @given(config=valid_configs(), slots=_spans["slots"], warmup=_spans["warmup"],
           seed=_spans["seed"], capacity=st.integers(1, 60), other=st.integers(1, 60))
    def test_capacity_changes_only_misses(self, config, slots, warmup, seed, capacity, other):
        a, b = (_on_streams(run, config, slots, warmup, c, seed) for c in (capacity, other))
        assert a == replace(b, fd_wins_no_packet=a.fd_wins_no_packet)
