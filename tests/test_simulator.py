"""Slot simulator: determinism, step invariants, conservation, convergence."""

import math

import numpy as np
import pytest

from fdmix.analytic import (
    InvalidConfigError,
    NetworkConfig,
    dca_config,
    fairness_config,
    throughputs,
)
from fdmix.simulator import (
    AP,
    FD,
    HD,
    Packet,
    SimStats,
    decode_dest,
    default_capacity,
    default_warmup,
    empirical_report,
    encode_dest,
    flow_counts,
    new_sim,
    run,
    step,
)
from fdmix.stats import compare

from reference import run_reference

DCA22 = dca_config(2, 2)
MIXED = NetworkConfig(1, 1, 0.6, 0.3, 0.1)


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

    def test_default_warmup_floor_and_fraction(self):
        assert default_warmup(1_000_000) == 10_000
        assert default_warmup(100) == 10_000
        assert default_warmup(10_000_000) == 100_000


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


def _walk_checking_invariants(config, slots, seed):
    """Step ``slots`` times asserting per-slot invariants; return tallies."""
    state = new_sim(config, seed=seed)
    capacity = state.queue.capacity
    n, m = config.n, config.m
    down = [0] * (n + m)
    up = [0] * (n + m)
    ap_wins = ap_hd = fd_misses = 0
    for _ in range(slots):
        before = list(state.queue.entries)
        outcome = step(state)
        # window size is restored by the end of every slot
        assert len(state.queue.entries) == capacity
        if outcome.winner == AP:
            assert outcome.downlink_to is not None
            assert outcome.head_class_at_win in (HD, FD)
            ap_wins += 1
            if outcome.head_class_at_win == HD:
                assert outcome.downlink_to.dest_class == HD
                assert outcome.uplink_from is None
                ap_hd += 1
            else:
                assert outcome.uplink_from == outcome.downlink_to
            # the popped head is the oldest window entry
            assert encode_dest(config, outcome.downlink_to) == before[0]
        elif outcome.winner == FD:
            assert outcome.downlink_to == outcome.uplink_from
            assert outcome.downlink_to.dest_class == FD
            assert outcome.head_class_at_win is None
            if encode_dest(config, outcome.downlink_to) not in before:
                fd_misses += 1
        else:
            # a half-duplex winner only uplinks
            assert outcome.winner == HD
            assert outcome.downlink_to is None
            assert outcome.uplink_from.dest_class == HD
            assert outcome.head_class_at_win is None
        if outcome.downlink_to is not None:
            down[encode_dest(config, outcome.downlink_to)] += 1
        if outcome.uplink_from is not None:
            up[encode_dest(config, outcome.uplink_from)] += 1
    return state.stats, down, up, ap_wins, ap_hd, fd_misses


class TestStepInvariants:
    @pytest.mark.parametrize("config,seed", [(DCA22, 0), (MIXED, 1)])
    def test_outcomes_and_counters_agree(self, config, seed):
        stats, down, up, ap_wins, ap_hd, fd_misses = _walk_checking_invariants(
            config, 20_000, seed
        )
        assert stats.total_slots == 20_000
        assert stats.down_slots == down
        assert stats.up_slots == up
        assert stats.ap_wins == ap_wins
        assert stats.ap_wins_hd_head == ap_hd
        assert stats.fd_wins_no_packet == fd_misses
        # every counted downlink consumes one backlog packet, window or not
        assert sum(down) == ap_wins + sum(up[config.n:]) - (ap_wins - ap_hd)

    def test_full_duplex_down_equals_up_per_station(self):
        stats = run(MIXED, 30_000, warmup_slots=0, seed=5)
        n = MIXED.n
        assert stats.down_slots[n:] == stats.up_slots[n:]


class TestRun:
    def test_deterministic(self):
        a = run(DCA22, 5_000, warmup_slots=100, seed=3)
        b = run(DCA22, 5_000, warmup_slots=100, seed=3)
        assert a == b

    def test_matches_manual_stepping(self):
        stats = run(MIXED, 500, warmup_slots=0, capacity=20, seed=3)
        state = new_sim(MIXED, capacity=20, seed=3)
        for _ in range(500):
            step(state)
        assert stats == state.stats

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
        assert set(flow_counts(run(DCA22, 2_000, seed=0), DCA22)) == {
            "hd_down", "hd_up", "fd_down", "fd_up", "p",
        }
        fd_only = fairness_config(3, 0)  # the AP never transmits
        assert set(flow_counts(run(fd_only, 2_000, seed=0), fd_only)) == {
            "fd_down", "fd_up",
        }
        hd_only = dca_config(0, 2)
        assert set(flow_counts(run(hd_only, 2_000, seed=0), hd_only)) == {
            "hd_down", "hd_up", "p",
        }

    def test_convergence_smoke(self):
        for cfg in (DCA22, MIXED):
            stats = run(cfg, 200_000, seed=0)
            result = compare(throughputs(cfg), stats, cfg, z_max=4.0)
            assert result.overall, [(f.name, f.z) for f in result.flows]


class TestAgainstUnboundedReference:
    """The windowed queue must reproduce an unbounded backlog's rates."""

    @pytest.mark.parametrize("config", [DCA22, MIXED], ids=["dca22", "mixed11"])
    def test_flows_match_reference(self, config):
        windowed = flow_counts(run(config, 150_000, seed=1), config)
        reference = flow_counts(
            run_reference(config, 150_000, seed=11), config
        )
        for name in windowed:
            count_w, total_w = windowed[name]
            count_r, total_r = reference[name]
            mean_w, mean_r = count_w / total_w, count_r / total_r
            se = math.hypot(
                math.sqrt(mean_w * (1 - mean_w) / total_w),
                math.sqrt(mean_r * (1 - mean_r) / total_r),
            )
            assert abs(mean_w - mean_r) <= max(5 * se, 1e-9), (
                name, mean_w, mean_r, se,
            )

    def test_critical_boundary_flows_match_reference(self):
        # fairness sits exactly on the saturation boundary; the head
        # composition there fluctuates on long scales, so only the four
        # station flows are held to the 5 sigma bound
        config = fairness_config(2, 2)
        windowed = flow_counts(run(config, 150_000, seed=1), config)
        reference = flow_counts(
            run_reference(config, 150_000, seed=11), config
        )
        for name in ("hd_down", "hd_up", "fd_down", "fd_up"):
            count_w, total_w = windowed[name]
            count_r, total_r = reference[name]
            mean_w, mean_r = count_w / total_w, count_r / total_r
            se = math.hypot(
                math.sqrt(mean_w * (1 - mean_w) / total_w),
                math.sqrt(mean_r * (1 - mean_r) / total_r),
            )
            assert abs(mean_w - mean_r) <= max(5 * se, 1e-9), (
                name, mean_w, mean_r, se,
            )
