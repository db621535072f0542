"""Theory-versus-simulation comparison: estimates, verdicts, controls."""

import math

import pytest

from fdmix.analytic import NetworkConfig, dca_config, fairness_config, throughputs
from fdmix.simulator import SimStats, empirical_report, run
from fdmix.stats import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    FlowEstimate,
    compare,
    estimate,
)

MIXED = NetworkConfig(1, 1, 0.6, 0.3, 0.1)


class TestEstimate:
    def test_half_rate(self):
        est = estimate(500_000, 1_000_000)
        assert est == FlowEstimate(mean=0.5, std_error=0.0005)

    def test_zero_count_has_zero_error(self):
        assert estimate(0, 1000) == FlowEstimate(mean=0.0, std_error=0.0)

    def test_full_count_has_zero_error(self):
        assert estimate(1000, 1000) == FlowEstimate(mean=1.0, std_error=0.0)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            estimate(1, 0)

    def test_error_shrinks_with_sample_size(self):
        small = estimate(10, 100).std_error
        large = estimate(1000, 10_000).std_error
        assert large == pytest.approx(small / 10)


def _by_name(result):
    return {flow.name: flow for flow in result.flows}


class TestCompare:
    def test_agreement_passes(self):
        stats = run(MIXED, 100_000, seed=0)
        result = compare(throughputs(MIXED), stats, MIXED)
        assert result.overall
        flows = _by_name(result)
        assert set(flows) == {"hd_down", "hd_up", "fd_down", "fd_up", "p", "sum"}
        for flow in flows.values():
            assert flow.verdict == PASS
            assert flow.z is not None and abs(flow.z) <= 4.0

    def test_deliberate_mismatch_fails(self):
        # theory for the station mix with m and n swapped must be rejected
        cfg = dca_config(1, 3)
        stats = run(cfg, 50_000, seed=0)
        result = compare(throughputs(dca_config(3, 1)), stats, cfg)
        assert not result.overall
        assert any(flow.verdict == FAIL for flow in result.flows)

    def test_z_threshold_is_respected(self):
        stats = run(MIXED, 100_000, seed=0)
        strict = compare(throughputs(MIXED), stats, MIXED, z_max=0.01)
        assert not strict.overall
        assert strict.z_max == 0.01

    def test_absent_full_duplex_rows_not_applicable(self):
        cfg = dca_config(0, 3)
        stats = run(cfg, 20_000, seed=1)
        flows = _by_name(compare(throughputs(cfg), stats, cfg))
        assert flows["fd_down"].verdict == NOT_APPLICABLE
        assert flows["fd_up"].verdict == NOT_APPLICABLE
        assert flows["fd_down"].estimate is None
        assert flows["fd_down"].z is None
        assert flows["hd_down"].verdict == PASS

    def test_silent_ap_head_row_not_applicable(self):
        # p_A = 0: the queue head is never observed
        cfg = fairness_config(3, 0)
        stats = run(cfg, 20_000, seed=1)
        result = compare(throughputs(cfg), stats, cfg)
        flows = _by_name(result)
        assert stats.ap_wins == 0
        assert flows["p"].verdict == NOT_APPLICABLE
        assert flows["hd_down"].verdict == NOT_APPLICABLE
        assert result.overall

    def test_degenerate_estimate_passes_on_exact_match(self):
        # every slot of an all-full-duplex run carries exactly two packets,
        # so the aggregate has zero standard error and must match exactly
        cfg = fairness_config(3, 0)
        stats = run(cfg, 20_000, seed=1)
        flows = _by_name(compare(throughputs(cfg), stats, cfg))
        assert flows["sum"].estimate == FlowEstimate(mean=2.0, std_error=0.0)
        assert flows["sum"].z is None
        assert flows["sum"].verdict == PASS

    def test_degenerate_estimate_fails_on_any_gap(self):
        cfg = fairness_config(3, 0)
        stats = run(cfg, 20_000, seed=1)
        flows = _by_name(compare(throughputs(MIXED), stats, cfg))
        assert flows["sum"].z is None
        assert flows["sum"].verdict == FAIL

    def test_sum_error_combines_both_directions(self):
        stats = run(MIXED, 50_000, seed=2)
        flows = _by_name(compare(throughputs(MIXED), stats, MIXED))
        t = stats.total_slots
        down = sum(stats.down_slots) / t
        up = sum(stats.up_slots) / t
        want = math.hypot(
            math.sqrt(down * (1 - down) / t), math.sqrt(up * (1 - up) / t)
        )
        assert flows["sum"].estimate.mean == pytest.approx(down + up)
        assert flows["sum"].estimate.std_error == pytest.approx(want)

    @pytest.mark.parametrize(
        "cfg", [MIXED, dca_config(0, 3), fairness_config(3, 0)],
        ids=["mixed11", "hd_only", "fd_only"],
    )
    def test_means_equal_empirical_report(self, cfg):
        # both are built from the same flow counts, so they agree exactly
        stats = run(cfg, 20_000, seed=4)
        report = empirical_report(stats, cfg)
        for flow in compare(throughputs(cfg), stats, cfg).flows:
            if flow.estimate is not None:
                assert flow.estimate.mean == getattr(report, flow.name), flow.name

    def test_rejects_empty_stats(self):
        empty = SimStats(down_slots=[0, 0], up_slots=[0, 0])
        with pytest.raises(ValueError):
            compare(throughputs(dca_config(1, 1)), empty, dca_config(1, 1))


class TestControlProperty:
    """Each config's own theory should pass against its own simulation.

    Five diverse configurations away from the saturation boundary, twenty
    seeds each; at least 95% must pass at z_max = 4.  Run at 10^5 slots to
    keep the suite fast; scripts/validate_presets.py drives the same check
    at full length through the CLI.
    """

    CONTROLS = [
        NetworkConfig(1, 1, 0.6, 0.3, 0.1),        # subcritical, head 0.75
        NetworkConfig(2, 3, 0.4, 0.1, 0.4 / 3),    # subcritical, head 0.9
        dca_config(4, 2),                          # strictly saturated
        NetworkConfig(1, 4, 0.5, 0.05, 0.1125),    # subcritical, head 0.88
        NetworkConfig(3, 1, 0.7, 0.05, 0.15),      # AP-heavy, head 0.30
    ]

    def test_pass_rate_at_least_95_percent(self):
        passed = 0
        trials = 0
        for cfg in self.CONTROLS:
            theory = throughputs(cfg)
            for seed in range(20):
                stats = run(cfg, 100_000, seed=seed)
                trials += 1
                passed += compare(theory, stats, cfg).overall
        assert trials == 100
        assert passed >= 95, f"only {passed}/{trials} control runs passed"
