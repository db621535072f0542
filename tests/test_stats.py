"""Theory-versus-simulation comparison: estimates, verdicts, controls."""

import math
import statistics

import pytest

from fdmix.analytic import NetworkConfig, dca_config, fairness_config, throughputs
from fdmix.simulator import SimStats, empirical_report, run
from fdmix.stats import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    FlowEstimate,
    _std_error,
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


class TestStdError:
    """One rule: the binomial error of the rate's fractional part."""

    @pytest.mark.parametrize("rate, want", [
        (0.0, 0.0),  # no trial counts
        (1.0, 0.0),  # every trial counts one: p in saturation, sum with no two-way slot
        (2.0, 0.0),  # every slot two-way
        (1.45, math.sqrt(0.45 * 0.55 / 1000)),  # sum: 45% of slots two-way
        (5e-324, math.sqrt(5e-324) / math.sqrt(1000)),  # q * (1 - q) / 1000 underflows to 0
    ])
    def test_value(self, rate, want):
        # abs=0: pytest.approx would take 0 for a tiny positive error
        assert _std_error(rate, 1000) == pytest.approx(want, abs=0)


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

    @pytest.mark.parametrize("z_max", [math.nan, -1.0, 0.0, math.inf, True, None, "4"])
    def test_z_max_must_be_finite_and_positive(self, z_max):
        # nan, -1 and 0 would fail every flow and inf would pass every flow;
        # True is no threshold of 1, and None or "4" no number at all
        cfg = dca_config(2, 2)
        stats = run(cfg, 1_000, seed=0)
        with pytest.raises(ValueError, match="z_max"):
            compare(throughputs(cfg), stats, cfg, z_max=z_max)

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

    def test_degenerate_estimate_judged_at_theory_error(self):
        # one slot of dca(0,3) won by a half-duplex station: no downlink and
        # one uplink, so hd_down and the aggregate have zero standard error
        cfg = dca_config(0, 3)
        theory = throughputs(cfg)
        stats = SimStats(total_slots=1, down_slots=[0, 0, 0], up_slots=[1, 0, 0])
        flows = _by_name(compare(theory, stats, cfg))
        hd_down = flows["hd_down"]
        assert hd_down.estimate == FlowEstimate(mean=0.0, std_error=0.0)
        q = theory.hd_down
        assert hd_down.z == pytest.approx(-q / math.sqrt(q * (1 - q) / 3))
        assert hd_down.verdict == PASS
        # an all-half-duplex aggregate is exactly 1 in theory too: no
        # two-way slot, so both errors are zero and the match is exact
        assert theory.sum == 1.0
        assert flows["sum"].estimate == FlowEstimate(mean=1.0, std_error=0.0)
        assert flows["sum"].z is None
        assert flows["sum"].verdict == PASS
        assert compare(theory, stats, cfg).overall

    def test_degenerate_estimate_fails_on_any_gap(self):
        # every slot two-way against a theory with 45% two-way slots: the
        # estimate's error is zero, so z is in errors at the theory value
        cfg = fairness_config(3, 0)
        stats = run(cfg, 20_000, seed=1)
        flows = _by_name(compare(throughputs(MIXED), stats, cfg))
        want = (2.0 - 1.45) / math.sqrt(0.45 * 0.55 / 20_000)
        assert flows["sum"].z == pytest.approx(want)
        assert flows["sum"].verdict == FAIL

    def test_degenerate_estimate_fails_on_any_gap_at_zero_errors(self):
        # every slot two-way against a theory with none: both errors are
        # zero, so the verdict is the failed exact match
        cfg = fairness_config(3, 0)
        stats = run(cfg, 20_000, seed=1)
        flows = _by_name(compare(throughputs(dca_config(0, 3)), stats, cfg))
        assert flows["sum"].estimate == FlowEstimate(mean=2.0, std_error=0.0)
        assert flows["sum"].theory == 1.0
        assert flows["sum"].z is None
        assert flows["sum"].verdict == FAIL

    def test_sum_error_is_that_of_the_two_way_fraction(self):
        # every slot carries one packet; a two-way slot is one with a
        # full-duplex station, so its fraction is that station's downlinks
        stats = run(MIXED, 50_000, seed=2)
        flows = _by_name(compare(throughputs(MIXED), stats, MIXED))
        t = stats.total_slots
        f = sum(stats.down_slots[MIXED.n:]) / t
        assert flows["sum"].estimate.mean == pytest.approx(1 + f)
        assert flows["sum"].estimate.std_error == pytest.approx(math.sqrt(f * (1 - f) / t))

    def test_subnormal_theory_rate_passes_on_no_count(self):
        # p_H = 5e-324: no half-duplex uplink in 1000 slots agrees with the
        # theory's 5e-324, so the error at the theory value must not be 0
        cfg = NetworkConfig(2, 1, 0.5, 0.25, 5e-324)
        theory = throughputs(cfg)
        stats = run(cfg, 1_000, seed=0)
        hd_up = _by_name(compare(theory, stats, cfg))["hd_up"]
        assert hd_up.theory == 5e-324
        assert hd_up.estimate == FlowEstimate(mean=0.0, std_error=0.0)
        assert hd_up.z is not None and math.isfinite(hd_up.z)
        assert hd_up.verdict == PASS

    def test_closed_form_just_short_of_two_passes(self):
        # dca(2,0) closes at 1.9999999999999998 while every simulated slot
        # is two-way: z is in the tiny error at the theory value
        cfg = dca_config(2, 0)
        theory = throughputs(cfg)
        assert theory.sum == 1.9999999999999998
        stats = run(cfg, 20_000, seed=1)
        result = compare(theory, stats, cfg)
        flows = _by_name(result)
        assert flows["sum"].estimate == FlowEstimate(mean=2.0, std_error=0.0)
        assert abs(flows["sum"].z) < 1e-3
        assert flows["sum"].verdict == PASS
        assert result.overall

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
    seeds each; at least 95% must pass at z_max = 4, and the aggregate's z
    must spread about as a unit normal on each.  Run at 10^5 slots to
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

    @pytest.fixture(scope="class")
    def results(self):
        """Each control's comparison at seeds 0..19, in CONTROLS order."""
        return [
            [compare(throughputs(cfg), run(cfg, 100_000, seed=seed), cfg) for seed in range(20)]
            for cfg in self.CONTROLS
        ]

    def test_pass_rate_at_least_95_percent(self, results):
        outcomes = [result.overall for runs in results for result in runs]
        passed = sum(outcomes)
        trials = len(outcomes)
        assert trials == 100
        assert passed >= 95, f"only {passed}/{trials} control runs passed"

    def test_sum_z_spread_is_calibrated(self, results):
        # a calibrated z has unit spread; over 20 seeds the sample sd of
        # that spread is about 0.16, so [0.6, 1.6] holds a right error
        for cfg, runs in zip(self.CONTROLS, results):
            spread = statistics.stdev(_by_name(result)["sum"].z for result in runs)
            assert 0.6 <= spread <= 1.6, (cfg, spread)
