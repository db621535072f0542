"""Closed-form model: frozen values, edge conventions, structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fdmix.analytic import (
    CLOSURE_TOL,
    InvalidConfigError,
    NetworkConfig,
    dca_config,
    dca_gain,
    fairness_config,
    head_fraction,
    require_valid,
    throughputs,
    validate,
)

TOL = 1e-12


@st.composite
def valid_configs(draw, max_stations=8):
    """Configs built from positive weights, so closure holds to float noise."""
    m = draw(st.integers(0, max_stations))
    n = draw(st.integers(0 if m > 0 else 1, max_stations))
    a = draw(st.floats(0.05, 10.0))
    f = draw(st.floats(0.0, 10.0)) if m > 0 else 0.0
    h = draw(st.floats(0.0, 10.0)) if n > 0 else 0.0
    total = a + m * f + n * h
    return NetworkConfig(m=m, n=n, p_A=a / total, p_F=f / total, p_H=h / total)


class TestFrozenValues:
    # worked by hand: share = 1/2, pressure = (0.6 + 0.3)/0.6 = 1.5
    def test_mixed_subcritical_case(self):
        rep = throughputs(NetworkConfig(1, 1, 0.6, 0.3, 0.1))
        assert rep.p == 0.75
        assert rep.hd_down == pytest.approx(0.45, abs=TOL)
        assert rep.hd_up == pytest.approx(0.1, abs=TOL)
        assert rep.fd_down == pytest.approx(0.45, abs=TOL)
        assert rep.fd_up == pytest.approx(0.45, abs=TOL)
        assert rep.sum == pytest.approx(1.45, abs=TOL)

    def test_equal_probability_pair(self):
        rep = throughputs(NetworkConfig(1, 1, 1 / 3, 1 / 3, 1 / 3))
        assert rep.p == 1.0
        for flow in (rep.hd_down, rep.hd_up, rep.fd_down, rep.fd_up):
            assert flow == pytest.approx(1 / 3, abs=TOL)
        assert rep.sum == pytest.approx(4 / 3, abs=TOL)

    def test_all_half_duplex(self):
        rep = throughputs(NetworkConfig(0, 4, 0.2, 0.0, 0.2))
        assert rep.p == 1.0
        assert rep.hd_down == pytest.approx(0.05, abs=TOL)
        assert rep.fd_down == 0.0 and rep.fd_up == 0.0
        assert rep.sum == pytest.approx(1.0, abs=TOL)

    def test_all_full_duplex(self):
        rep = throughputs(NetworkConfig(3, 0, 0.25, 0.25, 0.0))
        assert rep.p == 0.0
        assert rep.hd_down == 0.0 and rep.hd_up == 0.0
        assert rep.fd_down == pytest.approx(1 / 3, abs=TOL)
        assert rep.sum == pytest.approx(2.0, abs=TOL)

    @pytest.mark.parametrize("size,expected", [(1, 4 / 3), (2, 1.4), (4, 13 / 9)])
    def test_uniform_contention_sums(self, size, expected):
        assert throughputs(dca_config(size, size)).sum == pytest.approx(
            expected, abs=TOL
        )
        assert dca_gain(size, size) == pytest.approx(expected, abs=TOL)


class TestHeadFraction:
    def test_no_full_duplex_is_one(self):
        assert head_fraction(NetworkConfig(0, 3, 0.4, 0.0, 0.2)) == 1.0

    def test_no_half_duplex_is_zero(self):
        assert head_fraction(NetworkConfig(2, 0, 0.5, 0.25, 0.0)) == 0.0

    def test_silent_ap_is_zero(self):
        assert head_fraction(NetworkConfig(2, 2, 0.0, 0.25, 0.25)) == 0.0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 1), (1, 5), (7, 7)])
    def test_fairness_sits_exactly_on_saturation(self, m, n):
        # p_F == p_A / n there; the fraction must be exactly 1, not 1 - ulp
        assert head_fraction(fairness_config(m, n)) == 1.0

    def test_subcritical_value(self):
        cfg = NetworkConfig(2, 3, 0.4, 0.1, 0.4 / 3)
        assert head_fraction(cfg) == pytest.approx(0.9, abs=TOL)


class TestValidate:
    def test_valid_config_has_no_violations(self):
        assert validate(NetworkConfig(1, 1, 0.6, 0.3, 0.1)) == []

    def test_no_stations(self):
        assert validate(NetworkConfig(0, 0, 1.0, 0.0, 0.0)) != []

    def test_negative_count(self):
        assert any("m" in v for v in validate(NetworkConfig(-1, 2, 0.5, 0.0, 0.25)))

    def test_non_integer_count(self):
        assert validate(NetworkConfig(2.0, 1, 0.25, 0.25, 0.25)) != []

    def test_probability_out_of_range(self):
        assert validate(NetworkConfig(1, 1, 1.5, 0.3, 0.1)) != []
        assert validate(NetworkConfig(1, 1, -0.1, 0.55, 0.55)) != []

    def test_closure_violation(self):
        bad = NetworkConfig(1, 1, 0.5, 0.2, 0.2)
        assert any("1" in v for v in validate(bad))

    def test_closure_tolerance_is_absolute(self):
        eps = CLOSURE_TOL / 2
        assert validate(NetworkConfig(1, 1, 0.5 + eps, 0.25, 0.25)) == []

    def test_unused_class_probability_must_be_zero(self):
        assert validate(NetworkConfig(0, 2, 0.5, 0.1, 0.25)) != []
        assert validate(NetworkConfig(2, 0, 0.5, 0.25, 0.1)) != []

    def test_string_probability_reported_not_raised(self):
        assert validate(NetworkConfig(1, 1, "a", 0.3, 0.1)) == [
            "p_A must be a number, got 'a'"
        ]

    def test_bad_count_does_not_cascade(self):
        # m is unusable, so the checks that need m (p_F, closure) are skipped
        assert validate(NetworkConfig(True, 2, 0.25, 0.25, 0.25)) == [
            "m must be an integer, got True"
        ]

    def test_violations_accumulate(self):
        assert len(validate(NetworkConfig(-1, 0, 2.0, 0.0, 0.5))) >= 2

    def test_require_valid_raises_with_details(self):
        with pytest.raises(InvalidConfigError) as exc:
            require_valid(NetworkConfig(0, 0, 1.0, 0.0, 0.0))
        assert exc.value.violations
        assert require_valid(dca_config(2, 2)) == dca_config(2, 2)

    def test_throughputs_rejects_invalid(self):
        with pytest.raises(InvalidConfigError):
            throughputs(NetworkConfig(1, 1, 0.9, 0.9, 0.9))


class TestConstructors:
    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (0, 4), (4, 0)])
    def test_uniform_contention_probabilities(self, m, n):
        cfg = dca_config(m, n)
        q = 1 / (1 + m + n)
        assert cfg.p_A == q
        assert cfg.p_F == (q if m > 0 else 0.0)
        assert cfg.p_H == (q if n > 0 else 0.0)
        assert validate(cfg) == []

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (0, 4)])
    def test_fairness_probabilities(self, m, n):
        cfg = fairness_config(m, n)
        denom = 2 * n + m
        assert cfg.p_A == n / denom
        assert cfg.p_H == 1 / denom
        assert cfg.p_F == (1 / denom if m > 0 else 0.0)
        assert validate(cfg) == []

    def test_fairness_without_half_duplex(self):
        cfg = fairness_config(4, 0)
        assert cfg.p_A == 0.0 and cfg.p_H == 0.0
        assert cfg.p_F == 0.25
        assert validate(cfg) == []

    @pytest.mark.parametrize("builder", [dca_config, fairness_config, dca_gain])
    def test_empty_network_rejected(self, builder):
        with pytest.raises(InvalidConfigError):
            builder(0, 0)
        with pytest.raises(InvalidConfigError):
            builder(-1, 3)

    @pytest.mark.parametrize("builder", [dca_config, fairness_config, dca_gain])
    def test_counts_must_be_integral(self, builder):
        with pytest.raises(InvalidConfigError, match="m must be an integer"):
            builder(True, 2)
        with pytest.raises(InvalidConfigError, match="n must be an integer"):
            builder(2, 2.0)

    def test_numpy_integer_counts_are_coerced(self):
        cfg = dca_config(np.int64(2), 2)
        assert cfg == dca_config(2, 2)
        assert type(cfg.m) is int
        assert validate(cfg) == []
        # validate applies the same rule to a config built by hand
        assert validate(NetworkConfig(np.int64(1), 1, 0.6, 0.3, 0.1)) == []

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 5), (7, 1), (0, 3), (12, 9)])
    def test_gain_matches_model_when_half_duplex_present(self, m, n):
        assert dca_gain(m, n) == pytest.approx(
            throughputs(dca_config(m, n)).sum, abs=TOL
        )


class TestFairnessStructure:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 2), (0, 6), (39, 1)])
    def test_all_flows_equal(self, m, n):
        rep = throughputs(fairness_config(m, n))
        want = 1 / (2 * n + m)
        flows = [rep.hd_down, rep.hd_up]
        if m > 0:
            flows += [rep.fd_down, rep.fd_up]
        for flow in flows:
            assert flow == pytest.approx(want, abs=TOL)

    @pytest.mark.parametrize("total", [5, 17, 40])
    def test_sum_non_decreasing_in_full_duplex_share(self, total):
        for builder in (dca_config, fairness_config):
            sums = [
                throughputs(builder(m, total - m)).sum for m in range(total + 1)
            ]
            assert all(a <= b + TOL for a, b in zip(sums, sums[1:]))


class TestProperties:
    @given(valid_configs())
    def test_generated_configs_are_valid(self, cfg):
        assert validate(cfg) == []

    @given(valid_configs())
    def test_report_ranges(self, cfg):
        rep = throughputs(cfg)
        assert 0.0 <= rep.p <= 1.0
        for flow in (rep.hd_down, rep.hd_up, rep.fd_down, rep.fd_up):
            assert 0.0 <= flow <= 1.0
        assert 1.0 - CLOSURE_TOL <= rep.sum <= 2.0 + CLOSURE_TOL

    @given(valid_configs())
    def test_full_duplex_flows_match(self, cfg):
        rep = throughputs(cfg)
        assert rep.fd_down == rep.fd_up

    @given(valid_configs())
    def test_sum_decomposes_over_stations(self, cfg):
        rep = throughputs(cfg)
        parts = cfg.n * (rep.hd_down + rep.hd_up) + cfg.m * (rep.fd_down + rep.fd_up)
        assert abs(rep.sum - parts) <= TOL

    @given(valid_configs())
    def test_saturation_pins_head_fraction(self, cfg):
        if cfg.m > 0 and cfg.n > 0 and cfg.p_A > 0 and cfg.p_F >= cfg.p_A / cfg.n:
            assert throughputs(cfg).p == 1.0

    @given(valid_configs())
    def test_flow_balance_below_saturation(self, cfg):
        rep = throughputs(cfg)
        if rep.p < 1.0 and cfg.m > 0 and cfg.n > 0:
            # below saturation the AP splits residual head service so that
            # each full-duplex station's total equals a half-duplex one's
            assert abs(rep.hd_down - rep.fd_down) <= TOL
            lhs = rep.p * cfg.p_A / cfg.n
            rhs = cfg.p_F + (1.0 - rep.p) * cfg.p_A / cfg.m
            assert abs(lhs - rhs) <= TOL

    @given(valid_configs())
    def test_absent_class_flows_are_zero(self, cfg):
        rep = throughputs(cfg)
        if cfg.m == 0:
            assert rep.fd_down == 0.0 and rep.fd_up == 0.0
        if cfg.n == 0:
            assert rep.hd_down == 0.0 and rep.hd_up == 0.0

    @settings(max_examples=60)
    @given(st.integers(1, 50), st.integers(1, 50))
    def test_uniform_contention_saturates(self, m, n):
        assert head_fraction(dca_config(m, n)) == 1.0
