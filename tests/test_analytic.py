"""Closed-form model: frozen values, edge conventions, structural properties."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fdmix.analytic import (
    CLOSURE_TOL,
    MAX_STATIONS,
    InvalidConfigError,
    NetworkConfig,
    dca_config,
    fairness_config,
    head_fraction,
    require_valid,
    throughputs,
    validate,
    _plain_and_valid,
)

from strategies import valid_configs

TOL = 1e-12


def dca_gain(m, n):
    """Aggregate throughput under uniform contention: 1 + m/(1+m+n).

    The surplus over 1 is the fraction of slots won by a full-duplex
    station, each carrying two packets.  It equals the closed form's
    ``sum`` whenever half-duplex stations are present.
    """
    return 1.0 + m / (1 + m + n)


# Mostly invalid configs, with values near every rule's edge.
probabilities = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 + 1e-9, -0.0, math.nan]) | st.floats()
any_configs = st.builds(
    NetworkConfig,
    st.integers(-2, 4) | st.sampled_from([2**53, 2**53 + 1]),
    st.integers(-2, 4),
    probabilities,
    probabilities,
    probabilities,
)

# Plain int/float configs, heavy on the edges of every rule.
plain_counts = st.sampled_from([0, 1, MAX_STATIONS, MAX_STATIONS + 1, -1]) | st.integers(-1, 5)
plain_probabilities = st.sampled_from([
    0.0, -0.0, 1.0, 0.5, 0.25, math.nan, math.inf,
    math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0),
]) | st.floats()


@st.composite
def closure_edge_configs(draw):
    """Plain configs whose closure lands within a few ulps of 1 +/- CLOSURE_TOL."""
    m = draw(st.sampled_from([0, 1, 2, 7, MAX_STATIONS]))
    n = draw(st.sampled_from([0, 1, 3, MAX_STATIONS]))
    p_F = draw(st.floats(0.0, 0.5)) / m if m else 0.0
    p_H = draw(st.floats(0.0, 0.5)) / n if n else 0.0
    p_A = 1.0 - m * p_F - n * p_H + draw(st.sampled_from([CLOSURE_TOL, -CLOSURE_TOL, 0.0]))
    for _ in range(draw(st.integers(0, 3))):
        p_A = math.nextafter(p_A, draw(st.sampled_from([-math.inf, math.inf])))
    return NetworkConfig(m, n, p_A, p_F, p_H)


class _NotPlain(float):
    """A float that is not of type ``float``, so validate() takes its reporting path."""


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

    def test_snaps_at_exactly_the_tolerance(self):  # share * pressure == 1 - 1e-12 exactly
        assert head_fraction(NetworkConfig(1, 1, 0.25, 0.2499999999995, 0.5000000000005)) == 1.0


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

    def test_bool_probability_rejected(self):
        assert validate(NetworkConfig(1, 1, True, 0.0, 0.0)) == [
            "p_A must be a number, got True"
        ]

    def test_integral_probability_accepted(self):
        assert validate(NetworkConfig(1, 0, 0, 1, 0)) == []

    def test_huge_count_reported_not_raised(self):
        # beyond 2**53 the closure would overflow a float
        assert validate(NetworkConfig(10**400, 1, 0.5, 0.0, 0.5)) == [
            f"m must be <= {2**53}, got {10**400}"
        ]
        assert validate(NetworkConfig(2**53, 1, 0.5, 0.0, 0.5)) == []
        assert validate(NetworkConfig(1, 2**53 + 1, 0.5, 0.5, 0.0)) != []

    def test_huge_probability_reported_not_raised(self):
        assert validate(NetworkConfig(1, 1, 10**400, 0.3, 0.1)) == [
            f"p_A must lie in [0, 1], got {10**400}"
        ]

    def test_integer_too_long_to_print_reported_not_raised(self):
        # Python refuses to turn an int of more than 4300 digits into text,
        # so the violation names its size instead
        assert validate(NetworkConfig(-10**5000, 1, 0.5, 0.0, 0.5)) == [
            "m must be >= 0, got a negative integer of 5001 digits"
        ]
        assert validate(NetworkConfig(1, 1, 10**5000, 0.3, 0.1)) == [
            "p_A must lie in [0, 1], got an integer of 5001 digits"
        ]
        with pytest.raises(InvalidConfigError, match="an integer of 5001 digits"):
            dca_config(10**5000, 1)

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

    # Plain int and float configs that break a rule, plus the types the
    # plain-number path must hand to the reporting path.
    @pytest.mark.parametrize("values,violations", [
        ((True, 1, 0.5, 0.0, 0.5), ["m must be an integer, got True"]),
        ((1, np.bool_(True), 0.5, 0.0, 0.5), ["n must be an integer, got np.True_"]),
        ((1, 1, True, 0.0, 0.0), ["p_A must be a number, got True"]),
        ((1, 1, np.bool_(True), 0.0, 0.0), ["p_A must be a number, got np.True_"]),
        ((1, 1, "a", 0.3, 0.1), ["p_A must be a number, got 'a'"]),
        ((1, 1, math.nan, 0.3, 0.1), ["p_A must lie in [0, 1], got nan"]),
        ((1, 1, 0.6, math.nan, 0.1), ["p_F must lie in [0, 1], got nan"]),
        ((-1, 2, 0.5, 0.0, 0.25), ["m must be >= 0, got -1"]),
        ((2**53 + 1, 1, 0.5, 0.0, 0.5), [f"m must be <= {2**53}, got {2**53 + 1}"]),
        ((1, 10**5000, 0.5, 0.5, 0.0),
         [f"n must be <= {2**53}, got an integer of 5001 digits"]),
        ((1, 1, 10**5000 - 1, 0.3, 0.1), ["p_A must lie in [0, 1], got an integer of 5000 digits"]),
        ((1, 1, 0.5, 0.25, 0.25 + 2e-9),
         ["p_A + m*p_F + n*p_H must equal 1 within 1e-09, got 1.000000002"]),
        ((0, 2, 0.5, 0.1, 0.25), ["p_F must be 0 when m == 0, got 0.1"]),
        ((2, 0, 0.5, 0.25, 0.1), ["p_H must be 0 when n == 0, got 0.1"]),
        ((0, 0, 1.0, 0.0, 0.0), ["need at least one station (m + n >= 1)"]),
        ((-1, 0, 2.0, 0.0, 0.5), [
            "m must be >= 0, got -1", "p_A must lie in [0, 1], got 2.0",
            "p_H must be 0 when n == 0, got 0.5",
        ]),
        # the closure is summed in floats, whatever type the inputs are
        ((1, 1, np.float32(.6), np.float32(.3), np.float32(.1)),
         ["p_A + m*p_F + n*p_H must equal 1 within 1e-09, got 1.000000037252903"]),
        ((1, 0, Fraction(1, 2), Fraction(1), 0),
         ["p_A + m*p_F + n*p_H must equal 1 within 1e-09, got 1.5"]),
    ])
    def test_invalid_corpus_reports(self, values, violations):
        assert validate(NetworkConfig(*values)) == violations
        with pytest.raises(InvalidConfigError) as exc:
            throughputs(NetworkConfig(*values))
        assert exc.value.violations == violations

    def test_closure_edge_is_unchanged(self):
        # the last p_A that closes under the float sum p_A + m*p_F + n*p_H
        last = 0.5000000009999999
        assert validate(NetworkConfig(1, 1, last, 0.25, 0.25)) == []
        assert validate(NetworkConfig(1, 1, math.nextafter(last, 1.0), 0.25, 0.25)) == [
            "p_A + m*p_F + n*p_H must equal 1 within 1e-09, got 1.000000001"
        ]


def assert_plain_floats(report):
    for field in report._fields:
        assert type(getattr(report, field)) is float, field


class TestNumberTypes:
    """throughputs() returns plain floats whatever real numbers it is given."""

    def test_fractions(self):
        third = Fraction(1, 3)
        report = throughputs(NetworkConfig(1, 1, third, third, third))
        assert_plain_floats(report)
        assert report == throughputs(NetworkConfig(1, 1, 1 / 3, 1 / 3, 1 / 3))
        assert type(head_fraction(NetworkConfig(1, 1, third, third, third))) is float

    def test_numpy_integer_probabilities(self):
        report = throughputs(NetworkConfig(1, 0, np.int64(0), np.int64(1), np.int64(0)))
        assert_plain_floats(report)
        assert report == throughputs(NetworkConfig(1, 0, 0.0, 1.0, 0.0))


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

    @pytest.mark.parametrize("builder", [dca_config, fairness_config])
    def test_empty_network_rejected(self, builder):
        with pytest.raises(InvalidConfigError):
            builder(0, 0)
        with pytest.raises(InvalidConfigError):
            builder(-1, 3)

    @pytest.mark.parametrize("builder", [dca_config, fairness_config])
    def test_counts_must_be_integral(self, builder):
        with pytest.raises(InvalidConfigError, match="m must be an integer"):
            builder(True, 2)
        with pytest.raises(InvalidConfigError, match="n must be an integer"):
            builder(2, 2.0)

    @pytest.mark.parametrize("builder", [dca_config, fairness_config])
    def test_huge_counts_rejected(self, builder):
        with pytest.raises(InvalidConfigError, match="m must be <="):
            builder(10**400, 1)

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

    @settings(max_examples=200)
    @given(st.one_of(valid_configs(), any_configs))
    @example(NetworkConfig(MAX_STATIONS, 0, 1.0, 0.0, 0.0))  # np.int64 at the largest count
    def test_numpy_scalars_get_the_plain_verdict(self, cfg):
        # the same values as np.int64 and np.float64 take the reporting path
        as_numpy = NetworkConfig(
            np.int64(cfg.m), np.int64(cfg.n),
            np.float64(cfg.p_A), np.float64(cfg.p_F), np.float64(cfg.p_H),
        )
        plain_valid = validate(cfg) == []
        assert (validate(as_numpy) == []) == plain_valid
        if plain_valid:
            # require_valid returns the normal form: cfg itself, and for the
            # numpy twin an equal config of plain ints and floats
            assert require_valid(cfg) is cfg
            normal = require_valid(as_numpy)
            assert normal == cfg
            assert [type(getattr(normal, f.name)) for f in dataclasses.fields(normal)] == [
                int, int, float, float, float
            ]
            assert head_fraction(as_numpy) == head_fraction(cfg)
            assert throughputs(as_numpy) == throughputs(cfg)
            assert_plain_floats(throughputs(as_numpy))

    @settings(max_examples=300)
    @given(
        st.builds(NetworkConfig, plain_counts, plain_counts,
                  plain_probabilities, plain_probabilities, plain_probabilities)
        | closure_edge_configs()
    )
    # the closure one ulp inside and outside 1 + CLOSURE_TOL and 1 - CLOSURE_TOL
    @example(NetworkConfig(1, 1, 0.5000000009999999, 0.25, 0.25))
    @example(NetworkConfig(1, 1, math.nextafter(0.5000000009999999, 1.0), 0.25, 0.25))
    @example(NetworkConfig(1, 1, 0.49999999900000003, 0.25, 0.25))
    @example(NetworkConfig(1, 1, math.nextafter(0.49999999900000003, 0.0), 0.25, 0.25))
    # counts at 0 and at MAX_STATIONS, probabilities at exactly 0.0 and 1.0
    @example(NetworkConfig(0, 0, 1.0, 0.0, 0.0))
    @example(NetworkConfig(0, 1, 0.0, 0.0, 1.0))
    @example(NetworkConfig(MAX_STATIONS, 0, 1.0, 0.0, 0.0))
    @example(NetworkConfig(MAX_STATIONS + 1, 0, 1.0, 0.0, 0.0))
    @example(NetworkConfig(1, 1, math.nan, 0.5, 0.5))
    # p_F at 1, and p_F or p_H one ulp above 1 with the closure in tolerance
    @example(NetworkConfig(1, 0, 0.0, 1.0, 0.0))
    @example(NetworkConfig(1, 0, 0.0, math.nextafter(1.0, 2.0), 0.0))
    @example(NetworkConfig(0, 1, 0.0, 0.0, math.nextafter(1.0, 2.0)))
    # an absent class with a non-zero probability
    @example(NetworkConfig(0, 1, 0.5, 1e-300, 0.5))
    @example(NetworkConfig(1, 0, 0.5, 0.5, 5e-324))
    def test_plain_verdict_matches_reporting_path(self, cfg):
        plain = _plain_and_valid(cfg.m, cfg.n, cfg.p_A, cfg.p_F, cfg.p_H)
        assert plain == (validate(cfg) == [])
        # the same floats through the rules as validate() reports them
        reported = validate(NetworkConfig(
            cfg.m, cfg.n, _NotPlain(cfg.p_A), _NotPlain(cfg.p_F), _NotPlain(cfg.p_H)
        ))
        assert plain == (reported == [])

    @settings(max_examples=60)
    @given(st.integers(1, 50), st.integers(1, 50))
    def test_uniform_contention_saturates(self, m, n):
        assert head_fraction(dca_config(m, n)) == 1.0
