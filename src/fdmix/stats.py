"""Binomial comparison of simulated flow rates against the closed form.

Each measured flow is treated as a Bernoulli rate over its observation
count, which ignores slot-to-slot correlation introduced by the queue.  The
binomial error understates that of the head composition ``p``: away from
saturation its variance is ``(1+ρ)/(1−ρ)`` times the binomial one, with
``ρ = n·p_F/p_A`` (ROADMAP.md, item "Model-based standard errors").  So a
correct subcritical network such as (2,3,0.4,0.1,0.4/3) still fails
``z_max`` = 4 on some seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import NetworkConfig, ThroughputReport
from .simulator import SimStats, flow_counts

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class FlowEstimate:
    """A rate estimate with its binomial standard error."""

    mean: float
    std_error: float


@dataclass(frozen=True)
class FlowComparison:
    """One flow's theory value against its estimate.

    ``z`` is the deviation in standard errors of the estimate.  When that
    error is zero (every trial came out alike, as in a short run), ``z`` is
    in binomial standard errors at the theory value over the same trials.
    It is None when both errors are zero (the verdict then comes from exact
    equality) or when the flow is not applicable to the configuration.
    """

    name: str
    theory: float
    estimate: FlowEstimate | None
    z: float | None
    verdict: str


@dataclass(frozen=True)
class ComparisonResult:
    flows: list[FlowComparison]
    z_max: float
    overall: bool


def _std_error(rate: float, trials: int) -> float:
    """Binomial standard error of ``rate`` over ``trials`` trials."""
    q = min(rate, 1.0)
    return math.sqrt(max(q * (1.0 - q), 0.0) / trials)


def estimate(count: int, total: int) -> FlowEstimate:
    """Bernoulli rate estimate for ``count`` successes in ``total`` trials."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    mean = count / total
    return FlowEstimate(mean=mean, std_error=_std_error(mean, total))


def _check_z_max(z_max) -> float:
    """``z_max`` as a plain float; ValueError unless it is finite and > 0."""
    if not (math.isfinite(z_max) and z_max > 0):
        raise ValueError(f"z_max must be finite and > 0, got {z_max!r}")
    return float(z_max)


def _judge(
    name: str, theory_value: float, est: FlowEstimate, theory_error: float, z_max: float
) -> FlowComparison:
    # A degenerate estimate (every trial alike) is judged by the error at
    # the theory value, and must match exactly only when that is zero too.
    error = est.std_error or theory_error
    if error > 0.0:
        z = (est.mean - theory_value) / error
        ok = abs(z) <= z_max
    else:
        z, ok = None, est.mean == theory_value
    return FlowComparison(name, theory_value, est, z, PASS if ok else FAIL)


def compare(
    theory: ThroughputReport,
    stats: SimStats,
    config: NetworkConfig,
    z_max: float = 4.0,
) -> ComparisonResult:
    """Judge every flow of ``stats`` against ``theory`` at ``z_max``.

    ``z_max`` must be finite and > 0 (NaN, 0 or less would fail every flow
    and inf pass every flow); the result holds it as a plain float.
    Flows of an absent station class are reported as not applicable, as is
    the head composition when the AP never won a slot.  The aggregate's
    error combines those of its downlink and uplink slot fractions by
    ``hypot``, as if they were independent.  They are not: every slot
    carries at least one packet, so ``sum - 1`` is the fraction of two-way
    slots, and the ``hypot`` overstates the error.  ROADMAP.md item 1(b)
    replaces the rule.
    """
    z_max = _check_z_max(z_max)
    # name -> (estimate, binomial error at the theory value)
    judged = {
        name: (estimate(count, trials), _std_error(getattr(theory, name), trials))
        for name, (count, trials) in flow_counts(stats, config).items()
    }
    n, m, t = config.n, config.m, stats.total_slots
    down = estimate(sum(stats.down_slots), t)
    up = estimate(sum(stats.up_slots), t)
    judged["sum"] = (
        FlowEstimate(down.mean + up.mean, math.hypot(down.std_error, up.std_error)),
        math.hypot(
            _std_error(n * theory.hd_down + m * theory.fd_down, t),
            _std_error(n * theory.hd_up + m * theory.fd_up, t),
        ),
    )
    flows = [
        _judge(name, getattr(theory, name), *judged[name], z_max)
        if name in judged
        else FlowComparison(name, getattr(theory, name), None, None, NOT_APPLICABLE)
        for name in ("hd_down", "hd_up", "fd_down", "fd_up", "p", "sum")
    ]
    overall = all(f.verdict != FAIL for f in flows)
    return ComparisonResult(flows=flows, z_max=z_max, overall=overall)
