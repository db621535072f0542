"""Binomial comparison of simulated flow rates against the closed form.

Each measured flow is treated as a Bernoulli rate over its observation
count, which ignores slot-to-slot correlation introduced by the queue.  The
acceptance threshold ``z_max`` of 4 standard errors is wide enough to absorb
that approximation for configurations away from the head-saturation
boundary.
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

    ``z`` is the standardised deviation, or None when the estimate has zero
    standard error (the verdict then comes from exact equality) or when the
    flow is not applicable to the configuration.
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


def estimate(count: int, total: int) -> FlowEstimate:
    """Bernoulli rate estimate for ``count`` successes in ``total`` trials."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    mean = count / total
    q = min(mean, 1.0)
    return FlowEstimate(mean=mean, std_error=math.sqrt(max(q * (1.0 - q), 0.0) / total))


def _judge(
    name: str, theory_value: float, est: FlowEstimate | None, z_max: float
) -> FlowComparison:
    if est is None:
        return FlowComparison(name, theory_value, None, None, NOT_APPLICABLE)
    if est.std_error > 0.0:
        z = (est.mean - theory_value) / est.std_error
        return FlowComparison(
            name, theory_value, est, z, PASS if abs(z) <= z_max else FAIL
        )
    # A degenerate estimate (every trial identical) must match exactly.
    return FlowComparison(
        name, theory_value, est, None, PASS if est.mean == theory_value else FAIL
    )


def compare(
    theory: ThroughputReport,
    stats: SimStats,
    config: NetworkConfig,
    z_max: float = 4.0,
) -> ComparisonResult:
    """Judge every flow of ``stats`` against ``theory`` at ``z_max``.

    Flows of an absent station class are reported as not applicable, as is
    the head composition when the AP never won a slot.  The aggregate is
    split into its downlink and uplink slot fractions, whose variances add.
    """
    counts = flow_counts(stats, config)
    estimates = {name: estimate(*pair) for name, pair in counts.items()}

    def packets(*names: str) -> int:
        return sum(counts[name][0] for name in names if name in counts)

    down_frac = estimate(packets("hd_down", "fd_down"), stats.total_slots)
    up_frac = estimate(packets("hd_up", "fd_up"), stats.total_slots)
    estimates["sum"] = FlowEstimate(
        mean=down_frac.mean + up_frac.mean,
        std_error=math.hypot(down_frac.std_error, up_frac.std_error),
    )
    flows = [
        _judge(name, getattr(theory, name), estimates.get(name), z_max)
        for name in ("hd_down", "hd_up", "fd_down", "fd_up", "p", "sum")
    ]
    overall = all(f.verdict != FAIL for f in flows)
    return ComparisonResult(flows=flows, z_max=z_max, overall=overall)
