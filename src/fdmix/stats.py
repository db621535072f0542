"""Binomial comparison of simulated flow rates against the closed form.

The judged flows, in order, are the entries of ``simulator.flow_counts``:
a count of packets (or of AP wins with a half-duplex head, for ``p``) over
a number of trials, or None (not applicable) when a flow has no trials.
A trial counts ``floor(rate)`` or one more: 0 or 1 for a station flow and
``p``, 1 or 2 for the aggregate ``sum``, since every slot carries one
packet and a two-way slot a second.  One rule gives every error: the
binomial error of the rate's fractional part, as if trials were
independent.  That ignores slot-to-slot correlation introduced by the
queue, and so understates the error of the head composition ``p``: away
from saturation its variance is ``(1+ρ)/(1−ρ)`` times the binomial one,
with ``ρ = n·p_F/p_A`` (ROADMAP.md, "Error bars that are right").
So a correct subcritical network such as (2,3,0.4,0.1,0.4/3) still fails
``z_max`` = 4 on some seeds.
"""

from __future__ import annotations

import math
import numbers
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
    """Binomial standard error of the fractional part of ``rate``.

    A count whose trials each hold ``floor(rate)`` or one more varies only
    in how many trials hold the extra one, a Bernoulli rate of
    ``rate % 1``.  So the error is 0 at every whole rate: a station flow
    or ``p`` of exactly 0 or 1, and a ``sum`` of exactly 1 or 2.  Rooting
    before dividing keeps it positive at every other rate, subnormal too.
    """
    q = rate % 1.0
    return math.sqrt(q * (1.0 - q)) / math.sqrt(trials)


def estimate(count: int, total: int) -> FlowEstimate:
    """Rate estimate for ``count`` over ``total`` trials, error by :func:`_std_error`."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    mean = count / total
    return FlowEstimate(mean=mean, std_error=_std_error(mean, total))


def _check_z_max(z_max) -> float:
    """``z_max`` as a plain float; ValueError unless a finite real > 0, not bool."""
    if type(z_max) is bool or not isinstance(z_max, numbers.Real):
        raise ValueError(f"z_max must be a number, got {z_max!r}")
    if not (math.isfinite(z_max) and z_max > 0):
        raise ValueError(f"z_max must be finite and > 0, got {z_max!r}")
    return float(z_max)


def _judge(
    name: str, theory_value: float, entry: tuple[int, int] | None, z_max: float
) -> FlowComparison:
    if entry is None:
        return FlowComparison(name, theory_value, None, None, NOT_APPLICABLE)
    # A degenerate estimate (every trial alike) is judged by the error at
    # the theory value, and must match exactly only when that is zero too.
    est = estimate(*entry)
    error = est.std_error or _std_error(theory_value, entry[1])
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
    and inf pass every flow); the result holds it as a plain float.  The
    flows, in order, are the entries of ``flow_counts``, each judged by one
    rule (:func:`_std_error`, ``sum`` as ``1 +`` its two-way fraction) or
    reported as not applicable when None.
    """
    z_max = _check_z_max(z_max)
    flows = [
        _judge(name, getattr(theory, name), entry, z_max)
        for name, entry in flow_counts(stats, config).items()
    ]
    overall = all(f.verdict != FAIL for f in flows)
    return ComparisonResult(flows=flows, z_max=z_max, overall=overall)
