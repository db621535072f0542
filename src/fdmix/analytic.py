"""Closed-form slot throughput for one full-duplex AP serving a station mix.

The network runs slotted random access: in every slot the access point
transmits with probability ``p_A``, each of the ``m`` full-duplex stations
with probability ``p_F``, and each of the ``n`` half-duplex stations with
probability ``p_H``.  Exactly one of these events fires per slot, so the
probabilities close to one.  The AP keeps an infinite backlog of downlink
packets with uniformly random destinations and serves it in FIFO order,
except that a winning full-duplex station pulls its own packet out of turn,
which it answers with a simultaneous uplink.

All flows below are per-station probabilities that a slot carries a packet
in the given direction, in steady state.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

# Absolute slack allowed on p_A + m*p_F + n*p_H = 1.
CLOSURE_TOL = 1e-9

# Largest station count.  The closed form computes in floats, which hold
# every integer up to 2**53 exactly; a larger count can overflow them.
MAX_STATIONS = 2**53

# Relative slack under which the head fraction is snapped to exactly 1.
# The saturation argument can land on 1 mathematically yet round to
# 1 +/- 2 ulp in floats; downstream code branches on p == 1.
_SNAP_TOL = 1e-12


class InvalidConfigError(ValueError):
    """Raised when a config, a station count, a slot span or a seed is invalid."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def as_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """Return ``value`` as a plain int in ``[minimum, maximum]``.

    Integral types such as ``np.int64`` are coerced; ``bool`` and
    non-integral values such as ``2.0`` are rejected.  Raises
    :class:`InvalidConfigError` naming ``name``.
    """
    if type(value) is int and minimum <= value and (maximum is None or value <= maximum):
        return value
    try:
        if type(value) is bool:
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InvalidConfigError([f"{name} must be an integer, got {_show(value)}"]) from None
    if value < minimum:
        raise InvalidConfigError([f"{name} must be >= {minimum}, got {_show(value)}"])
    if maximum is not None and value > maximum:
        raise InvalidConfigError([f"{name} must be <= {maximum}, got {_show(value)}"])
    return value


def _show(value) -> str:
    """``repr(value)`` for an error text, never raising.

    An int too long for ``repr`` (Python caps int-to-text conversion at a
    few thousand digits) is named by its digit count instead.
    """
    try:
        return repr(value)
    except ValueError:
        size = abs(value)
        digits = int((size.bit_length() - 1) * math.log10(2))  # at most one short
        while 10**digits <= size:
            digits += 1
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {digits} digits"


@dataclass(frozen=True)
class NetworkConfig:
    """Station counts and per-slot access probabilities.

    ``m`` counts full-duplex stations, ``n`` half-duplex stations.  The
    probability of an unused class must be zero: ``p_F == 0`` when
    ``m == 0`` and ``p_H == 0`` when ``n == 0``.
    """

    m: int
    n: int
    p_A: float
    p_F: float
    p_H: float


class ThroughputReport(NamedTuple):
    """Per-station flow rates plus the aggregate slot usage.

    ``p`` is the probability that the packet at the head of the AP queue is
    destined to a half-duplex station.  ``sum`` counts delivered packets per
    slot over the whole network (downlink plus uplink), so it lives in
    [1, 2]: 1 when every slot carries one packet, 2 when every slot carries
    a full-duplex pair.

    A report is a tuple of its six floats in field order, so it compares
    equal to a plain tuple of the same values.
    """

    p: float
    hd_down: float
    hd_up: float
    fd_down: float
    fd_up: float
    sum: float


def validate(config: NetworkConfig) -> list[str]:
    """Return every invariant violated by ``config``, empty when valid.

    Never raises; callers that need a hard failure use
    :func:`require_valid`.  A bad count or probability is reported once,
    and the checks that depend on it are skipped.  This is the one rule
    for probabilities: a real number in [0, 1], integral ones included,
    but not ``bool``.
    """
    if _plain_and_valid(config.m, config.n, config.p_A, config.p_F, config.p_H):
        return []
    out: list[str] = []
    m = _count_or_none("m", config.m, out)
    n = _count_or_none("n", config.n, out)
    if m is not None and n is not None and m + n < 1:
        out.append("need at least one station (m + n >= 1)")
    bad_probs = []
    for name, value in (("p_A", config.p_A), ("p_F", config.p_F), ("p_H", config.p_H)):
        if type(value) is bool or not isinstance(value, (float, int, numbers.Real)):
            out.append(f"{name} must be a number, got {_show(value)}")
            bad_probs.append(name)
        elif not 0.0 <= value <= 1.0:
            out.append(f"{name} must lie in [0, 1], got {_show(value)}")
            bad_probs.append(name)
    # an absent station class never transmits
    if m == 0 and "p_F" not in bad_probs and config.p_F != 0.0:
        out.append(f"p_F must be 0 when m == 0, got {config.p_F!r}")
    if n == 0 and "p_H" not in bad_probs and config.p_H != 0.0:
        out.append(f"p_H must be 0 when n == 0, got {config.p_H!r}")
    if m is None or n is None or bad_probs:
        return out
    # judged in the floats the model computes with, whatever the input type
    closure = float(config.p_A) + m * float(config.p_F) + n * float(config.p_H)
    if not abs(closure - 1.0) <= CLOSURE_TOL:
        out.append(
            f"p_A + m*p_F + n*p_H must equal 1 within {CLOSURE_TOL}, got {closure!r}"
        )
    return out


def _plain_and_valid(m, n, p_A, p_F, p_H) -> bool:
    """True when the counts are plain ``int``, the probabilities plain
    ``float``, and every rule of :func:`validate` holds.  False sends the
    caller to the reporting path of :func:`validate`, which names the
    broken rules.
    """
    return (
        type(m) is int and type(n) is int
        and type(p_A) is float and type(p_F) is float and type(p_H) is float
        and 0 <= m <= MAX_STATIONS and 0 <= n <= MAX_STATIONS and m + n >= 1
        and 0.0 <= p_A <= 1.0 and 0.0 <= p_F <= 1.0 and 0.0 <= p_H <= 1.0
        and (m != 0 or p_F == 0.0) and (n != 0 or p_H == 0.0)
        and abs(p_A + m * p_F + n * p_H - 1.0) <= CLOSURE_TOL
    )


def _count_or_none(name: str, value, out: list[str]) -> int | None:
    try:
        return as_count(name, value, 0, MAX_STATIONS)
    except InvalidConfigError as exc:
        out += exc.violations
        return None


def require_valid(config: NetworkConfig) -> NetworkConfig:
    """Return ``config`` in plain numbers or raise :class:`InvalidConfigError`.

    The counts come back as ``int`` and the probabilities as ``float``:
    ``config`` itself when it already holds them, a new config otherwise.
    """
    m, n, p_A, p_F, p_H = config.m, config.n, config.p_A, config.p_F, config.p_H
    if _plain_and_valid(m, n, p_A, p_F, p_H):
        return config
    violations = validate(config)
    if violations:
        raise InvalidConfigError(violations)
    return NetworkConfig(
        operator.index(m), operator.index(n), float(p_A), float(p_F), float(p_H)
    )


def head_fraction(config: NetworkConfig) -> float:
    """Stationary probability that the AP queue head targets a half-duplex station.

    Full-duplex stations remove their own packets out of turn, so
    half-duplex packets pile up at the head beyond their n/(n+m) share.  The
    fraction saturates at 1 once full-duplex pull-outs outpace the head
    service rate.

    Conventions for degenerate inputs: 1 when there are no full-duplex
    stations, 0 when there are no half-duplex stations, and 0 when the AP
    never transmits (the queue head is then never observed).
    """
    config = require_valid(config)
    return _head_fraction(config.m, config.n, config.p_A, config.p_F)


def _head_fraction(m: int, n: int, p_A: float, p_F: float) -> float:
    if m == 0:
        return 1.0
    if n == 0:
        return 0.0
    if p_A == 0.0:
        return 0.0
    share = n / (n + m)
    pressure = (p_A + m * p_F) / p_A
    raw = share * pressure
    if raw >= 1.0 - _SNAP_TOL:
        return 1.0
    return raw


def throughputs(config: NetworkConfig) -> ThroughputReport:
    """Closed-form per-station flows for ``config``, as plain floats.

    Flows of an absent station class are reported as 0.  ``fd_down`` and
    ``fd_up`` are equal by construction: a full-duplex downlink is answered
    by an uplink in the same slot and vice versa.
    """
    config = require_valid(config)
    m, n, p_A, p_F, p_H = config.m, config.n, config.p_A, config.p_F, config.p_H
    p = _head_fraction(m, n, p_A, p_F)
    hd_down = p_A * p / n if n > 0 else 0.0
    hd_up = p_H if n > 0 else 0.0
    fd = p_A * (1.0 - p) / m + p_F if m > 0 else 0.0
    total = 1.0 + m * p_F + p_A * (1.0 - p)
    return ThroughputReport(p, hd_down, hd_up, fd, fd, total)


def _station_counts(m, n) -> tuple[int, int]:
    """Coerce and check the station counts a preset is built from."""
    m, n = as_count("m", m, 0, MAX_STATIONS), as_count("n", n, 0, MAX_STATIONS)
    if m + n < 1:
        raise InvalidConfigError([f"need m + n >= 1, got m={m}, n={n}"])
    return m, n


def dca_config(m: int, n: int) -> NetworkConfig:
    """Uniform contention: every contender, AP included, gets 1/(1+m+n).

    This is what a decentralised backoff scheme converges to when all
    1 + m + n contenders are treated alike.
    """
    m, n = _station_counts(m, n)
    q = 1.0 / (1 + m + n)
    return NetworkConfig(m, n, q, q if m > 0 else 0.0, q if n > 0 else 0.0)


def fairness_config(m: int, n: int) -> NetworkConfig:
    """Access probabilities that equalise all four per-station flows.

    With half-duplex stations present the solution is p_H = p_F = 1/(2n+m)
    and p_A = n/(2n+m), which drives the queue head composition exactly to
    its saturation point.  Every flow then equals 1/(2n+m).  Without
    half-duplex stations the AP can stay silent and let the m full-duplex
    stations split the medium evenly.
    """
    m, n = _station_counts(m, n)
    if n == 0:
        return NetworkConfig(m, 0, 0.0, 1.0 / m, 0.0)
    denom = 2 * n + m
    return NetworkConfig(m, n, n / denom, 1.0 / denom if m > 0 else 0.0, 1.0 / denom)
