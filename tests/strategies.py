"""Hypothesis strategies shared by the test modules."""

import math

import hypothesis
import hypothesis.strategies as st

from fdmix.analytic import NetworkConfig, validate


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


def _magnitudes(low, high):
    """Floats in ``[2**low, 2**high)``, their binary exponent spread evenly."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(low + 1, high))


# Class probabilities from 5e-324 (2**-1074) up to about CLOSURE_TOL, and
# closure slack from the rounding error of a sum near 1 up to CLOSURE_TOL:
# p_A + m*p_F must round short of 1 for its own rounding to show at the
# half-duplex bound.
_tiny = _magnitudes(-1074, -30)
_slack = _magnitudes(-53, -30)


@st.composite
def edge_configs(draw, max_stations=4):
    """Valid configs with class probabilities down to 5e-324, whose closure
    may miss 1 by float noise or by up to ``CLOSURE_TOL``: where the float
    arithmetic at a class edge rounds hardest."""
    # sampled, not drawn as integers, which Hypothesis keeps near 0
    m = draw(st.sampled_from(range(max_stations + 1)))
    n = draw(st.sampled_from(range(0 if m > 0 else 1, max_stations + 1)))
    counts = [1, m, n]  # stations in the AP, full- and half-duplex class
    present = [i for i, count in enumerate(counts) if count]
    # the AP or a full-duplex station takes what the others leave, so that
    # the half-duplex class, past the last bound, is drawn tiny as often
    last = draw(st.sampled_from(present[:2]))
    probs = [0.0, 0.0, 0.0]
    rest = 1.0
    for i in present:
        if i != last:
            # tiny two times in three
            probs[i] = draw(st.one_of(_tiny, _tiny, st.floats(0.0, rest / counts[i])))
            rest -= probs[i] * counts[i]
    # short of 1 half the time, past it a quarter
    slack = draw(st.sampled_from([-1.0, -1.0, 0.0, 1.0])) * draw(_slack)
    probs[last] = max(rest + slack, 0.0) / counts[last]
    config = NetworkConfig(m, n, *probs)
    hypothesis.assume(not validate(config))
    return config
