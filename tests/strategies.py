"""Hypothesis strategies shared by the test modules."""

import hypothesis.strategies as st

from fdmix.analytic import NetworkConfig


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
