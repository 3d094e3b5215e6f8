"""Property tests on arbitrary paired samples: socrec's paired t-test
against ``scipy.stats.ttest_rel``, whose arithmetic it repeats."""

import math

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ttest_rel

from socrec.evaluation import paired_t_pvalue

_MAGNITUDE = st.sampled_from([1e-6, 1e-3, 1.0, 10.0, 1e3])


@st.composite
def paired_samples(draw):
    """Two samples of 2 to 12 values with mixed magnitudes whose difference
    is zero, a constant, nearly zero or random at a drawn scale."""
    n = draw(st.integers(2, 12))
    unit = arrays(np.float64, n, elements=st.floats(-1.0, 1.0))
    a = draw(unit) * draw(_MAGNITUDE) + draw(st.integers(-5, 5))
    kind = draw(st.sampled_from(["equal", "constant", "nearly equal", "random"]))
    if kind == "equal":
        return a, a.copy()
    if kind == "constant":
        # integer values keep every difference exactly the same
        a = np.round(a * 8.0)
        return a, a + draw(st.sampled_from([-3.0, -1.0, 0.5, 2.0]))
    if kind == "nearly equal":
        return a, a + draw(unit) * 1e-15
    return a, a + draw(unit) * draw(_MAGNITUDE)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(paired_samples())
def test_pvalue_equals_ttest_rel_bit_for_bit(samples):
    a, b = samples
    got = paired_t_pvalue(a, b)
    want = float(ttest_rel(a, b).pvalue)
    if got is None:
        assert math.isnan(want)
    else:
        assert got == want
