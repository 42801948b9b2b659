"""Property tests of the relaxed Gumbel top-k sampler (Eqs. 3-5).

Kept apart from ``test_subset_sampling.py`` so that module needs no
``hypothesis`` and runs wherever numpy and pytest do.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import relaxed_topk_sample
from repro.tensor import Tensor


@settings(max_examples=20, deadline=None)
@given(
    v=st.integers(min_value=2, max_value=15),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_relaxed_sample_is_valid_soft_subset(v, k, seed):
    """For any (topics, vocab, v) the relaxed sample stays a soft v-subset."""
    rng = np.random.default_rng(seed)
    num = min(k + 1, v)
    log_probs = np.log(rng.dirichlet(np.ones(v), size=2) + 1e-12)
    y = relaxed_topk_sample(Tensor(log_probs), num, 0.5, rng=rng).data
    np.testing.assert_allclose(y.sum(axis=1), np.full(2, float(num)), atol=1e-6)
    assert (y >= -1e-9).all()
