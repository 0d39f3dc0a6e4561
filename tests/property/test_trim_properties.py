"""Property-based tests on the TRIM / TRIM-B parameter formulas.

Algorithm 2/3's Lines 1-5 encode a sampling schedule; these properties pin
the monotonicities the paper's analysis relies on, over the whole (n, eta,
epsilon, b) space rather than a few fixtures.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.trim_b import TrimBParameters, batch_guarantee

sizes = st.integers(min_value=2, max_value=100_000)
epsilons = st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])


@st.composite
def instances(draw):
    n = draw(sizes)
    eta = draw(st.integers(min_value=1, max_value=n))
    epsilon = draw(epsilons)
    return n, eta, epsilon


@given(instances())
@settings(max_examples=100, deadline=None)
def test_trim_parameter_sanity(instance):
    n, eta, epsilon = instance
    p = TrimBParameters(n, eta, epsilon, 1)
    assert 0.0 < p.delta < 1.0
    assert 0.0 < p.eps_hat < 1.0
    assert 1 <= p.theta_0 <= math.ceil(p.theta_max)
    assert p.iterations >= 1
    # The schedule reaches theta_max within the declared iterations.
    assert p.pool_size_at(p.iterations - 1) >= min(p.theta_max, p.theta_0)
    assert p.pool_size_at(p.iterations) <= math.ceil(p.theta_max)
    # a1 strengthens a2 by the union bound over n nodes.
    assert p.a1 > p.a2


@given(instances())
@settings(max_examples=60, deadline=None)
def test_trim_theta_decreasing_in_epsilon(instance):
    n, eta, _ = instance
    loose = TrimBParameters(n, eta, 0.75, 1)
    tight = TrimBParameters(n, eta, 0.25, 1)
    assert tight.theta_max > loose.theta_max


@given(instances())
@settings(max_examples=60, deadline=None)
def test_trim_schedule_monotone(instance):
    n, eta, epsilon = instance
    p = TrimBParameters(n, eta, epsilon, 1)
    sizes_at = [p.pool_size_at(t) for t in range(p.iterations)]
    assert all(a <= b for a, b in zip(sizes_at, sizes_at[1:]))


@given(instances(), st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_trim_b_parameter_sanity(instance, b):
    n, eta, epsilon = instance
    if b > n:
        return
    p = TrimBParameters(n, eta, epsilon, b)
    assert 0.0 < p.rho <= 1.0
    assert 1 <= p.theta_0 <= math.ceil(p.theta_max)
    assert p.a1 >= p.a2


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_batch_guarantee_bounds(b):
    rho = batch_guarantee(b)
    assert 1 - 1 / math.e < rho <= 1.0
    if b > 1:
        assert rho < batch_guarantee(b - 1)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_trim_b_with_b_one_equals_trim(instance):
    n, eta, epsilon = instance
    trim = _algorithm_2(n, eta, epsilon)
    trim_b = TrimBParameters(n, eta, epsilon, 1)
    assert (trim_b.theta_max, trim_b.theta_0, trim_b.iterations) == trim[:3]
    assert (trim_b.a1, trim_b.a2) == trim[3:]


def _algorithm_2(n, eta, epsilon):
    """TRIM's Lines 1-5 as Algorithm 2 states them (no batch, no rho)."""
    delta = epsilon / (100.0 * (1.0 - 1.0 / math.e) * (1.0 - epsilon) * eta)
    eps_hat = 99.0 * epsilon / (100.0 - epsilon)
    log_inv_delta = math.log(6.0 / delta)
    root_sum = math.sqrt(log_inv_delta) + math.sqrt(math.log(n) + log_inv_delta)
    theta_max = 2.0 * n * root_sum * root_sum / (eps_hat ** 2)
    theta_0 = max(1, int(math.ceil(theta_max * eps_hat ** 2 / n)))
    iterations = max(1, int(math.ceil(math.log2(theta_max / theta_0))) + 1)
    log_3t_delta = math.log(3.0 * iterations / delta)
    return theta_max, theta_0, iterations, log_3t_delta + math.log(n), log_3t_delta


@given(instances(), st.integers(min_value=2, max_value=16))
@settings(max_examples=60, deadline=None)
def test_larger_batches_need_fewer_sets_per_round(instance, b):
    n, eta, epsilon = instance
    if b > n:
        return
    single = TrimBParameters(n, eta, epsilon, 1)
    batched = TrimBParameters(n, eta, epsilon, b)
    assert batched.theta_max < single.theta_max
