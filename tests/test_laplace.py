import math

import numpy as np
import pytest

from dpledger import (
    Aggregate,
    ConfigInvalid,
    EmptyHistogram,
    IncompatibleBinning,
    LaplaceParams,
    NonPositiveEpsilon,
    NonPositiveSensitivity,
    WorldState,
    build_histogram,
    empirical_dp_ratio,
    laplace_sample,
    laplace_samples,
    laplace_scale,
    perturb,
    sensitivity,
)
from dpledger.chaincode import evaluate_exact
from dpledger.transactions import QUANTITY_MAX

from conftest import make_query, make_write


def inverse_cdf_oracle(u, mu, scale):
    # Independent statement of the transform under test.
    centered = u - 0.5
    return mu - scale * math.copysign(1.0, centered) * math.log(1.0 - 2.0 * abs(centered))


class FixedUniformRng:
    """Stand-in generator producing a chosen uniform stream."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        out = self._values[:size]
        del self._values[:size]
        return np.asarray(out)


# ---------------------------------------------------------------------------
# sensitivity and scale

def test_sum_sensitivity_is_contribution_bound():
    assert sensitivity(Aggregate.SUM) == QUANTITY_MAX == 100


def test_count_sensitivity_is_one():
    assert sensitivity(Aggregate.COUNT) == 1.0


def test_sum_sensitivity_matches_adjacent_ledger_difference():
    # Brute force: two ledgers differing in one write of the largest quantity.
    state_x = WorldState()
    state_y = WorldState()
    base = [("Bob", 10), ("Claire", 20), ("David", 30)]
    for customer, qty in base:
        state_x.apply_write(make_write(customer=customer, quantity=qty))
        state_y.apply_write(make_write(customer=customer, quantity=qty))
    state_x.apply_write(make_write(customer="Ali", quantity=QUANTITY_MAX))
    q = make_query(Aggregate.SUM)
    diff = evaluate_exact(q, state_x) - evaluate_exact(q, state_y)
    assert diff == QUANTITY_MAX == sensitivity(Aggregate.SUM)


@pytest.mark.parametrize("epsilon,delta_f,expected", [
    (1.0, 100.0, 100.0),
    (100.0, 100.0, 1.0),
    (0.01, 100.0, 10000.0),
])
def test_laplace_scale_values(epsilon, delta_f, expected):
    assert laplace_scale(epsilon, delta_f) == expected


def test_laplace_scale_rejects_bad_inputs():
    with pytest.raises(NonPositiveEpsilon):
        laplace_scale(0.0, 100.0)
    with pytest.raises(NonPositiveEpsilon):
        laplace_scale(1e-9, 100.0)  # below the enforced floor
    with pytest.raises(NonPositiveSensitivity):
        laplace_scale(1.0, 0.0)


def test_scale_times_epsilon_recovers_sensitivity(rng):
    for _ in range(200):
        eps = float(rng.uniform(1e-3, 10.0))
        df = float(rng.uniform(0.5, 500.0))
        assert laplace_scale(eps, df) * eps == pytest.approx(df, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling

def test_sample_matches_inverse_cdf_oracle_per_draw():
    params = LaplaceParams(0.0, 100.0)
    for seed in (0, 7, 991):
        gen_a = np.random.default_rng(seed)
        gen_b = np.random.default_rng(seed)
        for _ in range(500):
            drawn = laplace_sample(params, gen_a)
            assert drawn == inverse_cdf_oracle(gen_b.random(), 0.0, 100.0)


def test_vectorized_sampling_matches_scalar_path():
    params = LaplaceParams(2.0, 30.0)
    bulk = laplace_samples(params, np.random.default_rng(42), 1000)
    gen = np.random.default_rng(42)
    single = [laplace_sample(params, gen) for _ in range(1000)]
    assert np.array_equal(bulk, np.array(single))


def test_sample_moments():
    draws = laplace_samples(LaplaceParams(0.0, 100.0), np.random.default_rng(5), 100_000)
    assert abs(draws.mean()) <= 2.0
    assert abs(draws.var() / 20000.0 - 1.0) <= 0.05


def test_sample_median_symmetric_around_mu():
    draws = laplace_samples(LaplaceParams(3.0, 50.0), np.random.default_rng(11), 100_000)
    assert abs(np.median(draws) - 3.0) <= 50.0 / 50.0


def test_scale_collapse_pins_samples_to_mu():
    gen = np.random.default_rng(3)
    params = LaplaceParams(5.0, 1e-9)
    for _ in range(1000):
        assert abs(laplace_sample(params, gen) - 5.0) < 1e-6


# ---------------------------------------------------------------------------
# perturbation

def test_perturb_noise_of_two_turns_500_into_502():
    # Solve for the uniform that makes the noise exactly +2 at scale 100.
    u = 1.0 - math.exp(-2.0 / 100.0) / 2.0
    got = perturb(500.0, 1.0, Aggregate.SUM, FixedUniformRng([u]))
    assert got == pytest.approx(502.0, abs=1e-9)


def test_perturb_is_deterministic_for_a_seed():
    a = perturb(123.0, 0.5, Aggregate.SUM, np.random.default_rng(99))
    b = perturb(123.0, 0.5, Aggregate.SUM, np.random.default_rng(99))
    assert a == b


def test_perturb_mean_absolute_error_approaches_scale():
    gen = np.random.default_rng(17)
    n = 20_000
    errors = [abs(perturb(50.0, 1.0, Aggregate.SUM, gen) - 50.0) for _ in range(n)]
    # MAD of the noise equals the scale (100); SE is about scale/sqrt(n).
    assert abs(np.mean(errors) - 100.0) < 3 * 100.0 / math.sqrt(n)


def test_perturb_is_unbiased():
    lam = laplace_scale(1.0, 1.0)
    n = 50_000
    draws = laplace_samples(LaplaceParams(0.0, lam), np.random.default_rng(23), n)
    assert abs(draws.mean()) <= 3 * math.sqrt(2) * lam / math.sqrt(n)


def test_perturb_rejects_tiny_epsilon(rng):
    with pytest.raises(NonPositiveEpsilon):
        perturb(10.0, 1e-8, Aggregate.SUM, rng)


@pytest.mark.parametrize("aggregate", [Aggregate.COUNT, Aggregate.SUM])
@pytest.mark.parametrize("epsilon", [1e-6, 0.01, 0.37, 1.0, 5.0, 1e6])
def test_perturb_is_bit_identical_to_a_laplace_sample(aggregate, epsilon):
    params = LaplaceParams(0.0, sensitivity(aggregate) / epsilon)
    lean = np.random.default_rng(41)
    reference = np.random.default_rng(41)
    for value in (0.0, 7.0, 1234.5, -3.0):
        got = perturb(value, epsilon, aggregate, lean)
        want = value + laplace_sample(params, reference)
        assert got.hex() == want.hex()


@pytest.mark.parametrize("bound, epsilon", [(1e308, 1e-6), (5e-324, 1e300)],
                         ids=["scale-overflows", "scale-underflows"])
def test_perturb_keeps_the_finite_scale_check(bound, epsilon):
    scale = laplace_scale(epsilon, bound)
    with pytest.raises(ConfigInvalid):
        LaplaceParams(0.0, scale)


@pytest.mark.parametrize("mu, scale", [
    (0.0, math.inf), (0.0, math.nan), (0.0, 0.0), (0.0, -1.0), (0.0, True),
    (math.nan, 1.0), (math.inf, 1.0), (True, 1.0), ("0", 1.0),
], ids=["scale-inf", "scale-nan", "scale-zero", "scale-negative", "scale-bool",
        "mu-nan", "mu-inf", "mu-bool", "mu-string"])
def test_bad_params_are_a_config_error(mu, scale):
    with pytest.raises(ConfigInvalid):
        LaplaceParams(mu, scale)


# ---------------------------------------------------------------------------
# empirical privacy inequality

def _neighbor_histograms(epsilon, delta_f, truth_x, truth_y, n=40_000, seed=2):
    lam = laplace_scale(epsilon, delta_f)
    gen = np.random.default_rng(seed)
    out_x = truth_x + laplace_samples(LaplaceParams(0.0, lam), gen, n)
    out_y = truth_y + laplace_samples(LaplaceParams(0.0, lam), gen, n)
    lo = min(out_x.min(), out_y.min())
    hi = max(out_x.max(), out_y.max())
    edges = np.linspace(lo, hi, 41)
    return build_histogram(out_x, edges), build_histogram(out_y, edges)


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
def test_dp_ratio_holds_for_sum_neighbors(epsilon):
    hx, hy = _neighbor_histograms(epsilon, delta_f=100.0,
                                  truth_x=5050.0, truth_y=5150.0)
    assert empirical_dp_ratio(hx, hy, epsilon) is True


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
def test_dp_ratio_holds_for_count_neighbors(epsilon):
    hx, hy = _neighbor_histograms(epsilon, delta_f=1.0,
                                  truth_x=500.0, truth_y=501.0)
    assert empirical_dp_ratio(hx, hy, epsilon) is True


def test_dp_ratio_rejects_identity_mechanism():
    edges = np.linspace(0.0, 10.0, 11)
    hx = build_histogram(np.full(1000, 2.5), edges)
    hy = build_histogram(np.full(1000, 7.5), edges)
    assert empirical_dp_ratio(hx, hy, 1.0) is False


def test_dp_ratio_same_distribution_passes_any_epsilon():
    edges = np.linspace(-5.0, 5.0, 21)
    samples = np.random.default_rng(0).normal(size=5000)
    h = build_histogram(samples, edges)
    assert empirical_dp_ratio(h, h, 0.0) is True


def test_dp_ratio_requires_shared_binning():
    samples = np.random.default_rng(0).normal(size=1000)
    ha = build_histogram(samples, np.linspace(-5, 5, 11))
    hb = build_histogram(samples, np.linspace(-5, 5, 21))
    with pytest.raises(IncompatibleBinning):
        empirical_dp_ratio(ha, hb, 1.0)


def test_histogram_without_samples_is_a_typed_error():
    # Every sample falls outside the edges, so no bin counts one.
    with pytest.raises(EmptyHistogram):
        build_histogram(np.array([100.0]), np.array([0.0, 1.0, 2.0]))
