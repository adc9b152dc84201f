"""Laplace mechanism for releasing COUNT/SUM answers.

The density is f(x) = exp(-|x - mu| / scale) / (2 * scale) and the noise
scale is sensitivity / epsilon. Sampling applies a single inverse-CDF
transform to one uniform draw, so a fixed generator seed and draw index
fully determine every sample:

    x = mu - scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|),  u ~ U[0, 1)

The module also ships an empirical checker for the privacy inequality
P[out_x in S] <= exp(epsilon) * P[out_y in S] on neighboring inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import conforms
from .errors import (
    ConfigInvalid,
    EmptyHistogram,
    IncompatibleBinning,
    NonPositiveEpsilon,
    NonPositiveSensitivity,
)
from .transactions import QUANTITY_MAX, Aggregate

# Epsilon floor enforced at the API edge; below this the scale overflows
# any useful magnitude.
EPSILON_MIN = 1e-6


@dataclass(frozen=True)
class LaplaceParams:
    """Location and scale of a Laplace distribution. Raises ``ConfigInvalid``
    unless ``mu`` is a finite real and ``scale`` a positive finite real (a
    bool is neither, as in ``codec``)."""

    mu: float
    scale: float

    def __post_init__(self):
        if not conforms(self.mu, float):
            raise ConfigInvalid(f"mu must be a finite number, got {self.mu!r}")
        if not (conforms(self.scale, float) and self.scale > 0):
            raise ConfigInvalid(f"scale must be positive and finite, got {self.scale!r}")


def sensitivity(aggregate: Aggregate) -> float:
    """Worst-case change of the exact answer between neighboring ledgers.

    One write moves a COUNT by exactly 1 and a SUM by at most its
    quantity, which ``validate_write`` caps at ``QUANTITY_MAX``.
    """
    if aggregate is Aggregate.COUNT:
        return 1.0
    return float(QUANTITY_MAX)


def check_epsilon(epsilon: float) -> None:
    """Raise ``NonPositiveEpsilon`` unless ``epsilon`` is a finite real (a
    bool is not one, as in ``codec``) of at least ``EPSILON_MIN``."""
    if (not (type(epsilon) is float or conforms(epsilon, float))
            or not math.isfinite(epsilon) or epsilon < EPSILON_MIN):
        raise NonPositiveEpsilon(
            f"epsilon must be >= {EPSILON_MIN} and finite, got {epsilon!r}"
        )


@functools.lru_cache(maxsize=4096, typed=True)
def laplace_scale(epsilon: float, delta_f: float) -> float:
    """Noise scale for a given budget and sensitivity: delta_f / epsilon.
    Memoized: a run draws many answers at each of a few ε values."""
    check_epsilon(epsilon)
    if not math.isfinite(delta_f) or delta_f <= 0:
        raise NonPositiveSensitivity(f"sensitivity must be positive, got {delta_f!r}")
    return delta_f / epsilon


def _inverse_cdf(u: float, mu: float, scale: float) -> float:
    centered = u - 0.5
    if centered == -0.5:
        # u = 0 would map to -inf (probability 2**-53); nudge one ulp in.
        centered = math.nextafter(centered, 0.0)
    return mu - scale * math.copysign(1.0, centered) * math.log(1.0 - 2.0 * abs(centered))


def laplace_sample(params: LaplaceParams, rng: np.random.Generator) -> float:
    """One draw via the inverse CDF of a single uniform.

    Deterministic for a fixed seed and draw index, and bit-reproducible
    against the transform mu - scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|)
    evaluated on the same uniform.
    """
    return _inverse_cdf(rng.random(), params.mu, params.scale)


def laplace_samples(params: LaplaceParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws, consuming uniforms in order; bit-identical to n scalar calls."""
    u = rng.random(n)
    return np.array([_inverse_cdf(v, params.mu, params.scale) for v in u])


def perturb(true_value: float, epsilon: float, aggregate: Aggregate,
            rng: np.random.Generator) -> float:
    """Add calibrated noise to an exact answer.

    No clamping and no rounding, which keeps the output unbiased;
    negative or fractional COUNTs are returned as-is. Bit-identical to
    ``true_value + laplace_sample(LaplaceParams(0.0, scale), rng)``.
    """
    scale = laplace_scale(epsilon, sensitivity(aggregate))
    return true_value + _inverse_cdf(rng.random(), 0.0, scale)


# ---------------------------------------------------------------------------
# empirical privacy-inequality checker

@dataclass(frozen=True)
class Histogram:
    """Binned mechanism outputs: counts per bin plus shared edges."""

    counts: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        if self.counts.shape[0] != self.edges.shape[0] - 1:
            raise IncompatibleBinning("counts length must be len(edges) - 1")
        if self.counts.sum() <= 0:
            raise EmptyHistogram("histogram holds no samples")


def build_histogram(samples: np.ndarray, edges: np.ndarray) -> Histogram:
    counts, _ = np.histogram(np.asarray(samples, dtype=float), bins=edges)
    return Histogram(counts=counts, edges=np.asarray(edges, dtype=float))


MIN_BIN_COUNT = 50


def empirical_dp_ratio(outputs_x: Histogram, outputs_y: Histogram,
                       epsilon: float) -> bool:
    """Check the privacy inequality on two empirical output distributions.

    For every bin holding at least ``MIN_BIN_COUNT`` samples combined, require
    p_x <= exp(epsilon) * p_y + slack and symmetrically, where slack is
    a three-sigma binomial bound derived from the bin counts. Sparse
    bins carry no statistical signal and are skipped.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise NonPositiveEpsilon(f"epsilon must be >= 0 and finite, got {epsilon!r}")
    if not np.array_equal(outputs_x.edges, outputs_y.edges):
        raise IncompatibleBinning("histograms were built with different bin edges")

    nx = outputs_x.counts.astype(float)
    ny = outputs_y.counts.astype(float)
    tx, ty = nx.sum(), ny.sum()
    px, py = nx / tx, ny / ty
    se_x = np.sqrt(px * (1.0 - px) / tx)
    se_y = np.sqrt(py * (1.0 - py) / ty)

    bound = math.exp(epsilon)
    mask = (nx + ny) >= MIN_BIN_COUNT
    ok_xy = px[mask] <= bound * py[mask] + 3.0 * (se_x[mask] + bound * se_y[mask])
    ok_yx = py[mask] <= bound * px[mask] + 3.0 * (se_y[mask] + bound * se_x[mask])
    return bool(np.all(ok_xy) and np.all(ok_yx))
