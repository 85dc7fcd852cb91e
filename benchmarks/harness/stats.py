"""Order statistics the standard library lacks: percentiles with a sample
floor and the inter-quartile spread."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when this many samples lie beyond it
#: (choosing-metrics §1), which for p95 means at least 200 samples.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_SAMPLES_BEYOND):
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``samples``.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie above
    the chosen rank: a tail read off a handful of samples is noise.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{q:g} needs at least {min_beyond} samples beyond it; "
            f"{len(ordered)} samples leave {len(ordered) - rank}")
    return ordered[rank - 1]


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's spread measure); 0.0 for fewer than two values."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
