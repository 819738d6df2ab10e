"""Statistics of the benchmark: medians, quartiles, supported percentiles,
failure ratios and the comparison verdict. Pure functions; tested by
perfbench/test_stats.py."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it; below that, one outlier decides its value.
MIN_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values, p):
    """Number of samples strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def supported_percentile(values, p):
    """The p-th percentile, or None when fewer than MIN_SAMPLES_BEYOND
    samples lie beyond it."""
    if not values or samples_beyond(values, p) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(values, p)


def fail_ratio(failed, attempted):
    """Failed over attempted; a run that attempted nothing failed outright."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def worsening(base, new, better):
    """Signed share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_values, new_values, better, bound):
    """Compares two sets of runs of one metric.

    'unresolved' when either side's spread exceeds the bound, unless every
    new run is better than every base run; otherwise 'regressed' when the
    new median is worse by more than the bound, 'improved' when it is better
    by more than the bound, else 'unchanged'.
    """
    if better == "lower":
        all_better = max(new_values) < min(base_values)
    else:
        all_better = min(new_values) > max(base_values)
    if max(spread(base_values), spread(new_values)) > bound:
        return "improved" if all_better else "unresolved"
    change = worsening(median(base_values), median(new_values), better)
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"
