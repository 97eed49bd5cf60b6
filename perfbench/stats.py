"""Order statistics for latency samples and the before/after verdict.

The verdict follows the rule the benchmark is judged by: a gain counts
only when the change wins at least nine tenths of the seed-matched pairs
(ties count for neither side) and the medians differ by more than the
parent's quartile spread; a regression is a median worse than the
parent's by more than the metric's bound. When the parent's own spread is
wider than the bound the answer is "unresolved", unless every run of the
change reads better than every run of the parent.
"""

import math
import statistics

IMPROVED = "improved"
NO_WORSE = "no worse"
WORSE = "worse"
UNRESOLVED = "unresolved"


def percentile(sorted_values, q):
    """Linear-interpolation percentile (q in [0, 100]) of sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo)


def tail_percentile(n, candidates=(99, 95, 90, 80, 75)):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when even the lowest has fewer."""
    for q in candidates:
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound=None):
    """Compare two seed-matched lists of one metric.

    `parent` and `change` are equal-length lists of values, pair i being
    run on the same seed; `better` is "lower" or "higher"; `bound` is the
    share of the parent's median by which the change may be worse.
    Returns (verdict, pairs_won, pairs_lost).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, non-empty seed-matched samples")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    lost = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    q1, med_a, q3 = quartiles(parent)
    _, med_b, _ = quartiles(change)
    spread = q3 - q1
    gain = sign * (med_a - med_b)  # positive when the change is better
    if won >= 0.9 * len(parent) and gain > spread:
        return IMPROVED, won, lost
    all_better = (max(sign * b for b in change)
                  < min(sign * a for a in parent))
    if bound is None:
        if lost >= 0.9 * len(parent) and -gain > spread:
            return WORSE, won, lost
        return (NO_WORSE if all_better else UNRESOLVED), won, lost
    base = abs(med_a)
    if base == 0.0:
        return (NO_WORSE if gain >= 0 else WORSE), won, lost
    if spread / base > bound:
        return (NO_WORSE if all_better else UNRESOLVED), won, lost
    if -gain / base > bound:
        return WORSE, won, lost
    return NO_WORSE, won, lost
