"""Pure helpers for the benchmark: percentiles, failure counting and the
rule that decides how many passes a run makes.  Nothing here reads a clock,
so the self-tests can check every rule exactly."""

import math
import statistics

# A percentile is only a tail estimate when at least this many samples lie
# above it (choosing-metrics: "the highest percentile that has at least ten
# samples beyond it").
TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank percentile, 0 < q <= 1: the smallest sample with at least
    a share q of all samples at or below it.  Always an observed value."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile share {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def tail_percentile(n, tail=TAIL_SAMPLES):
    """Highest whole percentile (1..99) with at least `tail` of n samples
    beyond it, or None when n is too small for any."""
    for p in range(99, 0, -1):
        if samples_beyond(n, p / 100) >= tail:
            return p
    return None


def failed_frac(outcomes):
    """Share of attempted operations whose output failed its check.

    `outcomes` holds one truthy value per operation that passed and one
    falsy value per operation that failed or raised."""
    attempted = len(outcomes)
    if attempted == 0:
        raise ValueError("no operations attempted")
    return sum(1 for ok in outcomes if not ok) / attempted


def start_another_pass(pass_walls, elapsed, seconds, min_passes, hard_cap):
    """Whether a run should start one more pass over its inputs.

    A run always makes `min_passes` passes.  After that it starts a pass
    only when a typical (median) pass would still end within `seconds`.  No pass starts
    when it would end after `hard_cap` seconds, whatever the minimums say,
    so a run stays inside its time limit even on a much slower program."""
    if not pass_walls:
        return True
    typical = statistics.median(pass_walls)
    if elapsed + typical > hard_cap:
        return False
    if len(pass_walls) < min_passes:
        return True
    return elapsed + typical <= seconds


def speed_scale(nominal, ref_samples):
    """Factor that turns a time measured during a run into the time on a
    host where the reference loop takes `nominal`: `nominal` over the mean
    of the loop's times sampled while it was measured."""
    if not ref_samples or min(ref_samples) <= 0:
        raise ValueError("the reference loop must be sampled, and take time")
    return nominal / (sum(ref_samples) / len(ref_samples))


def partition_count(m):
    """Number of integer partitions p(m), by the standard recurrence over
    the largest part; independent of the program under test."""
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]
