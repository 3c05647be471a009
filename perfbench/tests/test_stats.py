import math

import pytest

from stats import OpLog, percentile, self_times, union_length, upper_percentile


@pytest.mark.parametrize(
    "count, expected",
    [(1000, 90), (100, 90), (99, 89), (50, 80), (20, 50), (11, 9), (10, None), (0, None)],
)
def test_upper_percentile_keeps_ten_samples_beyond(count, expected):
    assert upper_percentile(count) == expected


@pytest.mark.parametrize("count", range(11, 100))
def test_upper_percentile_is_the_highest_with_ten_beyond(count):
    q = upper_percentile(count)
    assert count * (1 - q / 100) >= 10 - 1e-9
    assert count * (1 - (q + 1) / 100) < 10


def test_percentile_interpolates_and_failures_miss_every_limit():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert math.isinf(percentile([1.0, 2.0, math.inf], 90))
    log = OpLog("op")
    log.ok(0.001)
    index = log.ok(0.002)
    log.fail("timeout")
    log.mark_wrong(index)
    assert log.attempted == 3 and log.failed == 2
    assert log.failures == {"timeout": 1, "wrong_answer": 1}
    assert log.mean_ok_ms() == pytest.approx(1.0)


def test_union_counts_overlaps_once():
    assert union_length([(0, 4), (2, 6), (8, 9)]) == 7
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ("parent", 0, 100),
        ("child", 10, 40),   # two concurrent children overlapping
        ("child", 30, 60),   # on 30..40: covered once, not twice
        ("grandchild", 35, 38),
    ]
    totals = self_times(spans)
    assert totals["parent"] == 100 - 50
    assert totals["child"] == (30 - 3) + 30
    assert totals["grandchild"] == 3


def test_self_time_nests_by_containment_across_threads():
    # A span recorded on a worker thread nests under the request span
    # whose interval holds it, whatever order the spans were appended.
    spans = [("solve", 5, 25), ("request", 0, 30), ("measures", 26, 29)]
    totals = self_times(spans)
    assert totals == {"request": 30 - 20 - 3, "solve": 20, "measures": 3}
