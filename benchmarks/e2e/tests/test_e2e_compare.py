"""The parent/change decision rule of compare.py."""

import compare

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]


def test_a_change_winning_nine_in_ten_beyond_the_spread_is_better():
    change = [p * 1.05 for p in PARENT]
    change[3] = 99.0  # one lost pair
    assert compare.verdict(PARENT, change, "higher", 0.05) == ("better", 9)


def test_winning_most_pairs_within_the_spread_is_not_a_gain():
    change = [p + 0.2 for p in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.05)[0] == "same"


def test_a_drop_beyond_the_bound_is_worse():
    change = [p * 0.9 for p in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.05)[0] == "worse"
    assert compare.verdict(PARENT, change, "lower", 0.05)[0] == "better"


def test_a_noisy_parent_leaves_the_metric_unresolved():
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    change = [n * 0.97 for n in noisy]
    assert compare.verdict(noisy, change, "higher", 0.05)[0] == "unresolved"
