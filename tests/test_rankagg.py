import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidpipe.errors import ConfigError, ContractError, DataError
from reidpipe.rankagg import aggregate, best_n_select, stuart_statistic
from reidpipe.simlearn import RankingList

rng = np.random.default_rng(31)


def mc_order_stat_prob(r, n_samples, seed, chunk=1_000_000):
    """Monte Carlo oracle: fraction of sorted uniform draws below the profile."""
    r = np.asarray(r, dtype=np.float64)
    gen = np.random.default_rng(seed)
    hits = 0
    remaining = n_samples
    while remaining > 0:
        size = min(chunk, remaining)
        draws = np.sort(gen.random((size, r.size)), axis=1)
        hits += int(np.all(draws <= r, axis=1).sum())
        remaining -= size
    return hits / n_samples


def ranking_of(order, m=None):
    order = np.asarray(order, dtype=np.int64)
    m = m or order.size
    scores = np.empty(m)
    scores[order] = -np.arange(m, dtype=np.float64)
    return RankingList(probe_index=0, order=order, scores=scores)


# ---------------------------------------------------------------------------
# Stuart statistic
# ---------------------------------------------------------------------------

def stuart_loop(r):
    """Plain-Python oracle: the Stuart recursion one item at a time."""
    n = len(r)
    w = [1.0] + [0.0] * n
    for k in range(1, n + 1):
        rv = r[n - k]
        acc = 0.0
        sign = 1.0
        rp = 1.0
        for i in range(1, k + 1):
            rp *= rv
            acc += sign * math.comb(k, i) * rp * w[k - i]
            sign = -sign
        w[k] = acc
    return min(1.0, max(0.0, w[n]))


def tied_profiles(n, count, m, seed):
    """Sorted normalized ranks i/m, so short galleries give many ties."""
    gen = np.random.default_rng(seed)
    return np.sort(gen.integers(1, m + 1, size=(count, n)), axis=1) / m


def test_all_ones_profile_exactly_one():
    for n in range(1, 13):
        assert stuart_statistic(np.ones(n)) == 1.0


def test_single_uniform_cdf():
    assert stuart_statistic(np.array([0.3])) == pytest.approx(0.3, abs=1e-15)


def test_two_uniform_closed_form():
    # P(U_(1) <= a, U_(2) <= b) = 2ab - a^2 for a <= b
    for a, b in [(0.2, 0.7), (0.5, 0.5), (0.1, 1.0)]:
        assert stuart_statistic(np.array([a, b])) == pytest.approx(
            2 * a * b - a * a, abs=1e-12
        )


def test_three_uniform_matches_monte_carlo():
    r = np.array([0.2, 0.5, 0.9])
    n_samples = 10_000_000
    estimate = mc_order_stat_prob(r, n_samples, seed=9)
    exact = stuart_statistic(r)
    sigma = np.sqrt(estimate * (1 - estimate) / n_samples)
    assert abs(exact - estimate) <= 3 * sigma


def quadrature_oracle(r, points=200):
    """Nested-integral oracle on a midpoint grid: n! * Vol(u1<...<un, ui<=ri).

    F_k(t) = integral over u <= min(t, r_k) of F_(k-1)(u), F_0 = 1; the
    probability is n! * F_n(1).
    """
    n = len(r)
    h = 1.0 / points
    lefts = np.arange(points) * h
    f = np.ones(points)  # F_0 at cell midpoints
    total = 1.0
    for k in range(n):
        cell_fraction = np.clip((r[k] - lefts) / h, 0.0, 1.0)
        g = f * cell_fraction
        cums = np.cumsum(g) * h
        total = float(cums[-1])
        f = cums - g * (h / 2.0)  # F_k at cell midpoints
    return float(math.factorial(n)) * total


def test_quadrature_oracle_sanity():
    # closed form for n = 2: P = 2ab - a^2
    a, b = 0.3, 0.8
    assert quadrature_oracle(np.array([a, b])) == pytest.approx(2 * a * b - a * a, abs=1e-3)


def test_recursion_matches_quadrature_up_to_n4():
    cases = [
        [0.3, 0.8],
        [0.5, 0.5],
        [0.2, 0.5, 0.9],
        [0.1, 0.4, 0.45],
        [0.2, 0.4, 0.6, 0.8],
        [0.05, 0.3, 0.35, 0.99],
    ]
    for r in cases:
        r = np.array(r)
        assert stuart_statistic(r) == pytest.approx(quadrature_oracle(r), abs=1e-3)


def test_statistic_equals_loop_oracle_exactly():
    for n in range(1, 13):
        profiles = np.vstack([tied_profiles(n, 200, 5, n), tied_profiles(n, 200, 1000, n)])
        profiles[0] = 1.0
        got = np.array([stuart_statistic(r) for r in profiles])
        want = np.array([stuart_loop(r.tolist()) for r in profiles])
        assert np.array_equal(got, want), n


def test_statistic_rejects_unsorted():
    with pytest.raises(ContractError):
        stuart_statistic(np.array([0.5, 0.2]))


def test_statistic_rejects_out_of_range():
    with pytest.raises(ContractError):
        stuart_statistic(np.array([0.0, 0.5]))
    with pytest.raises(ContractError):
        stuart_statistic(np.array([0.5, 1.2]))


def test_statistic_rejects_empty_profile():
    with pytest.raises(ContractError):
        stuart_statistic(np.array([]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    st.integers(0, 7),
    st.floats(0.0, 0.5),
)
def test_statistic_in_range_and_monotone(values, bump_idx, bump):
    r = np.sort(np.asarray(values))
    base = stuart_statistic(r)
    assert 0.0 <= base <= 1.0
    bumped = r.copy()
    i = bump_idx % len(r)
    bumped[i] = min(1.0, bumped[i] + bump)
    bumped = np.sort(bumped)
    assert stuart_statistic(bumped) >= base - 1e-12


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_identical_lists_keep_order():
    order = rng.permutation(9)
    (result,) = aggregate([[ranking_of(order)] for _ in range(4)])
    np.testing.assert_array_equal(result.order, order)


def test_two_reversed_lists_tie_by_index():
    a = ranking_of([0, 1])
    b = ranking_of([1, 0])
    (result,) = aggregate([[a], [b]])
    np.testing.assert_array_equal(result.order, [0, 1])
    assert result.scores[0] == pytest.approx(result.scores[1])


def test_aggregate_is_list_order_invariant():
    lists = [[ranking_of(rng.permutation(8))] for _ in range(3)]
    (base,) = aggregate(lists)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        (shuffled,) = aggregate([lists[i] for i in perm])
        np.testing.assert_array_equal(shuffled.order, base.order)


def test_aggregate_monte_carlo_oracle_equivalence():
    # same order when the recursion is replaced by a Monte Carlo estimate
    lists = [ranking_of(rng.permutation(8)) for _ in range(3)]
    (result,) = aggregate([[ranking] for ranking in lists])
    m = 8
    profiles = np.empty((m, 3))
    for j, ranking in enumerate(lists):
        positions = np.empty(m)
        positions[ranking.order] = np.arange(1, m + 1)
        profiles[:, j] = positions / m
    profiles.sort(axis=1)
    mc_scores = np.array(
        [mc_order_stat_prob(profiles[i], 1_000_000, seed=100 + i) for i in range(m)]
    )
    oracle_order = np.lexsort((np.arange(m), mc_scores))
    # guard: the Monte Carlo estimates must separate the items decisively
    gaps = np.diff(np.sort(mc_scores))
    assert np.all(gaps > 5 * np.sqrt(0.25 / 1_000_000))
    np.testing.assert_array_equal(result.order, oracle_order)


def test_aggregate_scores_equal_loop_oracle_exactly():
    # a 4-item gallery: most items share a position in two or more lists
    for n in range(2, 13):
        for m in (4, 30):
            lists = [[ranking_of(rng.permutation(m))] for _ in range(n)]
            (result,) = aggregate(lists)
            positions = np.empty((n, m))
            for j, (ranking,) in enumerate(lists):
                positions[j, ranking.order] = np.arange(1, m + 1)
            profiles = np.sort(positions / m, axis=0).T
            want = np.array([stuart_loop(r.tolist()) for r in profiles])
            assert np.array_equal(result.scores, want), (n, m)


def test_one_batched_call_equals_one_call_per_probe():
    n_probes, m = 7, 15
    lists = [
        [RankingList(p, rng.permutation(m), rng.random(m)) for p in range(n_probes)]
        for _ in range(5)
    ]
    batched = aggregate(lists)
    assert len(batched) == n_probes
    for p, result in enumerate(batched):
        (single,) = aggregate([[rankings[p]] for rankings in lists])
        assert result.probe_index == single.probe_index == p
        np.testing.assert_array_equal(result.order, single.order)
        assert np.array_equal(result.scores, single.scores)


def test_aggregate_rejects_different_probe_counts():
    two = [ranking_of([0, 1, 2]), ranking_of([2, 1, 0])]
    with pytest.raises(DataError, match="different numbers of probes"):
        aggregate([two, two[:1]])
    with pytest.raises(DataError, match="different numbers of probes"):
        aggregate([two, two, []])


def test_aggregate_needs_two_lists():
    with pytest.raises(DataError):
        aggregate([[ranking_of([0, 1, 2])]])


def test_aggregate_rejects_mismatched_galleries():
    with pytest.raises(DataError):
        aggregate([[ranking_of([0, 1, 2])], [ranking_of([1, 0])]])


def test_aggregate_statistic_bounds():
    lists = [[ranking_of(rng.permutation(11))] for _ in range(4)]
    (result,) = aggregate(lists)
    assert np.all(result.scores >= 0.0) and np.all(result.scores <= 1.0)
    assert sorted(result.order.tolist()) == list(range(11))


# ---------------------------------------------------------------------------
# Best-n selection
# ---------------------------------------------------------------------------

def _val_world(orders_by_rep, truth):
    rankings = {
        rep: [ranking_of(order) for order in orders]
        for rep, orders in orders_by_rep.items()
    }
    top1 = {
        rep: float(np.mean([o[0] == truth[0] for o in orders]))
        for rep, orders in orders_by_rep.items()
    }
    return top1, rankings


def test_best_n_requires_two_reps():
    with pytest.raises(ConfigError):
        best_n_select({"F1": 0.8}, {"F1": []}, {})


def test_best_n_identical_lists_choose_two():
    order = [2, 0, 1]
    orders = {f"F{i}": [order] for i in range(1, 5)}
    top1, rankings = _val_world(orders, {0: 2})
    selection = best_n_select(top1, rankings, {0: 2})
    assert selection.chosen_n == 2
    assert len(set(selection.top1_per_n.values())) == 1


def test_best_n_orders_by_validation_rate():
    truth = {0: 0}
    orders = {
        "F1": [[1, 0, 2]],  # top1 miss
        "F2": [[0, 1, 2]],  # top1 hit
        "F3": [[1, 2, 0]],  # miss
    }
    top1 = {"F1": 0.0, "F2": 1.0, "F3": 0.0}
    rankings = {rep: [ranking_of(o) for o in orders[rep]] for rep in orders}
    selection = best_n_select(top1, rankings, truth)
    assert selection.ordered_reps[0] == "F2"
    assert set(selection.top1_per_n) == {2, 3}


def test_best_n_dominant_rep_still_floor_two():
    truth = {0: 0}
    rankings = {
        "F1": [ranking_of([0, 1, 2])],
        "F2": [ranking_of([2, 1, 0])],
    }
    selection = best_n_select({"F1": 1.0, "F2": 0.1}, rankings, truth)
    assert selection.chosen_n == 2


def test_best_n_nonmonotone_top1_picks_best():
    # heterogeneous lists: adding a bad third list hurts, so n=2 wins
    truth = {0: 0, 1: 1}
    good = [[0, 1, 2], [1, 0, 2]]
    also_good = [[0, 2, 1], [1, 2, 0]]
    bad = [[2, 1, 0], [0, 2, 1]]
    rankings = {
        "F1": [ranking_of(o) for o in good],
        "F2": [ranking_of(o) for o in also_good],
        "F3": [ranking_of(o) for o in bad],
    }
    top1 = {"F1": 1.0, "F2": 1.0, "F3": 0.5}
    selection = best_n_select(top1, rankings, truth)
    assert selection.ordered_reps[:2] == ("F1", "F2")
    assert selection.top1_per_n[2] >= selection.top1_per_n[3]
    assert selection.chosen_n == 2
