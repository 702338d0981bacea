import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reidpipe.errors import DataError
from reidpipe.evaluation import (
    cmc_curve,
    load_content_csv,
    load_rankings_csv,
    load_truth_csv,
    mean_cmc,
    postrank_stats,
    save_content_csv,
    save_rankings_csv,
    save_truth_csv,
    summarize_postrank_stats,
    true_match_ranks,
)
from reidpipe.postrank import ContentSet
from reidpipe.simlearn import RankingList

rng = np.random.default_rng(55)


def ranking_of(order, probe_index=0):
    order = np.asarray(order, dtype=np.int64)
    scores = np.empty(order.size)
    scores[order] = -np.arange(order.size, dtype=np.float64)
    return RankingList(probe_index=probe_index, order=order, scores=scores)


def rankings_with_true_ranks(true_ranks, m):
    """Build rankings whose true match (gallery p) lands at the given rank."""
    out = []
    for p, rank in enumerate(true_ranks):
        rest = [g for g in range(m) if g != p]
        order = rest[: rank - 1] + [p] + rest[rank - 1 :]
        out.append(ranking_of(order, probe_index=p))
    return out


# ---------------------------------------------------------------------------
# CMC
# ---------------------------------------------------------------------------

def test_cmc_hand_checked_example():
    rankings = rankings_with_true_ranks([1, 3, 2], m=3)
    truth = {0: 0, 1: 1, 2: 2}
    curve = cmc_curve(rankings, truth)
    np.testing.assert_allclose(curve.rates, [1 / 3, 2 / 3, 1.0])


def test_cmc_all_rank_one():
    rankings = rankings_with_true_ranks([1, 1, 1, 1], m=5)
    curve = cmc_curve(rankings, {p: p for p in range(4)})
    np.testing.assert_allclose(curve.rates, 1.0)


def test_cmc_single_probe_worst_rank():
    rankings = rankings_with_true_ranks([6], m=6)
    curve = cmc_curve(rankings, {0: 0})
    np.testing.assert_allclose(curve.rates, [0, 0, 0, 0, 0, 1.0])


def test_cmc_monotone_terminal_one_random():
    for trial in range(30):
        r = np.random.default_rng(trial)
        m = int(r.integers(2, 20))
        rankings = [
            ranking_of(r.permutation(m), probe_index=p) for p in range(int(r.integers(1, 10)))
        ]
        truth = {p: int(r.integers(0, m)) for p in range(len(rankings))}
        curve = cmc_curve(rankings, truth)
        assert np.all(np.diff(curve.rates) >= 0)
        assert curve.rates[-1] == pytest.approx(1.0)
        assert np.all((curve.rates >= 0) & (curve.rates <= 1))


def test_cmc_missing_truth():
    with pytest.raises(DataError):
        cmc_curve([ranking_of([0, 1])], {})


def test_mean_cmc():
    a = cmc_curve(rankings_with_true_ranks([1], m=2), {0: 0})
    b = cmc_curve(rankings_with_true_ranks([2], m=2), {0: 0})
    np.testing.assert_allclose(mean_cmc([a, b]).rates, [0.5, 1.0])


def test_true_match_rank():
    ranking = ranking_of([3, 1, 0, 2])
    assert true_match_ranks([ranking], {0: 0})[0] == 3
    assert true_match_ranks([ranking], {0: 3})[0] == 1


# ---------------------------------------------------------------------------
# Post-ranking stats
# ---------------------------------------------------------------------------

def content_of(ranking, m):
    return ContentSet(
        probe_index=ranking.probe_index,
        members=tuple(int(g) for g in ranking.order[:m]),
        threshold=0.0,
    )


def test_stats_unchanged_when_identical():
    before = rankings_with_true_ranks([2, 3], m=4)
    contents = [content_of(r, 2) for r in before]
    truth = {0: 0, 1: 1}
    stats = postrank_stats(before, before, contents, truth)
    assert stats["improved"] == 0.0
    assert stats["unchanged"] == 100.0
    assert stats["worsened"] == 0.0


def test_stats_single_probe_moved_to_top():
    before = rankings_with_true_ranks([3], m=4)
    after = rankings_with_true_ranks([1], m=4)
    contents = [content_of(before[0], 3)]
    stats = postrank_stats(before, after, contents, {0: 0})
    assert stats["improved"] == 100.0
    assert stats["improved_to_top1"] == 100.0
    assert stats["in_content"] == 100.0


def test_stats_sum_to_hundred():
    m = 8
    before = rankings_with_true_ranks([2, 4, 1, 5], m=m)
    after = rankings_with_true_ranks([1, 5, 1, 5], m=m)
    contents = [content_of(r, 5) for r in before]
    truth = {p: p for p in range(4)}
    stats = postrank_stats(before, after, contents, truth)
    assert stats["improved"] + stats["unchanged"] + stats["worsened"] == pytest.approx(100.0, abs=0.1)
    assert stats["worsened"] == 25.0


def test_stats_in_content_respects_membership():
    before = rankings_with_true_ranks([4], m=5)
    contents = [content_of(before[0], 2)]  # true match at rank 4, content holds top-2
    stats = postrank_stats(before, before, contents, {0: 0})
    assert stats["in_content"] == 0.0


def test_stats_misaligned_probes():
    before = rankings_with_true_ranks([1, 2], m=3)
    after = list(reversed(rankings_with_true_ranks([1, 2], m=3)))
    contents = [content_of(r, 2) for r in before]
    with pytest.raises(DataError):
        postrank_stats(before, after, contents, {0: 0, 1: 1})


def test_summarize_runs_mean_std():
    runs = [
        postrank_stats(
            rankings_with_true_ranks([r], m=4),
            rankings_with_true_ranks([1], m=4),
            [content_of(rankings_with_true_ranks([r], m=4)[0], 2)],
            {0: 0},
        )
        for r in (1, 2)
    ]
    summary = summarize_postrank_stats(runs)
    assert summary["improved"][0] == 50.0
    assert summary["improved"][1] == 50.0


# ---------------------------------------------------------------------------
# The per-probe loops as oracles
# ---------------------------------------------------------------------------

@st.composite
def postrank_worlds(draw):
    """(before, after, contents, truth) over one gallery. Each after list is
    its before list (every rank ties), the before list with its content
    prefix reordered (a true match outside the content keeps its rank), or
    any permutation; content sets run from 1 to a drawn window."""
    m = draw(st.integers(1, 9))
    window = draw(st.integers(1, m))
    before, after, contents, truth = [], [], [], {}
    for p in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(m)))
        k = draw(st.integers(1, window))
        moved = draw(st.sampled_from(["none", "content", "any"]))
        if moved == "none":
            new = order
        elif moved == "content":
            new = draw(st.permutations(order[:k])) + order[k:]
        else:
            new = draw(st.permutations(range(m)))
        before.append(RankingList(p, np.array(order), np.zeros(m)))
        after.append(RankingList(p, np.array(new), np.zeros(m)))
        contents.append(ContentSet(p, tuple(order[:k]), 0.0))
        truth[p] = draw(st.integers(0, m - 1))
    return before, after, contents, truth


def _outcome(compute):
    """``compute()``, or the message of the DataError it raises."""
    try:
        return compute()
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=300, deadline=None)
@given(world=postrank_worlds(), data=st.data())
def test_true_match_ranks_and_cmc_equal_the_per_probe_loop(world, data):
    rankings, _, _, truth = world
    # faults: probes with no truth entry, orders that hold an entry twice
    probes = st.lists(st.sampled_from(sorted(truth)), max_size=2, unique=True)
    for p in data.draw(probes):
        del truth[p]
    for p in data.draw(probes):
        if rankings[p].order.size > 1:
            rankings[p].order[-1] = rankings[p].order[0]
    expected = _outcome(lambda: [oracles.true_match_rank(r, truth) for r in rankings])
    assert _outcome(lambda: true_match_ranks(rankings, truth).tolist()) == expected
    expected = _outcome(lambda: oracles.cmc_curve(rankings, truth).rates)
    got = _outcome(lambda: cmc_curve(rankings, truth).rates)
    if isinstance(expected, str):
        assert got == expected
    else:
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(world=postrank_worlds())
def test_postrank_stats_equal_the_counter_loop(world):
    stats, expected = postrank_stats(*world), oracles.postrank_stats(*world)
    assert stats == expected
    assert list(stats) == list(expected)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_rankings_csv_round_trip(tmp_path):
    rankings = [ranking_of(rng.permutation(4), probe_index=p) for p in range(3)]
    probe_ids = ["p0", "p1", "p2"]
    gallery_ids = ["g0", "g1", "g2", "g3"]
    path = tmp_path / "rankings.csv"
    save_rankings_csv(rankings, path, probe_ids, gallery_ids)
    loaded, probes, galleries = load_rankings_csv(path)
    assert probes == probe_ids
    assert galleries == gallery_ids
    for orig, back in zip(rankings, loaded):
        np.testing.assert_array_equal(orig.order, back.order)
        np.testing.assert_allclose(orig.scores, back.scores)


def test_content_truth_csv_round_trip(tmp_path):
    contents = [
        ContentSet(probe_index=0, members=(2, 0), threshold=0.5),
        ContentSet(probe_index=1, members=(1,), threshold=0.25),
    ]
    truth = {0: 2, 1: 1}
    probe_ids = ["p0", "p1"]
    gallery_ids = ["g0", "g1", "g2"]
    cpath = tmp_path / "content.csv"
    tpath = tmp_path / "truth.csv"
    save_content_csv(contents, cpath, probe_ids, gallery_ids)
    save_truth_csv(truth, tpath, probe_ids, gallery_ids)
    probe_index = {p: i for i, p in enumerate(probe_ids)}
    gallery_index = {g: i for i, g in enumerate(gallery_ids)}
    loaded = load_content_csv(cpath, probe_index, gallery_index)
    assert [c.members for c in loaded] == [(2, 0), (1,)]
    assert loaded[0].threshold == pytest.approx(0.5)
    assert load_truth_csv(tpath, probe_index, gallery_index) == truth


@pytest.mark.parametrize(
    "rows, fault",
    [
        # one member listed twice would count as a re-rankable set of two
        ("p0,g1,0.5\r\np0,g1,0.5\r\n", "line 3: probe p0 lists g1 twice"),
        ("p0,g1,0.5\r\np1,g0,0.25\r\np1,g2,0.75\r\n", "line 4: probe p1 has two thresholds"),
    ],
    ids=["member_twice", "two_thresholds"],
)
def test_content_csv_rejects_a_member_twice_and_two_thresholds(tmp_path, rows, fault):
    path = tmp_path / "content.csv"
    path.write_text("probe_id,gallery_id,threshold\r\n" + rows, newline="")
    with pytest.raises(DataError, match=f"content.csv: {fault}"):
        load_content_csv(path, {"p0": 0, "p1": 1}, {"g0": 0, "g1": 1, "g2": 2})


def test_rankings_csv_rejects_repeated_gallery_id(tmp_path):
    path = tmp_path / "dup.csv"
    # ranks run 1..2 for both probes, but p0 lists g0 twice and leaves out g1
    path.write_text(
        "probe_id,rank,gallery_id,score\n"
        "p0,1,g0,0.4\np0,2,g0,0.3\np1,1,g1,0.1\np1,2,g0,0.2\n"
    )
    with pytest.raises(DataError, match="dup.csv: probe p0 is not a full permutation"):
        load_rankings_csv(path)


ROUND_TRIP = """
import sys
from pathlib import Path

import numpy as np

from reidpipe.datamodel import ImageRecord, load_identities, save_identities
from reidpipe.evaluation import (
    load_content_csv, load_rankings_csv, load_truth_csv,
    save_content_csv, save_rankings_csv, save_truth_csv,
)
from reidpipe.postrank import ContentSet
from reidpipe.simlearn import RankingList

root = Path(sys.argv[1])
probes, gallery = ["p\\u00e9"], ["g\\u00e8", "g1"]
save_identities([ImageRecord(probes[0], 1, "A")], root / "ids.csv")
save_rankings_csv([RankingList(0, np.array([1, 0]), np.zeros(2))], root / "r.csv", probes, gallery)
save_content_csv([ContentSet(0, (0,), 0.5)], root / "c.csv", probes, gallery)
save_truth_csv({0: 0}, root / "t.csv", probes, gallery)
assert load_identities(root / "ids.csv")[0].image_id == probes[0]
assert load_rankings_csv(root / "r.csv")[1:] == (probes, sorted(gallery))
index = ({probes[0]: 0}, {g: i for i, g in enumerate(gallery)})
assert load_content_csv(root / "c.csv", *index)[0].members == (0,)
assert load_truth_csv(root / "t.csv", *index) == {0: 0}
"""


def test_csv_files_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale without UTF-8 mode makes ASCII the default file encoding
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    script = tmp_path / "round_trip.py"
    script.write_text(ROUND_TRIP)
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "p\u00e9".encode() in (tmp_path / "r.csv").read_bytes()


def test_rankings_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(DataError):
        load_rankings_csv(path)
