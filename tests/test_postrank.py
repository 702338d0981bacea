import numpy as np
import pytest

from reidpipe.errors import ContractError, DataError
from reidpipe.postrank import (
    WINDOW,
    ContentSet,
    ContextSet,
    DciaResult,
    DiscriminantBlock,
    NeighborWindows,
    _member_window,
    apply_dcia,
    content_set,
    context_set,
    discriminant_removal,
    knee_point,
    postrank,
    train_postrank_model,
)
from reidpipe.simlearn import RankingList, SimilarityModel, score_gallery

from oracles import pair_accuracy

rng = np.random.default_rng(71)

KEY = ("dcia", "G")


def neg_distance_model(d):
    """Fixed scorer: similarity = -||a-b||^2."""
    return SimilarityModel("base", 1.0, 0.0, {KEY: (-np.eye(d), np.zeros((d, d)))})


def ranking_from_scores(scores, probe_index=0):
    scores = np.asarray(scores, dtype=np.float64)
    return RankingList(
        probe_index=probe_index,
        order=np.argsort(-scores, kind="stable"),
        scores=scores,
    )


# ---------------------------------------------------------------------------
# Knee point
# ---------------------------------------------------------------------------

def chord_oracle(curve):
    """Independent oracle: explicit below-chord distances."""
    t = len(curve)
    d1, dt = curve[0], curve[-1]
    best_i, best_v = 1, 0.0
    for i in range(1, t + 1):
        line = d1 + (dt - d1) * (i - 1) / (t - 1)
        v = line - curve[i - 1]
        if v > best_v:
            best_i, best_v = i, v
    return best_i


def test_knee_linear_curve_returns_first():
    m, th = knee_point(np.linspace(0.0, 1.0, 10), window=10)
    assert m == 1 and th == 0.0


def test_knee_hand_checked_curve():
    curve = np.array([0.0, 0.1, 0.2, 5.0, 5.1])
    assert chord_oracle(curve) == 3
    m, th = knee_point(curve, window=5)
    assert m == 3
    assert th == pytest.approx(0.2)


def test_knee_two_segment_elbows():
    r = np.random.default_rng(4)
    for _ in range(100):
        j = int(r.integers(2, 12))
        slope1 = float(r.uniform(0.01, 0.5))
        slope2 = slope1 + float(r.uniform(0.5, 3.0))
        curve = np.empty(15)
        for i in range(15):
            if i < j:
                curve[i] = slope1 * i
            else:
                curve[i] = slope1 * (j - 1) + slope2 * (i - j + 1)
        m, th = knee_point(curve, window=15)
        assert m == chord_oracle(curve) == j
        assert th == pytest.approx(curve[j - 1])


def test_knee_short_curve_fallback():
    assert knee_point(np.array([0.4, 0.9]), window=25) == (1, pytest.approx(0.4))


def test_knee_rejects_descending():
    with pytest.raises(ContractError):
        knee_point(np.array([1.0, 0.5, 0.2]))


def test_knee_empty():
    with pytest.raises(DataError):
        knee_point(np.array([]))


# ---------------------------------------------------------------------------
# Content set
# ---------------------------------------------------------------------------

def test_content_identical_scores_degenerate():
    content = content_set(ranking_from_scores(np.ones(30)))
    assert content.m == 1


def test_content_single_clear_match():
    scores = np.concatenate([[10.0], 1.0 - 0.01 * np.arange(20)])
    content = content_set(ranking_from_scores(scores))
    assert content.m == 1
    assert content.members == (0,)


def test_content_members_form_ranking_prefix():
    for _ in range(50):
        scores = rng.standard_normal(40)
        ranking = ranking_from_scores(scores)
        content = content_set(ranking)
        assert list(content.members) == list(ranking.order[: content.m])
        dissim = -scores
        assert all(dissim[g] <= content.threshold + 1e-12 for g in content.members)


def test_content_threshold_excludes_next_rank():
    for trial in range(50):
        r = np.random.default_rng(trial)
        ranking = ranking_from_scores(r.standard_normal(40))
        content = content_set(ranking)
        if content.m < 25:
            nxt = ranking.order[content.m]
            assert -ranking.scores[nxt] > content.threshold


# ---------------------------------------------------------------------------
# Context set
# ---------------------------------------------------------------------------

def fixed_window_context(scores, members, windows, k=13):
    """Drive context_set with fixed neighbor windows."""
    ranking = ranking_from_scores(scores)
    content = ContentSet(probe_index=0, members=members, threshold=0.0)
    return context_set(ranking, content, dict(windows), k=k)


def test_context_disjoint_windows_empty():
    scores = np.linspace(1.0, 0.0, 20)
    ctx = fixed_window_context(
        scores, members=(0, 1), windows={0: (10, 11), 1: (12, 13)}
    )
    assert ctx.per_match[0] == ()
    assert ctx.per_match[1] == ()
    assert ctx.merged == ()


def test_context_small_candidate_set_all_retained():
    scores = np.linspace(1.0, 0.0, 20)
    ctx = fixed_window_context(
        scores, members=(0, 1), windows={0: (10, 11, 12), 1: (10, 11, 13)}
    )
    assert set(ctx.per_match[0]) == {10, 11}
    assert set(ctx.per_match[1]) == {10, 11}
    assert ctx.merged == (10, 11)


def test_context_flat_histogram_uses_probe_similarity():
    # 20 equal-count candidates, distinct probe similarities, K=13
    n = 32
    scores = np.zeros(n)
    candidates = tuple(range(10, 30))
    sims = rng.permutation(20) / 20.0
    scores[list(candidates)] = sims
    ctx = fixed_window_context(
        scores, members=(0, 1), windows={0: candidates, 1: candidates}, k=13
    )
    expected = tuple(sorted(candidates, key=lambda c: (-scores[c], c))[:13])
    assert ctx.per_match[0] == expected
    assert ctx.per_match[1] == expected


def test_context_merged_excludes_content():
    scores = np.linspace(1.0, 0.0, 20)
    ctx = fixed_window_context(
        scores, members=(0, 1), windows={0: (1, 10), 1: (0, 10)}
    )
    # the other content member is a valid per-match candidate but never merged
    assert 1 in ctx.per_match[0]
    assert set(ctx.merged).isdisjoint({0, 1})


def test_context_geometric_integration():
    # real windows computed from a model: clustered gallery
    d = 3
    model = neg_distance_model(d)
    pts = np.vstack([
        rng.normal(0, 0.05, (6, d)),        # tight cluster: indices 0..5
        rng.normal(8, 0.05, (6, d)),        # far cluster: 6..11
    ])
    gallery = {KEY: pts}
    probe = np.zeros(d)
    scores = -((pts - probe) ** 2).sum(axis=1)
    ranking = ranking_from_scores(scores)
    content = content_set(ranking)
    gallery_scores = score_gallery(model, gallery, gallery)
    windows = {g: _member_window(g, gallery_scores, WINDOW) for g in content.members}
    ctx = context_set(ranking, content, windows)
    assert set(ctx.merged).isdisjoint(set(content.members))
    for members in ctx.per_match.values():
        assert len(members) <= 13


def test_neighbor_windows_compute_each_window_once(monkeypatch):
    from reidpipe import postrank as module

    pts = rng.standard_normal((12, 3))
    gallery_scores = score_gallery(neg_distance_model(3), {KEY: pts}, {KEY: pts})
    asked = []

    def spy(g, scores, window):
        asked.append(g)
        return _member_window(g, scores, window)

    monkeypatch.setattr(module, "_member_window", spy)
    windows = NeighborWindows(gallery_scores, 5)
    for g in (3, 7, 3, 0, 7, 3):
        assert windows[g] == _member_window(g, gallery_scores, 5)
    assert asked == [3, 7, 0]


def test_shared_windows_give_the_same_dcia_results():
    # one NeighborWindows for every probe of a gallery, as experiment._dcia_all
    # uses it, against a fresh one per probe
    probes, _, gallery, _ = shared_ambiguity_world()
    gallery_scores = score_gallery(neg_distance_model(gallery.shape[1]),
                                   {KEY: gallery}, {KEY: gallery})
    shared = NeighborWindows(gallery_scores, 9)
    for p in range(len(probes)):
        ranking = ranking_from_scores(-((gallery - probes[p]) ** 2).sum(axis=1), probe_index=p)
        got = apply_dcia(ranking, probes[p], gallery, shared)
        want = apply_dcia(ranking, probes[p], gallery, NeighborWindows(gallery_scores, 9))
        assert got.content == want.content and got.context == want.context
        np.testing.assert_array_equal(got.block.d_p_star, want.block.d_p_star)
        assert got.content == content_set(ranking, 9)


# ---------------------------------------------------------------------------
# Discriminant removal
# ---------------------------------------------------------------------------

def test_discriminant_full_energy_removes_everything():
    vectors = rng.standard_normal((6, 10))
    block = discriminant_removal(vectors, energy=1.0)
    np.testing.assert_allclose(block.d_p_star, 0.0, atol=1e-8)


def test_discriminant_tiny_energy_single_component():
    vectors = rng.standard_normal((8, 10)) @ np.diag(np.linspace(3, 0.1, 10))
    block = discriminant_removal(vectors, energy=1e-9)
    assert block.basis.shape[1] == 1


def test_discriminant_projector_annihilates_basis():
    vectors = rng.standard_normal((7, 12))
    block = discriminant_removal(vectors, energy=0.35)
    residual = block.basis.T @ block.d_p_star
    np.testing.assert_allclose(residual, 0.0, atol=1e-8)


def test_discriminant_projector_idempotent():
    vectors = rng.standard_normal((7, 12))
    block = discriminant_removal(vectors, energy=0.35)
    p = block.basis
    once = block.d_p - p @ (p.T @ block.d_p)
    twice = once - p @ (p.T @ once)
    assert np.max(np.abs(twice - once)) <= 1e-8


def test_discriminant_columns_zero_mean():
    vectors = rng.standard_normal((5, 9))
    block = discriminant_removal(vectors)
    np.testing.assert_allclose(block.d_p.sum(axis=1), 0.0, atol=1e-10)


def test_discriminant_energy_monotone():
    for _ in range(20):
        vectors = rng.standard_normal((8, 10))
        b35 = discriminant_removal(vectors, energy=0.35)
        b55 = discriminant_removal(vectors, energy=0.55)
        k35, k55 = b35.basis.shape[1], b55.basis.shape[1]
        assert k55 >= k35
        # same ordered components: the smaller basis is a prefix of the larger
        np.testing.assert_allclose(b55.basis[:, :k35], b35.basis, atol=1e-10)


def test_discriminant_identical_vectors():
    vectors = np.tile(rng.standard_normal(6), (4, 1))
    block = discriminant_removal(vectors)
    assert block.basis.shape == (6, 0)
    np.testing.assert_allclose(block.d_p_star, 0.0, atol=1e-12)
    np.testing.assert_allclose(block.d_p, 0.0, atol=1e-12)


def test_discriminant_needs_two_vectors():
    with pytest.raises(DataError):
        discriminant_removal(rng.standard_normal((1, 5)))


# ---------------------------------------------------------------------------
# Post-ranking
# ---------------------------------------------------------------------------

def make_block(probe, members_star):
    cols = np.column_stack([probe] + list(members_star))
    return DiscriminantBlock(d_p=cols, basis=np.zeros((len(probe), 0)), d_p_star=cols)


def test_postrank_single_member_identity():
    ranking = ranking_from_scores([5.0, 1.0, 0.5])
    content = ContentSet(0, (0,), threshold=-5.0)
    block = make_block(np.zeros(2), [np.zeros(2)])
    assert postrank(ranking, content, block, neg_distance_model(2)) is ranking


def test_postrank_reverses_prefix():
    scores = np.array([9.0, 8.0, 7.0, 1.0, 0.5])
    ranking = ranking_from_scores(scores)
    content = ContentSet(0, (0, 1, 2), threshold=-7.0)
    probe = np.zeros(2)
    # member 0 farthest, member 2 nearest under the new distances
    stars = [np.array([3.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0])]
    out = postrank(ranking, content, make_block(probe, stars), neg_distance_model(2))
    np.testing.assert_array_equal(out.order, [2, 1, 0, 3, 4])
    # suffix untouched, scores stay non-increasing along the order
    assert np.all(np.diff(out.scores[out.order]) <= 0)
    np.testing.assert_array_equal(out.order[3:], ranking.order[3:])


def test_postrank_is_permutation():
    scores = rng.standard_normal(12)
    ranking = ranking_from_scores(scores)
    content = content_set(ranking)
    m = content.m
    probe = rng.standard_normal(3)
    stars = [rng.standard_normal(3) for _ in range(m)]
    out = postrank(ranking, content, make_block(probe, stars), neg_distance_model(3))
    assert sorted(out.order.tolist()) == list(range(12))
    np.testing.assert_array_equal(out.order[m:], ranking.order[m:])


# ---------------------------------------------------------------------------
# Post-rank training
# ---------------------------------------------------------------------------

def shared_ambiguity_world(n_ids=60, d=8, amp=8.0, seed=3):
    """Each probe shares a private ambiguity direction with its content set.

    The true match and two wrong-identity confusers all carry the probe's
    ambiguity component at varying amplitude, so raw distances are dominated
    by it while the identity signal lives in the residual.
    """
    r = np.random.default_rng(seed)
    ids = np.arange(n_ids)
    identity = r.standard_normal((n_ids, d))
    probes = np.empty((n_ids, d))
    gallery = np.empty((3 * n_ids, d))
    gallery_labels = np.empty(3 * n_ids, dtype=np.int64)
    for i in range(n_ids):
        v = r.standard_normal(d)
        v /= np.linalg.norm(v)
        probes[i] = identity[i] + amp * v
        for slot, who in enumerate((i, (i + 1) % n_ids, (i + 2) % n_ids)):
            scale = 1.0 + r.uniform(0.05, 0.5)
            gallery[3 * i + slot] = identity[who] + amp * scale * v
            gallery_labels[3 * i + slot] = who
    return probes, ids, gallery, gallery_labels


def run_dcia_on_world(probes, probe_labels, gallery, gallery_labels):
    d = probes.shape[1]
    model = neg_distance_model(d)
    gallery_bank = {KEY: gallery}
    gallery_scores = score_gallery(model, gallery_bank, gallery_bank)
    results = []
    for p in range(len(probes)):
        scores = -((gallery - probes[p]) ** 2).sum(axis=1)
        ranking = ranking_from_scores(scores, probe_index=p)
        results.append(apply_dcia(ranking, probes[p], gallery, NeighborWindows(gallery_scores)))
    return results


def best_threshold_accuracy(scores, labels):
    """Best achievable pair accuracy of a scorer over all decision thresholds."""
    best = 0.0
    for threshold in np.concatenate([[-np.inf], np.sort(scores)]):
        pred = np.where(scores > threshold, 1, -1)
        best = max(best, float(np.mean(pred == labels)))
    return best


def test_train_postrank_separates_shared_component():
    probes, probe_labels, gallery, gallery_labels = shared_ambiguity_world()
    results = run_dcia_on_world(probes, probe_labels, gallery, gallery_labels)
    assert any(res.content.m >= 2 for res in results)
    prm = train_postrank_model(results, probe_labels, gallery_labels)

    # rebuild the training pairs to measure both scorers on the same task
    vec_a, vec_b, base_scores, labels = [], [], [], []
    for res in results:
        if res.content.m < 2:
            continue
        p = res.ranking.probe_index
        for pos, g in enumerate(res.content.members):
            vec_a.append(res.block.probe_star)
            vec_b.append(res.block.member_star(pos))
            base_scores.append(res.ranking.scores[g])
            labels.append(1 if probe_labels[p] == gallery_labels[g] else -1)
    labels = np.asarray(labels)
    assert set(labels.tolist()) == {-1, 1}
    pairs = np.column_stack([np.arange(len(labels)), np.arange(len(labels)), labels])

    star_a = {KEY: np.vstack(vec_a)}
    star_b = {KEY: np.vstack(vec_b)}
    acc_dcia = pair_accuracy(prm, star_a, star_b, pairs)
    acc_base = best_threshold_accuracy(np.asarray(base_scores), labels)
    assert acc_dcia > acc_base


def test_train_postrank_single_class_rejected():
    probes, probe_labels, gallery, gallery_labels = shared_ambiguity_world()
    results = run_dcia_on_world(probes, probe_labels, gallery, gallery_labels)
    # one shared identity everywhere: every pair comes out positive
    with pytest.raises(DataError):
        train_postrank_model(
            results, np.zeros_like(probe_labels), np.zeros_like(gallery_labels)
        )


def test_train_postrank_no_trainable_probes():
    ranking = ranking_from_scores([3.0, 1.0, 0.5])
    content = ContentSet(0, (0,), threshold=-3.0)
    block = make_block(np.zeros(2), [np.zeros(2)])
    res = DciaResult(
        ranking=ranking,
        content=content,
        context=ContextSet(0, {0: ()}, ()),
        block=block,
    )
    with pytest.raises(DataError):
        train_postrank_model([res], np.array([0]), np.array([0, 1, 2]))


def test_train_postrank_deterministic():
    probes, probe_labels, gallery, gallery_labels = shared_ambiguity_world()
    results = run_dcia_on_world(probes, probe_labels, gallery, gallery_labels)
    m1 = train_postrank_model(results, probe_labels, gallery_labels)
    m2 = train_postrank_model(results, probe_labels, gallery_labels)
    np.testing.assert_array_equal(m1.blocks[KEY][0], m2.blocks[KEY][0])
    assert m1.bias == m2.bias
