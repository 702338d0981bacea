import struct

import numpy as np
import pytest

from reidpipe import simlearn
from reidpipe.errors import ConfigError, DataError, DimError, FormatError
from reidpipe.simlearn import (
    TABLE1,
    Representation,
    SimilarityModel,
    TrainConfig,
    _PairData,
    load_model,
    loss_and_gradient,
    rank_gallery,
    sample_pairs,
    save_model,
    score_gallery,
    train_model,
)

from oracles import pair_accuracy, score_bilinear, score_mahalanobis, score_pair

rng = np.random.default_rng(101)


def sym(d, r=None):
    m = (r or rng).standard_normal((d, d))
    return 0.5 * (m + m.T)


def random_model(rep, d, gamma=1.1, r=None):
    r = r or rng
    blocks = {key: (sym(d, r), sym(d, r)) for key in rep.block_keys()}
    return SimilarityModel(rep_id=rep.rep_id, gamma=gamma, bias=0.0, blocks=blocks)


def random_feats(rep, d, r=None):
    r = r or rng
    return {key: r.standard_normal(d) for key in rep.block_keys()}


def bank_row(bank, index):
    """One image's per-block feature vectors."""
    return {key: mat[index] for key, mat in bank.items()}


def one_row(feats):
    """A one-probe bank from per-block feature vectors."""
    return {key: vec[None, :] for key, vec in feats.items()}


TWO_REGION_REP = Representation("toy", {"C1": "GL"}, n_regions=2)


# ---------------------------------------------------------------------------
# Elementary scores
# ---------------------------------------------------------------------------

def brute_force_quadratic(x_a, x_b, w):
    total = 0.0
    d = len(x_a)
    diff = [x_a[i] - x_b[i] for i in range(d)]
    for i in range(d):
        for j in range(d):
            total += diff[i] * w[i, j] * diff[j]
    return total


def brute_force_bilinear(x_a, x_b, w):
    total = 0.0
    d = len(x_a)
    for i in range(d):
        for j in range(d):
            total += x_a[i] * w[i, j] * x_b[j] + x_b[i] * w[i, j] * x_a[j]
    return total


def test_mahalanobis_identity_orthogonal():
    assert score_mahalanobis(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.eye(2)) == 2.0


def test_mahalanobis_same_vector_zero():
    x = rng.standard_normal(5)
    assert score_mahalanobis(x, x, sym(5)) == 0.0


def test_mahalanobis_matches_double_loop():
    x_a, x_b = rng.standard_normal(5), rng.standard_normal(5)
    w = sym(5)
    assert score_mahalanobis(x_a, x_b, w) == pytest.approx(
        brute_force_quadratic(x_a, x_b, w), abs=1e-12
    )


def test_mahalanobis_dim_mismatch():
    with pytest.raises(DimError):
        score_mahalanobis(np.zeros(3), np.zeros(4), np.eye(3))


def test_bilinear_zero_weight():
    assert score_bilinear(rng.standard_normal(4), rng.standard_normal(4), np.zeros((4, 4))) == 0.0


def test_bilinear_orthogonal_identity():
    assert score_bilinear(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.eye(2)) == 0.0


def test_bilinear_equal_unit_vectors():
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert score_bilinear(x, x, np.eye(2)) == pytest.approx(2.0)


def test_bilinear_matches_double_loop():
    x_a, x_b = rng.standard_normal(5), rng.standard_normal(5)
    w = sym(5)
    assert score_bilinear(x_a, x_b, w) == pytest.approx(
        brute_force_bilinear(x_a, x_b, w), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Pair score
# ---------------------------------------------------------------------------

def test_score_pair_zero_model():
    rep = TWO_REGION_REP
    model = SimilarityModel(
        "toy", 1.1, 0.0, {k: (np.zeros((3, 3)), np.zeros((3, 3))) for k in rep.block_keys()}
    )
    assert score_pair(model, random_feats(rep, 3), random_feats(rep, 3)) == 0.0


def test_score_pair_gamma_zero_is_local_only():
    rep = TWO_REGION_REP
    model = random_model(rep, 4, gamma=0.0)
    fa, fb = random_feats(rep, 4), random_feats(rep, 4)
    expected = sum(
        brute_force_quadratic(fa[k], fb[k], model.blocks[k][0])
        + brute_force_bilinear(fa[k], fb[k], model.blocks[k][1])
        for k in rep.block_keys()
        if k[1] != "G"
    )
    assert score_pair(model, fa, fb) == pytest.approx(expected, abs=1e-10)


def test_score_pair_matches_hand_expansion():
    # F0-shaped: one cue over two regions plus a global block
    rep = TWO_REGION_REP
    model = random_model(rep, 5)
    fa, fb = random_feats(rep, 5), random_feats(rep, 5)
    expected = 0.0
    for key in rep.block_keys():
        w_m, w_b = model.blocks[key]
        term = brute_force_quadratic(fa[key], fb[key], w_m)
        term += brute_force_bilinear(fa[key], fb[key], w_b)
        expected += model.gamma * term if key[1] == "G" else term
    assert score_pair(model, fa, fb) == pytest.approx(expected, abs=1e-9)


def test_score_pair_symmetry_exact():
    rep = Representation("toy", {"C1": "GL", "C2": "G"}, n_regions=3)
    for _ in range(20):
        model = random_model(rep, 4)
        fa, fb = random_feats(rep, 4), random_feats(rep, 4)
        assert score_pair(model, fa, fb) == score_pair(model, fb, fa)


def test_score_pair_additivity_gamma_one():
    rep = TWO_REGION_REP
    model = random_model(rep, 4, gamma=1.0)
    fa, fb = random_feats(rep, 4), random_feats(rep, 4)
    local = sum(
        brute_force_quadratic(fa[k], fb[k], model.blocks[k][0])
        + brute_force_bilinear(fa[k], fb[k], model.blocks[k][1])
        for k in rep.block_keys() if k[1] != "G"
    )
    global_ = sum(
        brute_force_quadratic(fa[k], fb[k], model.blocks[k][0])
        + brute_force_bilinear(fa[k], fb[k], model.blocks[k][1])
        for k in rep.block_keys() if k[1] == "G"
    )
    assert score_pair(model, fa, fb) == pytest.approx(local + global_, abs=1e-9)


def test_score_pair_missing_descriptor():
    rep = TWO_REGION_REP
    model = random_model(rep, 3)
    feats = random_feats(rep, 3)
    broken = dict(feats)
    del broken[("C1", "G")]
    with pytest.raises(ConfigError):
        score_pair(model, broken, feats)


def test_table1_unused_cues_never_affect_scores():
    # Perturbing a cue marked "-" for the representation must not change
    # anything; the model never holds a block for it.
    for rep_id, scopes in TABLE1.items():
        rep = Representation.from_table(rep_id, n_regions=2)
        unused = [c for c in ("C1", "C5", "C7", "C8") if c not in scopes]
        if not unused:
            continue
        model = random_model(rep, 3)
        fa, fb = random_feats(rep, 3), random_feats(rep, 3)
        base = score_pair(model, fa, fb)
        fa2 = dict(fa)
        fa2[(unused[0], "G")] = rng.standard_normal(3)
        assert score_pair(model, fa2, fb) == base


def asymmetric_model(rep, d, gamma=1.1):
    """Any matrices a SIMW file may hold; training only produces symmetric ones."""
    blocks = {
        key: (rng.standard_normal((d, d)), rng.standard_normal((d, d)))
        for key in rep.block_keys()
    }
    return SimilarityModel(rep_id=rep.rep_id, gamma=gamma, bias=0.0, blocks=blocks)


def test_score_gallery_matches_score_pair():
    rep = TWO_REGION_REP
    probes = {k: rng.standard_normal((5, 4)) for k in rep.block_keys()}
    gallery = {k: rng.standard_normal((7, 4)) for k in rep.block_keys()}
    for model in (random_model(rep, 4), asymmetric_model(rep, 4)):
        scores = score_gallery(model, probes, gallery)
        assert scores.shape == (5, 7)
        for p in range(5):
            for g in range(7):
                assert scores[p, g] == pytest.approx(
                    score_pair(model, bank_row(probes, p), bank_row(gallery, g)), abs=1e-9
                )


def test_score_gallery_dimension_mismatch():
    rep = TWO_REGION_REP
    model = random_model(rep, 4)
    probes = {k: rng.standard_normal((2, 4)) for k in rep.block_keys()}
    gallery = {k: rng.standard_normal((3, 5)) for k in rep.block_keys()}
    with pytest.raises(DimError):
        score_gallery(model, probes, gallery)
    with pytest.raises(DimError):
        score_gallery(random_model(rep, 3), probes, probes)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def test_rank_gallery_duplicate_first():
    rep = Representation("toy", {"X": "G"}, n_regions=0)
    d = 4
    # negative squared distance scorer: W_M = -I, W_B = 0
    model = SimilarityModel(
        "toy", 1.0, 0.0, {("X", "G"): (-np.eye(d), np.zeros((d, d)))}
    )
    probe_vec = rng.standard_normal(d)
    noise = rng.standard_normal(d)
    gallery = {("X", "G"): np.vstack([noise, probe_vec])}
    (ranking,) = rank_gallery(model, {("X", "G"): probe_vec[None, :]}, gallery)
    assert ranking.order[0] == 1


def test_rank_gallery_zero_model_tie_break():
    rep = Representation("toy", {"X": "G"}, n_regions=0)
    model = SimilarityModel("toy", 1.0, 0.0, {("X", "G"): (np.zeros((3, 3)),) * 2})
    gallery = {("X", "G"): rng.standard_normal((6, 3))}
    (ranking,) = rank_gallery(model, {("X", "G"): rng.standard_normal((1, 3))}, gallery)
    np.testing.assert_array_equal(ranking.order, np.arange(6))


def test_rank_gallery_matches_sort_oracle():
    rep = TWO_REGION_REP
    model = random_model(rep, 4)
    probe = random_feats(rep, 4)
    gallery = {k: rng.standard_normal((10, 4)) for k in rep.block_keys()}
    (ranking,) = rank_gallery(model, one_row(probe), gallery)
    pairwise = [score_pair(model, probe, bank_row(gallery, g)) for g in range(10)]
    oracle = sorted(range(10), key=lambda g: (-pairwise[g], g))
    np.testing.assert_array_equal(ranking.order, oracle)
    assert np.all(np.diff(ranking.scores[ranking.order]) <= 0)


def test_rank_gallery_every_probe_row():
    # one call ranks every probe row; each list matches its own one-row call
    rep = TWO_REGION_REP
    model = random_model(rep, 4)
    probes = {k: rng.standard_normal((6, 4)) for k in rep.block_keys()}
    gallery = {k: rng.standard_normal((8, 4)) for k in rep.block_keys()}
    rankings = rank_gallery(model, probes, gallery)
    assert [r.probe_index for r in rankings] == list(range(6))
    for p, ranking in enumerate(rankings):
        (alone,) = rank_gallery(model, one_row(bank_row(probes, p)), gallery)
        np.testing.assert_array_equal(ranking.order, alone.order)
        np.testing.assert_allclose(ranking.scores, alone.scores, rtol=0, atol=1e-9)


def test_rank_gallery_empty():
    rep = Representation("toy", {"X": "G"}, n_regions=0)
    model = SimilarityModel("toy", 1.0, 0.0, {("X", "G"): (np.eye(2),) * 2})
    with pytest.raises(DataError):
        rank_gallery(model, {("X", "G"): np.zeros((1, 2))}, {("X", "G"): np.zeros((0, 2))})


def test_ranking_invariant_under_monotone_transform():
    rep = TWO_REGION_REP
    model = random_model(rep, 4)
    probe = random_feats(rep, 4)
    gallery = {k: rng.standard_normal((9, 4)) for k in rep.block_keys()}
    (ranking,) = rank_gallery(model, one_row(probe), gallery)
    for transform in (lambda s: 2.0 * s + 1.0, np.arcsinh, lambda s: s + np.arcsinh(s)):
        mapped = transform(ranking.scores)
        order = np.argsort(-mapped, kind="stable")
        np.testing.assert_array_equal(order, ranking.order)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def make_separable(n_ids=12, d=6, noise=0.05, seed=5):
    r = np.random.default_rng(seed)
    centers = r.standard_normal((n_ids, d)) * 2.0
    a = centers + noise * r.standard_normal((n_ids, d))
    b = centers + noise * r.standard_normal((n_ids, d))
    rep = Representation("toy", {"X": "G"}, n_regions=0)
    bank_a = {("X", "G"): a}
    bank_b = {("X", "G"): b}
    labels = np.arange(n_ids)
    pairs = sample_pairs(labels, labels, r, neg_ratio=10)
    return rep, bank_a, bank_b, pairs


def test_training_separable_high_accuracy():
    rep, bank_a, bank_b, pairs = make_separable()
    model = train_model(bank_a, bank_b, pairs, rep, gamma=1.1)
    assert pair_accuracy(model, bank_a, bank_b, pairs) >= 0.95


def test_training_loss_decreases():
    rep, bank_a, bank_b, pairs = make_separable()
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    zero = {k: (np.zeros((6, 6)), np.zeros((6, 6))) for k in rep.block_keys()}
    loss0, _, _ = loss_and_gradient(data, zero, 0.0, 1.1, 1e-3)
    model = train_model(bank_a, bank_b, pairs, rep, gamma=1.1)
    loss1, _, _ = loss_and_gradient(data, model.blocks, model.bias, 1.1, 1e-3)
    assert loss1 < loss0


def test_training_huge_lambda_zeroes_weights():
    rep, bank_a, bank_b, pairs = make_separable()
    model = train_model(
        bank_a, bank_b, pairs, rep, gamma=1.1, config=TrainConfig(lam=1e12)
    )
    for w_m, w_b in model.blocks.values():
        assert np.max(np.abs(w_m)) < 1e-6
        assert np.max(np.abs(w_b)) < 1e-6
    fa = bank_row(bank_a, 0)
    fb = bank_row(bank_b, 1)
    assert abs(score_pair(model, fa, fb)) < 1e-4


def test_training_single_class_rejected():
    rep, bank_a, bank_b, pairs = make_separable()
    positives = pairs[pairs[:, 2] == 1]
    with pytest.raises(DataError):
        train_model(bank_a, bank_b, positives, rep, gamma=1.1)


def test_training_symmetric_blocks():
    rep, bank_a, bank_b, pairs = make_separable()
    model = train_model(bank_a, bank_b, pairs, rep, gamma=1.1)
    for w_m, w_b in model.blocks.values():
        assert np.max(np.abs(w_m - w_m.T)) <= 1e-9
        assert np.max(np.abs(w_b - w_b.T)) <= 1e-9


def test_training_deterministic():
    rep, bank_a, bank_b, pairs = make_separable()
    m1 = train_model(bank_a, bank_b, pairs, rep, gamma=1.1)
    m2 = train_model(bank_a, bank_b, pairs, rep, gamma=1.1)
    assert m1.bias == m2.bias
    for key in m1.blocks:
        np.testing.assert_array_equal(m1.blocks[key][0], m2.blocks[key][0])
        np.testing.assert_array_equal(m1.blocks[key][1], m2.blocks[key][1])


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        np.zeros((0, 2), dtype=np.int64),
        np.array([[0, 0, 1], [1, 2, -1]], dtype=np.float64),
        np.array([[0, 0, 1], [1, 2, 0]]),
        np.array([0, 1, 1]),
        # indices outside [0, rows): a negative one must not wrap to the last row
        np.array([[-1, 3, -1], [0, 0, 1]]),
        np.array([[0, -1, -1], [0, 0, 1]]),
        np.array([[12, 3, -1], [0, 0, 1]]),
        np.array([[0, 12, -1], [0, 0, 1]]),
    ],
)
def test_training_malformed_pairs_rejected(pairs):
    rep, bank_a, bank_b, good = make_separable()
    with pytest.raises(DataError):
        train_model(bank_a, bank_b, pairs, rep, gamma=1.1)
    model = train_model(bank_a, bank_b, good, rep, gamma=1.1, config=TrainConfig(max_iters=2))
    with pytest.raises(DataError):
        pair_accuracy(model, bank_a, bank_b, pairs)
    with pytest.raises(DataError):
        loss_and_gradient(
            _PairData(bank_a, bank_b, pairs, rep.block_keys()), model.blocks, 0.0, 1.1, 1e-3
        )


def test_training_stop_reasons():
    rep, bank_a, bank_b, pairs = make_separable()

    def stop(bank_a=bank_a, bank_b=bank_b, pairs=pairs, **config):
        model = train_model(bank_a, bank_b, pairs, rep, gamma=1.1, config=TrainConfig(**config))
        return model.stop_reason, model.iterations

    reason, iterations = stop()
    assert reason == "converged" and 1 < iterations < 500
    assert stop(max_iters=3) == ("max_iters", 3)
    assert stop(lam=1e12) == ("converged", 1)
    # The penalty outgrows every step the 60 halvings can reach.
    assert stop(lam=1e30) == ("line_search", 0)
    # Zero features and balanced classes: the gradient at the start is exactly 0.
    zeros = {("X", "G"): np.zeros((2, 6))}
    balanced = np.array([[0, 0, 1], [0, 1, -1]])
    assert stop(bank_a=zeros, bank_b=zeros, pairs=balanced) == ("zero_gradient", 0)


def per_pair_loss_and_gradient(bank_a, bank_b, pairs, blocks, bias, gamma, lam):
    """Oracle for loss_and_gradient: every pair's a, b and a - b rows stacked
    per block, pair scores and gradients summed pair by pair."""
    pairs = np.asarray(pairs)
    y = pairs[:, 2].astype(np.float64)
    stacks = {key: (bank_a[key][pairs[:, 0]], bank_b[key][pairs[:, 1]]) for key in blocks}
    scale = {key: gamma if key[1] == "G" else 1.0 for key in blocks}
    scores = np.zeros(len(y))
    for key, (w_m, w_b) in blocks.items():
        a, b = stacks[key]
        diff = a - b
        term = np.einsum("ij,ij->i", diff @ w_m, diff)
        term += np.einsum("ij,ij->i", a @ (w_b + w_b.T), b)
        scores += scale[key] * term
    margins = -y * (scores - bias)
    coef = -y * np.exp(-np.logaddexp(0.0, -margins))
    sq_norm = sum(np.sum(w_m * w_m) + np.sum(w_b * w_b) for w_m, w_b in blocks.values())
    loss = float(np.logaddexp(0.0, margins).sum()) + lam * sq_norm
    grads = {}
    for key, (w_m, w_b) in blocks.items():
        a, b = stacks[key]
        c = scale[key] * coef[:, None]
        diff = a - b
        m = (diff * c).T @ diff
        x = (a * c).T @ b
        grads[key] = (0.5 * (m + m.T) + 2.0 * lam * w_m, x + x.T + 2.0 * lam * w_b)
    return loss, grads, float(-coef.sum())


def reference_train(bank_a, bank_b, pairs, rep, gamma, config=TrainConfig()):
    """Gradient descent on the per-pair oracle with a full loss-and-gradient
    pass per line-search trial and every accepted step symmetrized: the
    algorithm train_model must reproduce."""
    def loss_and_grad(blocks_, bias_):
        return per_pair_loss_and_gradient(bank_a, bank_b, pairs, blocks_, bias_, gamma, config.lam)

    blocks = {k: (np.zeros((bank_a[k].shape[1],) * 2),) * 2 for k in rep.block_keys()}
    bias, step, iterations = 0.0, 1.0, 0
    loss, grads, grad_bias = loss_and_grad(blocks, bias)
    for _ in range(config.max_iters):
        grad_sq = grad_bias**2 + sum(np.sum(m * m) + np.sum(b * b) for m, b in grads.values())
        if grad_sq == 0.0:
            break
        t = step
        for _ in range(60):
            trial = {k: (m - t * grads[k][0], b - t * grads[k][1]) for k, (m, b) in blocks.items()}
            trial_loss, trial_grads, trial_gb = loss_and_grad(trial, bias - t * grad_bias)
            if np.isfinite(trial_loss) and trial_loss <= loss - simlearn.ARMIJO * t * grad_sq:
                break
            t *= 0.5
        else:
            break
        blocks = {k: (0.5 * (m + m.T), 0.5 * (b + b.T)) for k, (m, b) in trial.items()}
        bias -= t * grad_bias
        prev_loss, loss, grads, grad_bias = loss, trial_loss, trial_grads, trial_gb
        iterations += 1
        step = 2.0 * t
        if abs(prev_loss - loss) <= simlearn.REL_TOL * max(1.0, abs(prev_loss)):
            break
    return blocks, bias, iterations


def camera_banks(rep, n_ids, d, r):
    """Two noisy views of ``n_ids`` identity centres per block."""
    bank_a, bank_b = {}, {}
    for key in rep.block_keys():
        centers = r.standard_normal((n_ids, d))
        bank_a[key] = centers + 1.5 * r.standard_normal((n_ids, d))
        bank_b[key] = centers + 1.5 * r.standard_normal((n_ids, d))
    return bank_a, bank_b


def sampled(scopes, n_ids, d, r):
    """Camera banks with sample_pairs' pairs: trained at image level."""
    rep = Representation("toy", scopes, n_regions=2)
    bank_a, bank_b = camera_banks(rep, n_ids, d, r)
    labels = np.arange(n_ids)
    return rep, bank_a, bank_b, sample_pairs(labels, labels, r, neg_ratio=10)


def postrank_shaped(n, d, r):
    """One global block, one probe row and one member row per pair and
    pairs (i, i), as post-ranking trains: n^2 <= N_a N_b, so pair space."""
    rep = Representation("toy", {"X": "G"}, n_regions=0)
    labels = np.where(r.random(n) < 0.3, 1, -1)
    probe = r.standard_normal((n, d))
    member = r.standard_normal((n, d)) + (labels > 0)[:, None] * probe
    pairs = np.column_stack([np.arange(n), np.arange(n), labels])
    return rep, {("X", "G"): probe}, {("X", "G"): member}, pairs


def count_pair_grams(monkeypatch):
    """The size of every pair Gram train_model builds from now on."""
    sizes = []
    build = simlearn._pair_gram

    def spy(data, gamma):
        sizes.append(len(data.y))
        return build(data, gamma)

    monkeypatch.setattr(simlearn, "_pair_gram", spy)
    return sizes


def assert_matches_reference(bank_a, bank_b, pairs, rep, gamma):
    ref_blocks, ref_bias, ref_iterations = reference_train(bank_a, bank_b, pairs, rep, gamma)
    model = train_model(bank_a, bank_b, pairs, rep, gamma=gamma)
    assert model.iterations == ref_iterations
    assert abs(model.bias - ref_bias) <= 1e-9 * max(1.0, abs(ref_bias))
    for key, ref in ref_blocks.items():
        for got, want in zip(model.blocks[key], ref):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "scopes, n_ids, d, gamma",
    [
        # 6 blocks, 330 pairs > sum d^2 = 96; runs all 500 iterations
        ({"C1": "GL", "C2": "GL"}, 30, 4, 1.1),
        # one wide block, d^2 = 1600 > 132 pairs; converges
        ({"X": "G"}, 12, 40, 1.0),
        # post-rank shaped (no scopes): 40 wide, 60 pairs (i, i), pair space
        pytest.param(None, 60, 40, 1.0, id="pair_space"),
    ],
)
def test_training_matches_reference_loop(scopes, n_ids, d, gamma, monkeypatch):
    r = np.random.default_rng(17)
    if scopes is None:
        rep, bank_a, bank_b, pairs = postrank_shaped(n_ids, d, r)
    else:
        rep, bank_a, bank_b, pairs = sampled(scopes, n_ids, d, r)
    grams = count_pair_grams(monkeypatch)
    assert_matches_reference(bank_a, bank_b, pairs, rep, gamma)
    assert grams == ([] if scopes else [len(pairs)])


@pytest.mark.parametrize("pair_space", [False, True], ids=["image", "pair_space"])
def test_training_pair_listed_twice_matches_reference(pair_space, monkeypatch):
    r = np.random.default_rng(29)
    if pair_space:
        rep, bank_a, bank_b, pairs = postrank_shaped(30, 8, r)
        # one more row per camera keeps n^2 <= N_a N_b with a pair repeated
        bank_a = {k: np.vstack([m, m[:1]]) for k, m in bank_a.items()}
        bank_b = {k: np.vstack([m, m[:1]]) for k, m in bank_b.items()}
    else:
        rep, bank_a, bank_b, pairs = sampled({"C1": "GL"}, 10, 5, r)
    pairs = np.vstack([pairs, pairs[:1]])
    grams = count_pair_grams(monkeypatch)
    assert_matches_reference(bank_a, bank_b, pairs, rep, gamma=1.1)
    assert grams == ([len(pairs)] if pair_space else [])


def test_pair_scores_match_score_pair():
    # the image-level pair-score map against score_pair, pair by pair
    r = np.random.default_rng(31)
    rep = Representation("toy", {"C1": "GL", "C2": "G"}, n_regions=2)
    bank_a, bank_b = camera_banks(rep, 7, 4, r)
    bank_b = {k: m[:5] for k, m in bank_b.items()}
    pairs = np.array([[p, q, 1 if p == q else -1] for p in range(7) for q in range(5)])
    pairs = np.vstack([pairs, pairs[:3]])
    model = random_model(rep, 4, r=r)
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    scores = simlearn._pair_scores(data, data.stack(model.blocks), model.gamma)
    assert scores.shape == (len(pairs),)
    for (p, q, _), got in zip(pairs, scores):
        want = score_pair(model, bank_row(bank_a, p), bank_row(bank_b, q))
        assert abs(got - want) <= 1e-9


def test_loss_and_gradient_matches_per_pair_oracle():
    r = np.random.default_rng(37)
    rep = Representation("toy", {"C1": "GL", "C2": "G"}, n_regions=2)
    bank_a, bank_b = camera_banks(rep, 9, 5, r)
    pairs = sample_pairs(np.arange(9), np.arange(9), r, neg_ratio=3)
    pairs = np.vstack([pairs, pairs[:2]])
    model = random_model(rep, 5, r=r)
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    loss, grads, grad_bias = loss_and_gradient(data, model.blocks, 0.2, 1.1, 1e-2)
    ref_loss, ref_grads, ref_grad_bias = per_pair_loss_and_gradient(
        bank_a, bank_b, pairs, model.blocks, 0.2, 1.1, 1e-2
    )
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grad_bias == pytest.approx(ref_grad_bias, rel=1e-12)
    for key, ref in ref_grads.items():
        for got, want in zip(grads[key], ref):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Blocks of two widths: the scoring core and the trainer group blocks by width
# ---------------------------------------------------------------------------

# Global blocks 6 wide and local blocks 4 wide, as a PCA block clamped to its
# row count would give; in sorted key order the widths interleave (C1 G, C1 r0,
# C1 r1, C2 G), so each width group gathers blocks that are not adjacent.
MIXED_REP = Representation("mixed", {"C1": "GL", "C2": "G"}, n_regions=2)


def mixed_width(key):
    return 6 if key[1] == "G" else 4


def mixed_banks(n_a, n_b, r):
    bank_a = {k: r.standard_normal((n_a, mixed_width(k))) for k in MIXED_REP.block_keys()}
    bank_b = {k: r.standard_normal((n_b, mixed_width(k))) for k in MIXED_REP.block_keys()}
    return bank_a, bank_b


def mixed_model(r, symmetric=True):
    blocks = {}
    for key in MIXED_REP.block_keys():
        d = mixed_width(key)
        w_m, w_b = r.standard_normal((d, d)), r.standard_normal((d, d))
        if symmetric:
            w_m, w_b = 0.5 * (w_m + w_m.T), 0.5 * (w_b + w_b.T)
        blocks[key] = (w_m, w_b)
    return SimilarityModel(rep_id="mixed", gamma=1.1, bias=0.0, blocks=blocks)


def test_score_gallery_over_two_block_widths():
    r = np.random.default_rng(53)
    probes, gallery = mixed_banks(5, 7, r)
    for model in (mixed_model(r), mixed_model(r, symmetric=False)):
        scores = score_gallery(model, probes, gallery)
        assert scores.shape == (5, 7)
        for p in range(5):
            for g in range(7):
                want = score_pair(model, bank_row(probes, p), bank_row(gallery, g))
                assert abs(scores[p, g] - want) <= 1e-9


def test_score_gallery_of_empty_banks():
    r = np.random.default_rng(57)
    model = mixed_model(r)
    probes, gallery = mixed_banks(0, 7, r)
    assert score_gallery(model, probes, gallery).shape == (0, 7)
    assert score_gallery(model, gallery, probes).shape == (7, 0)


def test_pair_scores_over_two_block_widths():
    r = np.random.default_rng(59)
    bank_a, bank_b = mixed_banks(6, 5, r)
    pairs = np.array([[p, q, 1 if p == q else -1] for p in range(6) for q in range(5)])
    model = mixed_model(r)
    data = _PairData(bank_a, bank_b, pairs, MIXED_REP.block_keys())
    assert sorted(len(group.keys) for group in data.groups) == [2, 2]
    scores = simlearn._pair_scores(data, data.stack(model.blocks), model.gamma)
    for (p, q, _), got in zip(pairs, scores):
        want = score_pair(model, bank_row(bank_a, p), bank_row(bank_b, q))
        assert abs(got - want) <= 1e-9


def test_loss_and_gradient_over_two_block_widths():
    r = np.random.default_rng(61)
    bank_a, bank_b = mixed_banks(9, 9, r)
    pairs = sample_pairs(np.arange(9), np.arange(9), r, neg_ratio=3)
    model = mixed_model(r)
    data = _PairData(bank_a, bank_b, pairs, MIXED_REP.block_keys())
    loss, grads, grad_bias = loss_and_gradient(data, model.blocks, 0.2, 1.1, 1e-2)
    ref_loss, ref_grads, ref_grad_bias = per_pair_loss_and_gradient(
        bank_a, bank_b, pairs, model.blocks, 0.2, 1.1, 1e-2
    )
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grad_bias == pytest.approx(ref_grad_bias, rel=1e-12)
    assert set(grads) == set(ref_grads)
    for key, ref in ref_grads.items():
        for got, want in zip(grads[key], ref):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("pair_space", [False, True], ids=["image", "pair_space"])
def test_training_over_two_block_widths_matches_reference(pair_space, monkeypatch):
    r = np.random.default_rng(67)
    if pair_space:
        bank_a, bank_b = mixed_banks(40, 40, r)
        labels = np.where(r.random(40) < 0.3, 1, -1)
        pairs = np.column_stack([np.arange(40), np.arange(40), labels])
    else:
        bank_a, bank_b = mixed_banks(12, 12, r)
        pairs = sample_pairs(np.arange(12), np.arange(12), r, neg_ratio=10)
    grams = count_pair_grams(monkeypatch)
    assert_matches_reference(bank_a, bank_b, pairs, MIXED_REP, gamma=1.1)
    assert grams == ([len(pairs)] if pair_space else [])


def test_simw_round_trip_over_two_block_widths(tmp_path):
    model = mixed_model(np.random.default_rng(71))
    path = tmp_path / "mixed.simw"
    save_model(model, path)
    loaded = load_model(path, rep_id="mixed")
    assert set(loaded.blocks) == set(model.blocks)
    for key, (w_m, w_b) in model.blocks.items():
        assert loaded.blocks[key][0].shape == (mixed_width(key),) * 2
        np.testing.assert_allclose(loaded.blocks[key][0], w_m, atol=1e-6)
        np.testing.assert_allclose(loaded.blocks[key][1], w_b, atol=1e-6)
    probes, gallery = mixed_banks(3, 4, np.random.default_rng(73))
    np.testing.assert_allclose(
        score_gallery(loaded, probes, gallery), score_gallery(model, probes, gallery), atol=1e-4
    )


def test_pair_gram_matches_explicit_feature_map():
    # K = Psi Psi^T, where pair i's row of Psi holds, per block, s * vec(d d^T)
    # and s * vec(a b^T + b a^T); 70 pairs fill more than one row chunk
    r = np.random.default_rng(43)
    rep = Representation("toy", {"C1": "GL"}, n_regions=1)
    bank_a, bank_b = camera_banks(rep, 70, 3, r)
    labels = np.where(r.random(70) < 0.5, 1, -1)
    pairs = np.column_stack([r.permutation(70), np.arange(70), labels])
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    rows = []
    for p, q, _ in pairs:
        row = []
        for key in rep.block_keys():
            a, b = bank_a[key][p], bank_b[key][q]
            s = 1.1 if key[1] == "G" else 1.0
            row.append(s * np.outer(a - b, a - b).ravel())
            row.append(s * (np.outer(a, b) + np.outer(b, a)).ravel())
        rows.append(np.concatenate(row))
    psi = np.array(rows)
    gram = simlearn._pair_gram(data, 1.1)
    np.testing.assert_allclose(gram, psi @ psi.T, rtol=1e-12, atol=1e-9)


def test_training_stop_reasons_in_pair_space(monkeypatch):
    rep, bank_a, bank_b, pairs = postrank_shaped(40, 6, np.random.default_rng(41))
    grams = count_pair_grams(monkeypatch)

    def stop(bank_a=bank_a, bank_b=bank_b, pairs=pairs, **config):
        model = train_model(bank_a, bank_b, pairs, rep, gamma=1.0, config=TrainConfig(**config))
        return model.stop_reason, model.iterations

    reason, iterations = stop()
    assert reason == "converged" and 1 < iterations < 500
    assert stop(max_iters=3) == ("max_iters", 3)
    assert stop(lam=1e12) == ("converged", 1)
    assert stop(lam=1e30) == ("line_search", 0)
    zeros = {("X", "G"): np.zeros((2, 6))}
    balanced = np.array([[0, 0, 1], [1, 1, -1]])
    assert stop(bank_a=zeros, bank_b=zeros, pairs=balanced) == ("zero_gradient", 0)
    assert grams == [40, 40, 40, 40, 2]


def test_pair_space_training_holds_one_pair_gram_at_a_time(monkeypatch):
    # the weights are formed from an (n, n) coefficient matrix, as large as
    # the pair Gram, so the Gram must be dropped first: holding both would
    # peak near 2 Grams
    import tracemalloc

    n = 600
    rep, bank_a, bank_b, pairs = postrank_shaped(n, 8, np.random.default_rng(47))
    grams = count_pair_grams(monkeypatch)
    tracemalloc.start()
    try:
        train_model(bank_a, bank_b, pairs, rep, gamma=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grams == [n]
    assert peak < 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} pair Grams"


def gradient_check(rep, bank_a, bank_b, pairs, gamma=1.1, lam=1e-3, eps=1e-5):
    """Central finite differences against the analytic gradient, per block."""
    r = np.random.default_rng(3)
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    d = bank_a[rep.block_keys()[0]].shape[1]
    blocks = {k: (sym(d, r), sym(d, r)) for k in rep.block_keys()}
    bias = 0.3
    _, grads, grad_bias = loss_and_gradient(data, blocks, bias, gamma, lam)

    def loss_of(blocks_, bias_):
        value, _, _ = loss_and_gradient(data, blocks_, bias_, gamma, lam)
        return value

    worst = 0.0
    for key in rep.block_keys():
        for which in (0, 1):
            analytic = grads[key][which]
            fd = np.zeros_like(analytic)
            for i in range(d):
                for j in range(d):
                    perturbed = {
                        k: (blocks[k][0].copy(), blocks[k][1].copy())
                        for k in blocks
                    }
                    perturbed[key][which][i, j] += eps
                    up = loss_of(perturbed, bias)
                    perturbed[key][which][i, j] -= 2 * eps
                    down = loss_of(perturbed, bias)
                    fd[i, j] = (up - down) / (2 * eps)
            rel = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, rel)
    fd_bias = (loss_of(blocks, bias + eps) - loss_of(blocks, bias - eps)) / (2 * eps)
    worst = max(worst, abs(fd_bias - grad_bias) / max(abs(fd_bias), 1e-12))
    return worst


def test_gradient_matches_finite_differences():
    r = np.random.default_rng(9)
    rep = Representation("toy", {"X": "GL"}, n_regions=2)
    d = 6
    bank_a = {k: r.standard_normal((8, d)) for k in rep.block_keys()}
    bank_b = {k: r.standard_normal((8, d)) for k in rep.block_keys()}
    labels = np.arange(4).repeat(2)
    pairs = sample_pairs(labels, labels, r, neg_ratio=3)
    assert gradient_check(rep, bank_a, bank_b, pairs) <= 1e-4


# ---------------------------------------------------------------------------
# Pair sampling and persistence
# ---------------------------------------------------------------------------

def test_sample_pairs_ratio_and_determinism():
    labels = np.arange(10)
    pairs = sample_pairs(labels, labels, 42, neg_ratio=5)
    assert (pairs[:, 2] == 1).sum() == 10
    assert (pairs[:, 2] == -1).sum() == 50
    np.testing.assert_array_equal(pairs, sample_pairs(labels, labels, 42, neg_ratio=5))
    for i, j, y in pairs:
        assert (labels[i] == labels[j]) == (y == 1)


def test_simw_round_trip(tmp_path):
    rep = Representation("toy", {"C1": "GL"}, n_regions=2)
    model = random_model(rep, 4, gamma=1.1)
    model.bias = 0.25
    path = tmp_path / "model.simw"
    save_model(model, path)
    loaded = load_model(path, rep_id="toy")
    assert loaded.gamma == pytest.approx(1.1, abs=1e-6)
    assert loaded.bias == pytest.approx(0.25, abs=1e-7)
    assert set(loaded.blocks) == set(model.blocks)
    for key in model.blocks:
        np.testing.assert_allclose(loaded.blocks[key][0], model.blocks[key][0], atol=1e-6)
        np.testing.assert_allclose(loaded.blocks[key][1], model.blocks[key][1], atol=1e-6)


def test_simw_every_truncation_is_data_error(tmp_path):
    path = tmp_path / "model.simw"
    save_model(random_model(TWO_REGION_REP, 4), path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.simw"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(DataError):
            load_model(cut)


def test_simw_non_utf8_cue_is_data_error(tmp_path):
    path = tmp_path / "model.simw"
    save_model(random_model(Representation("toy", {"X": "G"}, n_regions=0), 2), path)
    raw = bytearray(path.read_bytes())
    raw[28] = 0xFF  # the one-byte cue name follows the region tag and its length
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_model(path)


def _one_block_simw(path):
    """A SIMW file with one global 2x2 block named X: the cue name is byte 28,
    d bytes 29-32, W_M bytes 33-48 and W_B bytes 49-64."""
    save_model(random_model(Representation("toy", {"X": "G"}, n_regions=0), 2), path)
    return bytearray(path.read_bytes())


@pytest.mark.parametrize("offset", [8, 12, 33, 61], ids=["gamma", "bias", "W_M", "W_B"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_simw_non_finite_is_data_error(tmp_path, offset, value):
    path = tmp_path / "model.simw"
    raw = _one_block_simw(path)
    raw[offset : offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="non-finite") as excinfo:
        load_model(path)
    assert not isinstance(excinfo.value, FormatError)


def test_simw_huge_dimension_is_format_error(tmp_path):
    path = tmp_path / "model.simw"
    raw = _one_block_simw(path)
    raw[29:33] = struct.pack("<I", 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="truncated"):
        load_model(path)


def test_simw_bad_magic_and_duplicate_block_are_format_errors(tmp_path):
    path = tmp_path / "model.simw"
    raw = _one_block_simw(path)
    path.write_bytes(b"SIMX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        load_model(path)
    path.write_bytes(bytes(raw[:16]) + struct.pack("<I", 2) + bytes(raw[20:]) * 2)
    with pytest.raises(FormatError, match="duplicate"):
        load_model(path)
