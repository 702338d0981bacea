"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``) including its
runtime; the runtime budget is asserted where one is stated.
"""

import filecmp
import time

import numpy as np

from conftest import build_synthetic_dataset
from reidpipe.config import load_config
from reidpipe.evaluation import cmc_curve
from reidpipe.experiment import run_experiment, write_report
from reidpipe.features import (
    apply_pca,
    fit_pca,
    patch_grid,
    assemble_cue,
)
from reidpipe.postrank import (
    WINDOW,
    _member_window,
    content_set,
    context_set,
    discriminant_removal,
    postrank,
)
from reidpipe.rankagg import aggregate, stuart_statistic
from reidpipe.simlearn import (
    RankingList,
    Representation,
    SimilarityModel,
    sample_pairs,
    score_gallery,
    train_model,
)

from oracles import pair_accuracy, score_pair, siltp_descriptor
from test_rankagg import mc_order_stat_prob
from test_simlearn import (
    brute_force_bilinear,
    brute_force_quadratic,
    gradient_check,
    make_separable,
    one_row,
)


def report(criterion: str, started: float, budget: float | None = None) -> None:
    elapsed = time.time() - started
    print(f"PASS {criterion} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"{criterion}: {elapsed:.1f}s exceeded {budget}s budget"


def test_criterion_1_similarity_correctness():
    start = time.time()
    rng = np.random.default_rng(1001)
    rep = Representation("acc", {"C1": "GL", "C2": "GL", "C3": "G"}, n_regions=4)
    d = 5
    for _ in range(1000):
        blocks = {}
        for key in rep.block_keys():
            w_m = rng.standard_normal((d, d))
            w_b = rng.standard_normal((d, d))
            blocks[key] = (0.5 * (w_m + w_m.T), 0.5 * (w_b + w_b.T))
        model = SimilarityModel("acc", gamma=1.1, bias=0.0, blocks=blocks)
        fa = {key: rng.standard_normal(d) for key in rep.block_keys()}
        fb = {key: rng.standard_normal(d) for key in rep.block_keys()}
        expected = 0.0
        for key in rep.block_keys():
            w_m, w_b = model.blocks[key]
            term = brute_force_quadratic(fa[key], fb[key], w_m)
            term += brute_force_bilinear(fa[key], fb[key], w_b)
            expected += model.gamma * term if key[1] == "G" else term
        got = score_pair(model, fa, fb)
        assert abs(got - expected) <= 1e-9
        assert got == score_pair(model, fb, fa)
        # the shipped scorer, on one-row banks: not bit-symmetric, as its
        # products sum in another order
        shipped = score_gallery(model, one_row(fa), one_row(fb))
        assert shipped.shape == (1, 1)
        assert abs(shipped[0, 0] - expected) <= 1e-9
    report("criterion-1 similarity matches brute-force expansion", start, budget=5.0)


def test_criterion_2_training_soundness():
    start = time.time()
    rng = np.random.default_rng(1002)
    rep = Representation("toy", {"X": "GL"}, n_regions=2)
    d = 6
    bank_a = {k: rng.standard_normal((8, d)) for k in rep.block_keys()}
    bank_b = {k: rng.standard_normal((8, d)) for k in rep.block_keys()}
    labels = np.arange(4).repeat(2)
    pairs = sample_pairs(labels, labels, rng, neg_ratio=3)
    assert gradient_check(rep, bank_a, bank_b, pairs) <= 1e-4

    sep_rep, sep_a, sep_b, sep_pairs = make_separable()
    model = train_model(sep_a, sep_b, sep_pairs, sep_rep, gamma=1.1)
    accuracy = pair_accuracy(model, sep_a, sep_b, sep_pairs)
    assert accuracy >= 0.95
    report("criterion-2 gradients within 1e-4 and separable accuracy >= 0.95", start, budget=60.0)


def test_criterion_3_dcia_invariants():
    start = time.time()
    rng = np.random.default_rng(1003)
    key = ("dcia", "G")
    d = 6
    model = SimilarityModel("base", 1.0, 0.0, {key: (-np.eye(d), np.zeros((d, d)))})

    for trial in range(200):
        r = np.random.default_rng(trial)
        m_gallery = int(r.integers(8, 30))
        gallery_vecs = r.standard_normal((m_gallery, d))
        probe_vec = r.standard_normal(d)
        scores = -((gallery_vecs - probe_vec) ** 2).sum(axis=1)
        ranking = RankingList(
            probe_index=0, order=np.argsort(-scores, kind="stable"), scores=scores
        )
        content = content_set(ranking)
        gallery_scores = score_gallery(model, {key: gallery_vecs}, {key: gallery_vecs})
        windows = {g: _member_window(g, gallery_scores, WINDOW) for g in content.members}
        context = context_set(ranking, content, windows)
        assert set(context.merged).isdisjoint(set(content.members))

        stack = np.vstack(
            [probe_vec]
            + [gallery_vecs[g] for g in content.members]
            + [gallery_vecs[c] for c in context.merged]
        )
        block = discriminant_removal(stack, energy=0.35)
        p = block.basis
        once = block.d_p - p @ (p.T @ block.d_p)
        twice = once - p @ (p.T @ once)
        assert np.max(np.abs(twice - once)) <= 1e-8

        new_model = SimilarityModel(
            "post", 1.0, 0.0, {key: (r.standard_normal((d, d)),) * 2}
        )
        reranked = postrank(ranking, content, block, new_model)
        np.testing.assert_array_equal(
            reranked.order[content.m :], ranking.order[content.m :]
        )
        assert sorted(reranked.order.tolist()) == list(range(m_gallery))
    report("criterion-3 DCIA idempotence, prefix locality, disjointness", start, budget=30.0)


def test_criterion_4_stuart_statistic():
    start = time.time()
    rng = np.random.default_rng(1004)
    n_samples = 10_000_000
    profiles = []
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        profiles.append(np.sort(rng.uniform(0.05, 1.0, size=n)))
    for i, r in enumerate(profiles):
        exact = stuart_statistic(r)
        estimate = mc_order_stat_prob(r, n_samples, seed=5000 + i)
        sigma = np.sqrt(max(estimate * (1 - estimate), 1e-12) / n_samples)
        assert abs(exact - estimate) <= 3 * sigma, (r, exact, estimate)

    for n in range(1, 13):
        assert stuart_statistic(np.ones(n)) == 1.0

    order = rng.permutation(12)
    scores = np.empty(12)
    scores[order] = -np.arange(12, dtype=np.float64)
    lists = [[RankingList(0, order.copy(), scores.copy())] for _ in range(4)]
    np.testing.assert_array_equal(aggregate(lists)[0].order, order)
    report("criterion-4 Stuart recursion vs Monte Carlo (3 sigma)", start, budget=120.0)


def test_criterion_5_end_to_end_synthetic(tmp_path):
    start = time.time()
    config_path = build_synthetic_dataset(
        tmp_path / "data", n_ids=40, dim=25, n_cues=3, noise=0.1,
        seeds=tuple(range(10)),
    )
    report_data = run_experiment(load_config(config_path))
    top1_initial = np.mean([report_data.cmc_initial[r].top_k(1) for r in report_data.rep_ids])
    top1_post = np.mean([report_data.cmc_postrank[r].top_k(1) for r in report_data.rep_ids])
    top1_agg = report_data.cmc_aggregate.top_k(1)
    assert top1_post >= 0.95
    assert top1_agg >= 0.95
    assert top1_initial - top1_post <= 0.02
    report("criterion-5 end-to-end synthetic pipeline top-1 >= 0.95", start, budget=300.0)


def test_criterion_6_cmc_contract():
    start = time.time()
    orders = [
        np.array([0, 1, 2]),   # probe 0: true match rank 1
        np.array([0, 2, 1]),   # probe 1: true match rank 3
        np.array([0, 1, 2]),   # probe 2: true match rank 2 (gallery 2 at position 2)
    ]
    rankings = []
    for p, order in enumerate(orders):
        scores = np.empty(3)
        scores[order] = -np.arange(3, dtype=np.float64)
        rankings.append(RankingList(probe_index=p, order=order, scores=scores))
    truth = {0: 0, 1: 1, 2: 1}
    curve = cmc_curve(rankings, truth)
    np.testing.assert_array_equal(curve.rates, [1 / 3, 2 / 3, 1.0])

    rng = np.random.default_rng(1006)
    for _ in range(50):
        m = int(rng.integers(2, 15))
        rnd = [
            RankingList(
                probe_index=p,
                order=rng.permutation(m),
                scores=np.zeros(m),
            )
            for p in range(int(rng.integers(1, 8)))
        ]
        truth = {p: int(rng.integers(0, m)) for p in range(len(rnd))}
        rates = cmc_curve(rnd, truth).rates
        assert np.all(np.diff(rates) >= 0)
        assert rates[-1] == 1.0
    report("criterion-6 CMC monotone, terminal 1.0, hand-checked example", start)


def test_criterion_7_feature_invariants():
    start = time.time()
    rng = np.random.default_rng(1007)
    patch = rng.integers(1, 200, size=(16, 8)).astype(np.float64)
    for alpha in (0.5, 2.0, 3.0):
        np.testing.assert_array_equal(
            siltp_descriptor(patch), siltp_descriptor(alpha * patch)
        )

    data = rng.standard_normal((60, 30))
    model = fit_pca(data, d_out=15)
    assert np.max(np.abs(model.basis.T @ model.basis - np.eye(15))) <= 1e-6
    out = apply_pca(model, data)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    image = rng.random((128, 48, 3))
    for cue in ("C1", "C5"):
        desc = assemble_cue(image, cue)
        assert abs(np.linalg.norm(desc.global_) - 1.0) <= 1e-9
        for vec in desc.local:
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    assert len(patch_grid(48, 128, 8, 16, 4, 8)) == 165
    report("criterion-7 SILTP/PCA/L2/patch-grid invariants", start, budget=30.0)


def test_criterion_8_determinism(tmp_path):
    start = time.time()
    config_path = build_synthetic_dataset(
        tmp_path / "data", n_ids=16, n_cues=2, seeds=(0, 1), pca_dim=8
    )
    config = load_config(config_path)
    paths1 = write_report(run_experiment(config), tmp_path / "run1")
    paths2 = write_report(run_experiment(config), tmp_path / "run2")
    assert [p.name for p in paths1] == [p.name for p in paths2]
    for p1, p2 in zip(paths1, paths2):
        assert filecmp.cmp(p1, p2, shallow=False), f"{p1.name} differs between runs"
    report("criterion-8 byte-identical reports for identical config/seeds", start)
