"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every tolerance and budget is pinned here, not configurable.
"""

import dataclasses
import time

import numpy as np
import pytest

from otrank.corpus import make_sentence, padding_sentence
from otrank.embeddings import FrequencyTable, build_frequency_table, write_embedding_store
from otrank.metrics import average_precision, precision_at_1, rank_candidates, reciprocal_rank
from otrank.model import (
    extract_features,
    forward,
    init_model_params,
    instance_windows,
    param_tensors,
    window_forward,
)
from otrank.mutual_info import WindowPairs, mi_forward
from otrank.sinkhorn import (
    SinkhornSettings,
    align_sentence,
    cost_matrix,
    sinkhorn_plan,
    transport_costs,
)
from otrank.synthetic import make_synthetic_corpus
from otrank.training import (
    TrainConfig,
    gradcheck,
    joint_loss,
    load_checkpoint,
    save_checkpoint,
    train,
)

from oracles import (
    Window,
    ap_oracle,
    feature_set,
    lp_transport_oracle,
    p1_oracle,
    rr_oracle,
    scalar_align,
    scalar_score_window,
)


def _report(num: int, name: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def synthetic_corpus():
    return make_synthetic_corpus(n_train=200, n_dev=50, n_candidates=5, dim=16, seed=0)


def test_criterion_1_sinkhorn_feasibility():
    rng = np.random.default_rng(100)
    started = time.monotonic()
    for _ in range(100):
        n, m = rng.integers(1, 13, size=2)
        D = cost_matrix(rng.normal(size=(n, 16)), rng.normal(size=(m, 16)))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(m))
        eps = 0.1 * D.mean() if D.mean() > 0 else 1e-9
        tp = sinkhorn_plan(p, q, D, eps, max_iter=500, tol=1e-6)
        assert tp.converged
        assert np.max(np.abs(tp.plan.sum(axis=1) - p)) <= 1e-6
        assert np.max(np.abs(tp.plan.sum(axis=0) - q)) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"feasibility sweep took {elapsed:.2f}s"
    _report(1, "sinkhorn feasibility")


def test_criterion_2_lp_oracle_agreement():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(50):
        n, m = rng.integers(2, 5, size=2)
        D = cost_matrix(rng.normal(size=(n, 8)), rng.normal(size=(m, 8)))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(m))
        exact = lp_transport_oracle(p, q, D)
        tp = sinkhorn_plan(p, q, D, eps=0.01 * D.mean(), max_iter=200000, tol=1e-9)
        cost = transport_costs(tp.plan[None], D[None])[0]
        assert abs(cost - exact) / exact <= 0.02, (cost, exact)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"LP sweep took {elapsed:.2f}s"
    _report(2, "LP-oracle agreement within 2%")


def test_criterion_3_zero_cost_closed_form():
    rng = np.random.default_rng(102)
    for _ in range(20):
        n, m = rng.integers(1, 10, size=2)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(m))
        tp = sinkhorn_plan(p, q, np.zeros((n, m)), eps=0.8, max_iter=5000, tol=1e-12)
        assert tp.converged
        assert np.max(np.abs(tp.plan - np.outer(p, q))) <= 1e-8
    _report(3, "zero-cost plans equal the outer product")


def test_criterion_4_gradient_audit():
    started = time.monotonic()
    report = gradcheck(seed=0, step=1e-4, threshold=1e-4, dim=6, hidden=8, layers=2)
    elapsed = time.monotonic() - started
    expected_tensors = {
        "dep.w1", "dep.b1", "dep.w2", "dep.b2",
        "gcn.0.w", "gcn.0.b", "gcn.1.w", "gcn.1.b",
        "head.w1", "head.b1", "head.w2", "head.b2",
        "disc.w1", "disc.b1", "disc.w2", "disc.b2",
    }
    assert set(report.per_tensor) == expected_tensors
    assert report.ok, report.per_tensor
    assert report.max_rel_err <= 1e-4
    assert elapsed < 60.0, f"gradcheck took {elapsed:.2f}s"
    _report(4, "finite-difference gradient audit")


def _random_tiny_instance(rng, dim):
    """Random question/window with tiny sentences and an in-test vector table."""
    def words(k):
        return " ".join(f"xq{rng.integers(0, 40)}" for _ in range(k))

    question = make_sentence(words(int(rng.integers(2, 5))))
    q_vecs = rng.normal(size=(len(question.tokens), dim))
    sentences = []
    for _ in range(3):
        if rng.random() < 0.15:
            sent = padding_sentence()
            vecs = None
        else:
            sent = make_sentence(words(int(rng.integers(2, 5))))
            vecs = rng.normal(size=(len(sent.tokens), dim))
        sentences.append((sent, vecs))
    counts = {f"xq{i}": int(rng.integers(0, 6)) for i in range(40)}
    ft = FrequencyTable(counts=counts, num_questions=8)
    return question, q_vecs, sentences, ft


def test_criterion_5_forward_oracles():
    rng = np.random.default_rng(103)
    settings = SinkhornSettings(eps_scale=0.1, max_iter=20000, tol=1e-12)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 9))
        question, q_vecs, sentences, ft = _random_tiny_instance(rng, dim)

        reps = np.zeros((3, dim))
        costs = np.zeros(3)
        for row, (sent, vecs) in enumerate(sentences):
            res = align_sentence(question, sent, q_vecs, vecs, ft, settings)
            reps[row] = res.representation
            costs[row] = res.cost
            # Scalar replay of the alignment stage.
            q_tok = [(t.normalized, t.is_content) for t in question.tokens]
            s_tok = [(t.normalized, t.is_content) for t in sent.tokens]
            c_ref, r_ref = scalar_align(
                q_tok, q_vecs.tolist(), s_tok,
                None if vecs is None else vecs.tolist(),
                sent.is_padding, ft.counts,
                settings.eps_scale, settings.max_iter, settings.tol,
            )
            assert abs(res.cost - c_ref) <= 1e-8
            np.testing.assert_allclose(res.representation, r_ref, atol=1e-8)

        params = init_model_params(rng, dim=dim, hidden=hidden, layers=2)
        for t in param_tensors(params).values():
            t += rng.normal(size=t.shape) * 0.3
        feats = feature_set([Window(reps, costs, (True, False, None))])
        fwd = window_forward(feats, 0, params)
        assert np.max(np.abs(fwd.alpha.sum(axis=1) - 1.0)) <= 1e-12

        dep = (params.dep.w1.tolist(), params.dep.b1.tolist(),
               params.dep.w2.tolist(), params.dep.b2.tolist())
        head = (params.head.w1.tolist(), params.head.b1.tolist(),
                params.head.w2.tolist(), params.head.b2.tolist())
        layers = [(l.w.tolist(), l.b.tolist()) for l in params.gcn]
        p_ref, h_ref = scalar_score_window(reps.tolist(), costs.tolist(), dep, layers, head)
        assert abs(fwd.p - p_ref) <= 1e-8
        np.testing.assert_allclose(fwd.hs[-1], h_ref, atol=1e-8)
    _report(5, "scalar recomputation of the full scoring pipeline")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        labels = rng.random(n) < 0.35
        if not labels.any():
            labels[int(rng.integers(n))] = True
        scores = rng.random(n)
        ranking = rank_candidates([(f"w{i}", float(s)) for i, s in enumerate(scores)])
        lab = {f"w{i}": bool(labels[i]) for i in range(n)}
        ranked_labels = [lab[w] for w, _ in ranking]
        assert precision_at_1(ranking, lab) == p1_oracle(ranked_labels)
        assert average_precision(ranking, lab) == ap_oracle(ranked_labels)
        assert reciprocal_rank(ranking, lab) == rr_oracle(ranked_labels)

    for _ in range(100):
        n = int(rng.integers(2, 11))
        scores = rng.random(n)
        labels = rng.random(n) < 0.5
        if not labels.any():
            labels[int(rng.integers(n))] = True
        lab = {f"w{i}": bool(labels[i]) for i in range(n)}
        base = [(f"w{i}", float(s)) for i, s in enumerate(scores)]
        warped = [(w, float(np.expm1(2.0 * s) + 7.0)) for w, s in base]
        r1, r2 = rank_candidates(base), rank_candidates(warped)
        assert [w for w, _ in r1] == [w for w, _ in r2]
        assert average_precision(r1, lab) == average_precision(r2, lab)
        assert reciprocal_rank(r1, lab) == reciprocal_rank(r2, lab)
        assert precision_at_1(r1, lab) == precision_at_1(r2, lab)
    _report(6, "metric oracles exact on 1000 randomized questions")


def test_criterion_7_joint_loss_degeneracy(synthetic_corpus):
    train_c, _, store = synthetic_corpus
    small = train_c.instances[:20]
    from otrank.corpus import Corpus

    corpus = Corpus(instances=small, split="train")
    ft = build_frequency_table(corpus)
    cfg0 = TrainConfig(gamma=0.0, batch_size=16, hidden_size=32, gcn_layers=2,
                       learning_rate=1e-3)
    feats = extract_features(instance_windows(corpus.instances), store, ft,
                             cfg0.sinkhorn_settings())
    params = init_model_params(np.random.default_rng(0), store.dim, 32, 2)

    # Full epoch of batches: gamma = 0 must reproduce the AS2 mean bit-for-bit.
    for lo in range(0, len(feats), cfg0.batch_size):
        batch = feats.take(slice(lo, lo + cfg0.batch_size))
        as2 = float(np.mean([window_forward(batch, k, params).loss_as2
                             for k in range(len(batch))]))
        assert joint_loss(batch, params, cfg0) == as2

    # All-empty MI index sets: any gamma reproduces the AS2 loss bit-for-bit.
    first = feats.take(slice(0, 32))
    neutered = dataclasses.replace(first, labels=np.zeros((len(first), 3), bool))
    cfg_g = TrainConfig(gamma=0.7, batch_size=16, hidden_size=32, gcn_layers=2,
                        learning_rate=1e-3)
    for lo in range(0, len(neutered), 16):
        batch = neutered.take(slice(lo, lo + 16))
        assert joint_loss(batch, params, cfg_g) == joint_loss(batch, params, cfg0)
    _report(7, "joint loss degenerates to the ranking loss")


def test_criterion_8_end_to_end_learning(synthetic_corpus):
    train_c, dev_c, store = synthetic_corpus
    started = time.monotonic()
    cfg = TrainConfig(learning_rate=1e-3, epochs=12, seed=0)  # defaults otherwise
    result = train(train_c, store, cfg, dev_corpus=dev_c)
    elapsed = time.monotonic() - started
    last = result.history[-1]
    assert last.dev_p_at_1 >= 0.9, last
    assert last.dev_map >= 0.9, last
    assert cfg.epochs <= 50
    assert elapsed < 300.0, f"training took {elapsed:.1f}s"
    _report(8, "end-to-end learning on the planted-signal corpus")


def test_criterion_9_mi_effect_witness(synthetic_corpus):
    train_c, _, store = synthetic_corpus
    ft = build_frequency_table(train_c)
    feats = extract_features(instance_windows(train_c.instances), store, ft, SinkhornSettings())

    def mean_mi(params):
        h = forward(feats.reps, feats.costs, params).hs[-1]
        return float(mi_forward(h, WindowPairs.of_labels(feats.labels), params.disc).loss.mean())

    for seed in (0, 1, 2):
        with_mi = train(train_c, store,
                        TrainConfig(learning_rate=1e-3, epochs=6, seed=seed, gamma=0.3))
        without = train(train_c, store,
                        TrainConfig(learning_rate=1e-3, epochs=6, seed=seed, gamma=0.0))
        assert mean_mi(with_mi.final.params) < mean_mi(without.final.params), seed
    _report(9, "regularizer demonstrably shapes representations across 3 seeds")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    train_c, dev_c, store = make_synthetic_corpus(
        n_train=12, n_dev=6, n_candidates=3, dim=8, seed=9
    )
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, seed=21, hidden_size=16,
                      gcn_layers=2, batch_size=8)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, train(train_c, store, cfg, dev_corpus=dev_c).final)
    save_checkpoint(b, train(train_c, store, cfg, dev_corpus=dev_c).final)
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.ckpt"
    save_checkpoint(c, load_checkpoint(a))
    assert a.read_bytes() == c.read_bytes()

    s1 = tmp_path / "emb1.bin"
    s2 = tmp_path / "emb2.bin"
    write_embedding_store(s1, store)
    from otrank.embeddings import load_embedding_store

    write_embedding_store(s2, load_embedding_store(s1))
    assert s1.read_bytes() == s2.read_bytes()
    _report(10, "bit-identical determinism and byte-identical round trips")
