"""Dependency scores, edge weights, GCN, scoring head, window scoring."""

import numpy as np
import pytest

from otrank.embeddings import build_frequency_table
from otrank.model import (
    FFNParams,
    GCNLayer,
    WindowFeatures,
    as2_loss,
    dependency_score,
    edge_weights,
    gcn_forward,
    init_model_params,
    param_tensors,
    score_candidate,
    score_window,
    score_windows,
    window_forward,
)
from otrank.sinkhorn import SinkhornSettings
from otrank.synthetic import make_synthetic_corpus
from otrank.training import extract_corpus_features

from oracles import (
    ffn_scalar_oracle,
    scalar_score_window,
    sigmoid_oracle,
    softmax_oracle,
    window_forward_loop,
)


def zero_ffn(n_in, hidden=4):
    return FFNParams(
        w1=np.zeros((hidden, n_in)), b1=np.zeros(hidden),
        w2=np.zeros((1, hidden)), b2=np.zeros(1),
    )


def random_ffn(rng, n_in, hidden):
    return FFNParams(
        w1=rng.normal(size=(hidden, n_in)), b1=rng.normal(size=hidden),
        w2=rng.normal(size=(1, hidden)), b2=rng.normal(size=1),
    )


class TestDependencyScore:
    def test_zero_parameters_give_zero(self):
        rng = np.random.default_rng(0)
        dep = zero_ffn(6)
        assert dependency_score(rng.normal(size=4), rng.normal(size=4), 1.2, 3.4, dep) == 0.0

    def test_zero_representation_leaves_only_cost_channels(self):
        rng = np.random.default_rng(1)
        dep = random_ffn(rng, 6, 5)
        z = np.zeros(4)
        r = rng.normal(size=4)
        # r_i = 0 annihilates the product; score depends on (d_i, d_j) only.
        a = dependency_score(z, r, 0.7, 0.9, dep)
        b = dependency_score(z, 2 * r, 0.7, 0.9, dep)
        assert a == pytest.approx(b, abs=1e-15)

    def test_matches_dense_math_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dep = random_ffn(rng, 6, 7)
            r_i, r_j = rng.normal(size=4), rng.normal(size=4)
            d_i, d_j = rng.uniform(0, 3, size=2)
            x = list(r_i * r_j) + [d_i, d_j]
            expected = ffn_scalar_oracle(
                x, dep.w1.tolist(), dep.b1.tolist(), dep.w2.tolist(), dep.b2.tolist()
            )
            assert dependency_score(r_i, r_j, d_i, d_j, dep) == pytest.approx(
                expected, abs=1e-10
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dependency_score(np.zeros(3), np.zeros(4), 0.0, 0.0, zero_ffn(5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            dependency_score(np.array([np.nan, 1.0]), np.ones(2), 0.0, 0.0, zero_ffn(4))


class TestEdgeWeights:
    def test_equal_scores(self):
        np.testing.assert_allclose(edge_weights([2.0, 2.0, 2.0]), [1 / 3] * 3, atol=1e-15)

    def test_log_two_closed_form(self):
        np.testing.assert_allclose(
            edge_weights([np.log(2.0), 0.0, 0.0]), [0.5, 0.25, 0.25], atol=1e-15
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=3)
        np.testing.assert_array_equal(edge_weights(u), edge_weights(u + 123.456))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = edge_weights(rng.normal(size=3) * 10)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all((w > 0) & (w < 1))

    def test_matches_softmax_oracle(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=3)
        np.testing.assert_allclose(edge_weights(u), softmax_oracle(list(u)), atol=1e-15)


class TestGcnForward:
    def test_identity_layer_fixes_nonnegative_input(self):
        h0 = np.abs(np.random.default_rng(6).normal(size=(3, 4)))
        gcn = [GCNLayer(w=np.eye(4), b=np.zeros(4))]
        np.testing.assert_allclose(gcn_forward(np.eye(3), h0, gcn), h0, atol=1e-15)

    def test_large_negative_bias_saturates_to_zero(self):
        rng = np.random.default_rng(7)
        h0 = rng.normal(size=(3, 4))
        alpha = np.full((3, 3), 1 / 3)
        gcn = [GCNLayer(w=rng.normal(size=(4, 4)), b=np.full(4, -1e6))]
        np.testing.assert_array_equal(gcn_forward(alpha, h0, gcn), np.zeros((3, 4)))

    def test_matches_per_node_summation_oracle(self):
        rng = np.random.default_rng(8)
        d = 4
        h0 = rng.normal(size=(3, d))
        alpha = np.stack([softmax_oracle(list(rng.normal(size=3))) for _ in range(3)])
        layers = [GCNLayer(w=rng.normal(size=(d, d)), b=rng.normal(size=d)) for _ in range(2)]
        got = gcn_forward(alpha, h0, layers)
        h = h0.tolist()
        for layer in layers:
            agg = [
                [sum(alpha[i][j] * h[j][t] for j in range(3)) for t in range(d)]
                for i in range(3)
            ]
            h = [
                [
                    max(sum(layer.w[k][t] * agg[i][t] for t in range(d)) + layer.b[k], 0.0)
                    for k in range(d)
                ]
                for i in range(3)
            ]
        np.testing.assert_allclose(got, h, atol=1e-10)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(9)
        layers = [GCNLayer(w=rng.normal(size=(5, 5)), b=rng.normal(size=5)) for _ in range(3)]
        alpha = np.stack([softmax_oracle(list(rng.normal(size=3))) for _ in range(3)])
        out = gcn_forward(alpha, rng.normal(size=(3, 5)), layers)
        assert np.all(out >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gcn_forward(np.eye(2), np.zeros((3, 4)), [GCNLayer(np.eye(4), np.zeros(4))])


class TestScoreCandidate:
    def test_zero_parameters_give_half(self):
        assert score_candidate(np.ones(4), zero_ffn(4)) == 0.5

    def test_large_logit_stays_below_one(self):
        head = zero_ffn(2)
        head.b2[0] = 20.0
        p = score_candidate(np.zeros(2), head)
        assert p < 1.0
        assert 1.0 - p <= 1e-8

    def test_matches_sigmoid_oracle(self):
        rng = np.random.default_rng(10)
        head = random_ffn(rng, 4, 6)
        h1 = rng.normal(size=4)
        z = ffn_scalar_oracle(
            list(h1), head.w1.tolist(), head.b1.tolist(), head.w2.tolist(), head.b2.tolist()
        )
        assert score_candidate(h1, head) == pytest.approx(sigmoid_oracle(z), abs=1e-12)

    def test_strictly_interior(self):
        rng = np.random.default_rng(11)
        head = random_ffn(rng, 3, 4)
        head.b2[0] = 500.0  # saturating logit
        p = score_candidate(rng.normal(size=3), head)
        assert 0.0 < p < 1.0


class TestAs2Loss:
    def test_half_is_log_two(self):
        assert as2_loss(0.5, True) == pytest.approx(np.log(2.0), abs=1e-15)
        assert as2_loss(0.5, False) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_point_nine_true(self):
        assert as2_loss(0.9, True) == pytest.approx(-np.log(0.9), abs=1e-15)

    def test_batch_mean_rule(self):
        a, b = as2_loss(0.9, True), as2_loss(0.2, False)
        assert np.mean([a, b]) == pytest.approx((a + b) / 2.0, abs=1e-16)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            as2_loss(0.0, True)
        with pytest.raises(ValueError):
            as2_loss(1.0, False)


def make_features(rng, dim, labels=(True, False, None)):
    return WindowFeatures(
        question_id="q",
        window_id="w",
        reps=rng.normal(size=(3, dim)),
        costs=rng.uniform(0.2, 2.5, size=3),
        labels=labels,
    )


class TestWindowForward:
    def test_alpha_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        params = init_model_params(rng, dim=5, hidden=7, layers=2)
        fwd = window_forward(make_features(rng, 5), params)
        np.testing.assert_allclose(fwd.alpha.sum(axis=1), np.ones(3), atol=1e-12)

    def test_purity(self):
        rng = np.random.default_rng(13)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        feats = make_features(rng, 4)
        assert window_forward(feats, params).p == window_forward(feats, params).p

    def test_all_padding_contexts_finite(self):
        rng = np.random.default_rng(14)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        feats = WindowFeatures(
            question_id="q", window_id="w",
            reps=np.vstack([rng.normal(size=(1, 4)), np.zeros((2, 4))]),
            costs=np.array([1.3, 0.0, 0.0]),
            labels=(True, None, None),
        )
        fwd = window_forward(feats, params)
        assert np.isfinite(fwd.p) and 0 < fwd.p < 1
        assert np.all(np.isfinite(fwd.hs[-1]))

    def test_swapping_identical_contexts_changes_nothing(self):
        rng = np.random.default_rng(15)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        ctx = rng.normal(size=4)
        reps = np.stack([rng.normal(size=4), ctx, ctx.copy()])
        costs = np.array([1.0, 0.8, 0.8])
        feats = WindowFeatures("q", "w", reps, costs, (True, False, False))
        swapped = WindowFeatures(
            "q", "w", reps[[0, 2, 1]].copy(), costs[[0, 2, 1]].copy(), (True, False, False)
        )
        assert window_forward(feats, params).p == window_forward(swapped, params).p

    def test_matches_scalar_recomputation(self):
        # Straight-line scalar replay of the scoring stage, d <= 4.
        rng = np.random.default_rng(16)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            hidden = int(rng.integers(3, 9))
            params = init_model_params(rng, dim=d, hidden=hidden, layers=2)
            for t in param_tensors(params).values():
                t += rng.normal(size=t.shape) * 0.3
            feats = make_features(rng, d)
            fwd = window_forward(feats, params)
            dep = (params.dep.w1.tolist(), params.dep.b1.tolist(),
                   params.dep.w2.tolist(), params.dep.b2.tolist())
            head = (params.head.w1.tolist(), params.head.b1.tolist(),
                    params.head.w2.tolist(), params.head.b2.tolist())
            layers = [(l.w.tolist(), l.b.tolist()) for l in params.gcn]
            p_ref, h_ref = scalar_score_window(
                feats.reps.tolist(), feats.costs.tolist(), dep, layers, head
            )
            assert fwd.p == pytest.approx(p_ref, abs=1e-8)
            np.testing.assert_allclose(fwd.hs[-1], h_ref, atol=1e-8)


class TestScoreWindow:
    def test_golden_fixture_score(self, tiny_corpus, tiny_store, tiny_ft):
        # Frozen from the reference run (params seed 7, dim 4, hidden 5, L 2).
        inst = tiny_corpus.instances[0]
        params = init_model_params(np.random.default_rng(7), dim=4, hidden=5, layers=2)
        p, h_final, fwd = score_window(
            inst.question, inst.windows[0], "q1", tiny_store, tiny_ft, params,
            SinkhornSettings(),
        )
        assert p == pytest.approx(0.49573228692785337, abs=1e-9)
        np.testing.assert_allclose(
            h_final[0],
            [0.0, 0.25857426526681593, 0.09300037485955694, 0.0],
            atol=1e-9,
        )
        assert fwd.loss_as2 == pytest.approx(-np.log(p), abs=1e-12)

    def test_identical_windows_identical_scores(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[0]
        params = init_model_params(np.random.default_rng(8), dim=4, hidden=5, layers=2)
        args = (inst.question, inst.windows[0], "q1", tiny_store, tiny_ft, params)
        assert score_window(*args)[0] == score_window(*args)[0]

    def test_window_with_padding_context(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[1]
        params = init_model_params(np.random.default_rng(9), dim=4, hidden=5, layers=2)
        p, h_final, _ = score_window(
            inst.question, inst.windows[0], "q2", tiny_store, tiny_ft, params
        )
        assert 0 < p < 1
        assert np.all(np.isfinite(h_final))


class TestBatchedScores:
    def test_wide_split_bitwise_equal_to_per_window_loop(self):
        # BERT width: 60 windows at d=768, scored in several stacked chunks.
        corpus, _, store = make_synthetic_corpus(n_train=12, n_dev=1, n_candidates=5,
                                                 dim=768, seed=4)
        feats = extract_corpus_features(corpus, store, build_frequency_table(corpus),
                                        SinkhornSettings())
        params = init_model_params(np.random.default_rng(6), dim=768, hidden=400, layers=2)
        scores = score_windows(feats, params)
        assert len(scores) == len(feats) == 60
        for f, p in zip(feats, scores):
            assert p == window_forward_loop(f, params).p

    def test_empty_list_scores_nothing(self):
        params = init_model_params(np.random.default_rng(0), dim=4, hidden=5, layers=1)
        assert score_windows([], params).shape == (0,)
