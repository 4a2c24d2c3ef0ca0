"""The stacked scoring pass: edge scores, edge weights, GCN, head, window scoring."""

import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from otrank import model, sinkhorn
from otrank.corpus import CandidateWindow, make_sentence, padding_sentence
from otrank.embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_Q,
    EmbeddingStore,
    FrequencyTable,
    build_frequency_table,
    load_embedding_store,
    write_embedding_store,
)
from otrank.model import (
    FORWARD_CHUNK,
    NODE_ROLES,
    AlignmentStats,
    FeatureSet,
    FFNParams,
    GCNLayer,
    align_windows,
    alignment_stats,
    extract_features,
    forward,
    init_model_params,
    instance_windows,
    param_tensors,
    score_windows,
    scorer_size,
    store_keys,
    window_forward,
    window_pairs,
)
from otrank.sinkhorn import SinkhornSettings, align_sentences
from otrank.synthetic import make_synthetic_corpus
from otrank.training import TrainConfig, joint_loss

from oracles import (
    Window,
    feature_set,
    ffn_scalar_oracle,
    named_tensors,
    scalar_score_window,
    sigmoid_oracle,
    softmax_oracle,
    window_forward_loop,
    window_records,
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


def random_params(rng, d, hidden=5, layers=2):
    params = init_model_params(rng, dim=d, hidden=hidden, layers=layers)
    params.dep = random_ffn(rng, d + 2, hidden)
    params.head = random_ffn(rng, d, hidden)
    return params


def run(reps, costs, params):
    """One window through the stacked pass."""
    return forward(np.asarray(reps, dtype=np.float64)[None],
                   np.asarray(costs, dtype=np.float64)[None], params)


def cost_only_dep(d, hidden, w1_costs, b1, w2):
    """A dependency FFN that reads only the two cost channels of an edge."""
    w1 = np.zeros((hidden, d + 2))
    w1[:, d:] = w1_costs
    return FFNParams(w1=w1, b1=np.asarray(b1, dtype=np.float64),
                     w2=np.asarray([w2], dtype=np.float64), b2=np.zeros(1))


class TestParameterLayout:
    def test_named_views_tile_the_flat_buffer_in_declaration_order(self):
        params = init_model_params(np.random.default_rng(0), dim=5, hidden=7, layers=3)
        tensors = param_tensors(params)
        fields = named_tensors(params)
        assert list(tensors) == list(fields)
        start = params.flat.__array_interface__["data"][0]
        offset = 0
        for name, t in tensors.items():
            assert t.__array_interface__["data"][0] == start + 8 * offset, name
            assert t.flags.c_contiguous and t.shape == fields[name].shape, name
            assert np.shares_memory(fields[name], t), name
            offset += t.size
        assert params.flat.shape == (offset,) and params.flat.flags.c_contiguous
        assert params.flat.tobytes() == b"".join(t.tobytes() for t in tensors.values())

    @pytest.mark.parametrize("dim,hidden,layers", [
        (1, 1, 1), (3, 4, 2), (5, 7, 3), (16, 400, 2), (768, 400, 2), (2, 9, 40)])
    def test_scorer_size_is_the_layout_before_the_discriminator(self, dim, hidden, layers):
        # A checkpoint holds the leading scorer_size floats of the flat buffer: every
        # tensor but the discriminator, which the layout puts last.
        layout = model._layout(dim, hidden, layers)
        names = [name for name, _ in layout]
        assert names[-4:] == ["disc.w1", "disc.b1", "disc.w2", "disc.b2"]
        assert not [name for name in names[:-4] if name.startswith("disc.")]
        assert scorer_size(dim, hidden, layers) == sum(
            math.prod(shape) for name, shape in layout[:-4])

    def test_no_graph_layer_is_rejected(self):
        with pytest.raises(ValueError, match="at least one graph-convolution layer"):
            init_model_params(np.random.default_rng(0), dim=3, hidden=4, layers=0)

    def test_a_buffer_of_another_size_is_rejected(self):
        params = init_model_params(np.random.default_rng(0), dim=3, hidden=4, layers=1)
        with pytest.raises(ValueError, match="does not hold"):
            params.like(np.zeros(params.flat.size + 1))


class TestDependencyScore:
    def test_zero_parameters_give_zero(self):
        rng = np.random.default_rng(0)
        params = init_model_params(rng, dim=4, hidden=4, layers=1)
        params.dep = zero_ffn(6)
        u = run(rng.normal(size=(3, 4)), [1.2, 3.4, 0.5], params).u[0]
        np.testing.assert_array_equal(u, np.zeros((3, 3)))

    def test_zero_representation_leaves_only_cost_channels(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 4)
        reps = np.vstack([np.zeros(4), rng.normal(size=(2, 4))])
        costs = [0.7, 0.9, 1.1]
        # r_0 = 0 annihilates the products of row 0; its scores depend on the costs only.
        a = run(reps, costs, params).u[0, 0]
        scaled = reps.copy()
        scaled[1:] *= 2.0
        b = run(scaled, costs, params).u[0, 0]
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_matches_dense_math_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            params = random_params(rng, 4, hidden=7)
            reps, costs = rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3)
            u = run(reps, costs, params).u[0]
            dep = [t.tolist() for t in (params.dep.w1, params.dep.b1, params.dep.w2,
                                        params.dep.b2)]
            for i in range(3):
                for j in range(3):
                    x = list(reps[i] * reps[j]) + [costs[i], costs[j]]
                    assert u[i, j] == pytest.approx(ffn_scalar_oracle(x, *dep), abs=1e-10)


class TestEdgeWeights:
    def test_equal_scores(self):
        rng = np.random.default_rng(3)
        params = init_model_params(rng, dim=4, hidden=4, layers=1)
        params.dep = zero_ffn(6)
        params.dep.b2[0] = 2.0
        alpha = run(rng.normal(size=(3, 4)), [1.0, 2.0, 3.0], params).alpha[0]
        np.testing.assert_allclose(alpha, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_log_two_closed_form(self):
        # One hidden unit relu(d_i + d_j - 1.5) with costs (1, 0, 0) fires only on
        # edge (0, 0), so row 0 of the scores is (log 2, 0, 0).
        params = init_model_params(np.random.default_rng(4), dim=2, hidden=1, layers=1)
        params.dep = cost_only_dep(2, 1, [[1.0, 1.0]], [-1.5], [2.0 * np.log(2.0)])
        alpha = run(np.ones((3, 2)), [1.0, 0.0, 0.0], params).alpha[0]
        np.testing.assert_allclose(alpha[0], [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(alpha[1:], np.full((2, 3), 1 / 3), atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 4)
        reps, costs = rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3)
        before = run(reps, costs, params)
        params.dep.b2[0] += 123.456
        after = run(reps, costs, params)
        np.testing.assert_allclose(after.u[0] - before.u[0], np.full((3, 3), 123.456),
                                   atol=1e-12)
        # The shifted scores carry the rounding of the addition, hence not bitwise.
        np.testing.assert_allclose(after.alpha[0], before.alpha[0], rtol=0, atol=1e-13)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 4)
        fwd = forward(rng.normal(size=(50, 3, 4)), rng.uniform(0, 3, size=(50, 3)), params)
        assert np.max(np.abs(fwd.alpha.sum(axis=2) - 1.0)) <= 1e-12
        assert np.all((fwd.alpha > 0) & (fwd.alpha < 1))

    def test_matches_softmax_oracle(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 4)
        fwd = run(rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3), params)
        for i in range(3):
            np.testing.assert_allclose(fwd.alpha[0, i], softmax_oracle(list(fwd.u[0, i])),
                                       atol=1e-15)


class TestGcnForward:
    def test_identity_layer_fixes_nonnegative_input(self):
        rng = np.random.default_rng(8)
        params = init_model_params(rng, dim=4, hidden=4, layers=1)
        # Edge scores -1e4 * |d_i - d_j|: with distinct costs, alpha is exactly the identity.
        params.dep = cost_only_dep(4, 2, [[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0], [-1e4, -1e4])
        params.gcn = [GCNLayer(w=np.eye(4), b=np.zeros(4))]
        h0 = np.abs(rng.normal(size=(3, 4)))
        fwd = run(h0, [0.0, 1.0, 2.0], params)
        np.testing.assert_array_equal(fwd.alpha[0], np.eye(3))
        np.testing.assert_allclose(fwd.hs[-1][0], h0, atol=1e-15)

    def test_large_negative_bias_saturates_to_zero(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 4)
        params.gcn[-1].b[...] = -1e6
        fwd = run(rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3), params)
        np.testing.assert_array_equal(fwd.hs[-1][0], np.zeros((3, 4)))

    def test_matches_per_node_summation_oracle(self):
        rng = np.random.default_rng(10)
        d = 4
        params = random_params(rng, d)
        for layer in params.gcn:
            layer.w[...] = rng.normal(size=(d, d))
            layer.b[...] = rng.normal(size=d)
        fwd = run(rng.normal(size=(3, d)), rng.uniform(0, 3, size=3), params)
        alpha = fwd.alpha[0]
        h = fwd.hs[0][0].tolist()
        for layer, got in zip(params.gcn, fwd.hs[1:]):
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
            np.testing.assert_allclose(got[0], h, atol=1e-10)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, 5, layers=3)
        for layer in params.gcn:
            layer.w[...] = rng.normal(size=(5, 5))
            layer.b[...] = rng.normal(size=5)
        fwd = forward(rng.normal(size=(20, 3, 5)), rng.uniform(0, 3, size=(20, 3)), params)
        assert all(np.all(h >= 0) for h in fwd.hs[1:])


class TestScoreCandidate:
    def test_zero_parameters_give_half(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 4)
        params.head = zero_ffn(4)
        fwd = run(rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3), params)
        assert fwd.logit[0] == 0.0 and fwd.p[0] == 0.5

    def test_large_logit_stays_below_one(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, 2)
        params.head = zero_ffn(2)
        params.head.b2[0] = 20.0
        p = run(rng.normal(size=(3, 2)), rng.uniform(0, 3, size=3), params).p[0]
        assert p < 1.0
        assert 1.0 - p <= 1e-8

    def test_matches_sigmoid_oracle(self):
        rng = np.random.default_rng(14)
        params = random_params(rng, 4, hidden=6)
        fwd = run(rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3), params)
        head = [t.tolist() for t in (params.head.w1, params.head.b1, params.head.w2,
                                     params.head.b2)]
        z = ffn_scalar_oracle(list(fwd.hs[-1][0, 0]), *head)
        assert fwd.logit[0] == pytest.approx(z, abs=1e-12)
        assert fwd.p[0] == pytest.approx(sigmoid_oracle(z), abs=1e-12)

    def test_strictly_interior(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, 3)
        reps, costs = rng.normal(size=(3, 3)), rng.uniform(0, 3, size=3)
        for bias in (500.0, -800.0):  # saturating logits
            params.head.b2[0] = bias
            assert 0.0 < run(reps, costs, params).p[0] < 1.0


class TestAs2Loss:
    def _window(self, rng, label, logit):
        params = random_params(rng, 4)
        params.head = zero_ffn(4)
        params.head.b2[0] = logit
        feats = feature_set([Window(rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3),
                                    (label, None, None))])
        return feats, params

    def test_half_is_log_two(self):
        rng = np.random.default_rng(16)
        for label in (True, False):
            feats, params = self._window(rng, label, 0.0)
            assert window_forward(feats, 0, params).p == 0.5
            assert window_forward(feats, 0, params).loss_as2 == pytest.approx(np.log(2.0),
                                                                              abs=1e-15)

    def test_point_nine_true(self):
        feats, params = self._window(np.random.default_rng(17), True, np.log(9.0))
        fwd = window_forward(feats, 0, params)
        assert fwd.p == pytest.approx(0.9, abs=1e-15)
        assert fwd.loss_as2 == pytest.approx(-np.log(0.9), abs=1e-15)

    def test_batch_mean_rule(self):
        rng = np.random.default_rng(18)
        params = random_params(rng, 4)
        batch = feature_set([Window(rng.normal(size=(3, 4)), rng.uniform(0, 3, size=3),
                                    (label, None, None)) for label in (True, False)])
        a, b = (window_forward(batch, k, params).loss_as2 for k in range(2))
        cfg = TrainConfig(gamma=0.0, hidden_size=5, gcn_layers=2)
        assert joint_loss(batch, params, cfg) == pytest.approx((a + b) / 2.0, abs=1e-16)


def make_features(rng, dim, labels=(True, False, None)):
    return feature_set([Window(reps=rng.normal(size=(3, dim)),
                               costs=rng.uniform(0.2, 2.5, size=3), labels=labels)])


class TestWindowForward:
    def test_alpha_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        params = init_model_params(rng, dim=5, hidden=7, layers=2)
        fwd = window_forward(make_features(rng, 5), 0, params)
        np.testing.assert_allclose(fwd.alpha.sum(axis=1), np.ones(3), atol=1e-12)

    def test_purity(self):
        rng = np.random.default_rng(13)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        feats = make_features(rng, 4)
        assert window_forward(feats, 0, params).p == window_forward(feats, 0, params).p

    def test_all_padding_contexts_finite(self):
        rng = np.random.default_rng(14)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        feats = feature_set([Window(
            reps=np.vstack([rng.normal(size=(1, 4)), np.zeros((2, 4))]),
            costs=np.array([1.3, 0.0, 0.0]),
            labels=(True, None, None),
        )])
        fwd = window_forward(feats, 0, params)
        assert np.isfinite(fwd.p) and 0 < fwd.p < 1
        assert np.all(np.isfinite(fwd.hs[-1]))

    def test_swapping_identical_contexts_changes_nothing(self):
        rng = np.random.default_rng(15)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        ctx = rng.normal(size=4)
        reps = np.stack([rng.normal(size=4), ctx, ctx.copy()])
        costs = np.array([1.0, 0.8, 0.8])
        feats = feature_set([Window(reps, costs, (True, False, False))])
        swapped = feature_set([Window(reps[[0, 2, 1]].copy(), costs[[0, 2, 1]].copy(),
                                      (True, False, False))])
        assert window_forward(feats, 0, params).p == window_forward(swapped, 0, params).p

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
            fwd = window_forward(feats, 0, params)
            dep = (params.dep.w1.tolist(), params.dep.b1.tolist(),
                   params.dep.w2.tolist(), params.dep.b2.tolist())
            head = (params.head.w1.tolist(), params.head.b1.tolist(),
                    params.head.w2.tolist(), params.head.b2.tolist())
            layers = [(l.w.tolist(), l.b.tolist()) for l in params.gcn]
            p_ref, h_ref = scalar_score_window(
                feats.reps[0].tolist(), feats.costs[0].tolist(), dep, layers, head
            )
            assert fwd.p == pytest.approx(p_ref, abs=1e-8)
            np.testing.assert_allclose(fwd.hs[-1], h_ref, atol=1e-8)


def tiny_window_features(store, ft, inst, window=0, copies=1):
    return extract_features([(inst.question, inst.windows[window], inst.question_id)] * copies,
                            store, ft, SinkhornSettings())


class TestScoreWindow:
    def test_golden_fixture_score(self, tiny_corpus, tiny_store, tiny_ft):
        # Frozen from the reference run (params seed 7, dim 4, hidden 5, L 2).
        inst = tiny_corpus.instances[0]
        params = init_model_params(np.random.default_rng(7), dim=4, hidden=5, layers=2)
        fwd = window_forward(tiny_window_features(tiny_store, tiny_ft, inst), 0, params)
        p, h_final = fwd.p, fwd.hs[-1]
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
        feats = tiny_window_features(tiny_store, tiny_ft, inst, copies=2)
        a, b = score_windows(feats, params)
        assert a == b

    def test_window_with_padding_context(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[1]
        params = init_model_params(np.random.default_rng(9), dim=4, hidden=5, layers=2)
        fwd = window_forward(tiny_window_features(tiny_store, tiny_ft, inst), 0, params)
        assert 0 < fwd.p < 1
        assert np.all(np.isfinite(fwd.hs[-1]))


class TestBatchedScores:
    def test_wide_split_bitwise_equal_to_per_window_loop(self):
        # BERT width: 60 windows at d=768, scored in several stacked chunks.
        corpus, _, store = make_synthetic_corpus(n_train=12, n_dev=1, n_candidates=5,
                                                 dim=768, seed=4)
        feats = extract_features(instance_windows(corpus.instances), store,
                                 build_frequency_table(corpus), SinkhornSettings())
        params = init_model_params(np.random.default_rng(6), dim=768, hidden=400, layers=2)
        scores = score_windows(feats, params)
        assert len(scores) == len(feats) == 60
        for w, p in zip(window_records(feats), scores):
            assert p == window_forward_loop(w, params).p

    def test_empty_set_scores_nothing(self, tiny_store, tiny_ft):
        feats = extract_features([], tiny_store, tiny_ft)
        assert feats.reps.shape == (0, 3, tiny_store.dim)
        assert feats.costs.shape == feats.labels.shape == (0, 3)
        params = init_model_params(np.random.default_rng(0), dim=4, hidden=5, layers=1)
        assert score_windows(feats, params).shape == (0,)

    def test_labels_other_than_an_answer_mask_are_rejected(self):
        # Label codes of -1/0/1 would index the regularizer's pair table with -1.
        for labels in (np.array([[1, 0, -1]], np.int8), np.ones((1, 3))):
            with pytest.raises(ValueError, match="labels"):
                FeatureSet(reps=np.zeros((1, 3, 2)), costs=np.zeros((1, 3)), labels=labels)


class TestNeighbourIndependence:
    # Flat GEMMs over a chunk may round a row by its position, never by the other
    # rows' values. At (40, 7) some scores differ from scoring alone in the last bits.
    @pytest.mark.parametrize("dim,hidden", [(768, 400), (40, 7)])
    def test_score_ignores_the_other_windows(self, dim, hidden):
        rng = np.random.default_rng(dim)
        params = init_model_params(rng, dim, hidden, 2)
        n = FORWARD_CHUNK
        feats = FeatureSet(reps=rng.normal(size=(n, 3, dim)),
                           costs=rng.uniform(0.2, 2.0, size=(n, 3)),
                           labels=np.zeros((n, 3), bool))
        p = score_windows(feats, params)
        assert p.tobytes() == score_windows(feats, params).tobytes()
        for kept in (0, 1):  # replace every other window: the odd ones, then the even ones
            reps, costs = feats.reps.copy(), feats.costs.copy()
            reps[1 - kept::2] = rng.normal(size=reps[1 - kept::2].shape)
            costs[1 - kept::2] = rng.uniform(0.2, 2.0, size=costs[1 - kept::2].shape)
            q = score_windows(FeatureSet(reps=reps, costs=costs, labels=feats.labels), params)
            assert q[kept::2].tobytes() == p[kept::2].tobytes()
            assert not np.array_equal(q[1 - kept::2], p[1 - kept::2])


class TestAlignmentStats:
    def test_summarises_every_plan(self, tiny_corpus, tiny_store, tiny_ft):
        items = instance_windows(tiny_corpus.instances)
        groups = align_windows(items, tiny_store, tiny_ft, SinkhornSettings(max_iter=80)).groups
        plans = [grp.plan(b) for grp in groups for b in range(len(grp.members))]
        iters = [tp.iterations_used for tp in plans]
        stats = alignment_stats(groups)
        assert 0 < stats.unconverged < stats.count == len(plans)
        assert stats.unconverged == sum(not tp.converged for tp in plans)
        assert (stats.iterations_p50, stats.iterations_p95) == tuple(np.percentile(iters, [50, 95]))
        assert stats.iterations_max == max(iters)
        assert stats.worst_violation == max(tp.violation for tp in plans if tp.converged)

    def test_unconverged_alignments_warn_once_naming_their_keys(self, tiny_corpus, tiny_store,
                                                                tiny_ft, caplog):
        items = instance_windows(tiny_corpus.instances)
        with caplog.at_level(logging.WARNING):
            groups = align_windows(items, tiny_store, tiny_ft, SinkhornSettings(max_iter=3)).groups
        stalled = sorted(int(k) for grp in groups for k in grp.members[~grp.converged])
        assert len(stalled) > model._NAMED_UNCONVERGED
        [record] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert record.name == "otrank.model"
        message = record.getMessage()
        assert message.startswith(f"{len(stalled)} sentence alignments did not converge")
        keys = []
        for k in stalled[:model._NAMED_UNCONVERGED]:
            _, window, qid = items[k // 3]
            keys.append(str((qid, window.id, NODE_ROLES[k % 3])))
        assert message.endswith(", ".join(keys))
        assert len(re.findall(r"\('[^']*', '[^']*', '[^']*'\)", message)) == len(keys)

    def test_empty_batch(self):
        assert alignment_stats([]) == AlignmentStats(count=0, iterations_p50=0.0,
                                                     iterations_p95=0.0, iterations_max=0,
                                                     unconverged=0, worst_violation=0.0)


class TestQuestionSide:
    def test_prepared_once_per_question(self, tiny_corpus, tiny_store, tiny_ft, monkeypatch):
        lookups, filtered = [], []
        lookup, content = tiny_store.span, sinkhorn.content_token_indices

        def counted_lookup(instance_id, window_id, role):
            lookups.append(role)
            return lookup(instance_id, window_id, role)

        def counted_content(sent):
            filtered.append(sent)
            return content(sent)

        monkeypatch.setattr(tiny_store, "span", counted_lookup)
        monkeypatch.setattr(sinkhorn, "content_token_indices", counted_content)
        items = instance_windows(tiny_corpus.instances)
        extract_features(items, tiny_store, tiny_ft)
        sentences = sum(not s.is_padding for _, w, _ in items for s in (w.cand, w.prev, w.next))
        assert len(items) > len(tiny_corpus.instances)
        assert lookups.count(ROLE_Q) == len(tiny_corpus.instances)
        assert len(lookups) == len(tiny_corpus.instances) + sentences
        for inst in tiny_corpus.instances:
            assert sum(sent is inst.question for sent in filtered) == 1

    @pytest.mark.parametrize("which", [slice(None), slice(0, 1), slice(1, 2), slice(0, 0)])
    def test_store_keys_are_the_keys_looked_up(self, which, tiny_corpus, tiny_store, tiny_ft,
                                               monkeypatch):
        looked_up = set()
        lookup = tiny_store.span

        def recorded(*key):
            looked_up.add(key)
            return lookup(*key)

        monkeypatch.setattr(tiny_store, "span", recorded)
        items = instance_windows(tiny_corpus.instances)[which]
        align_windows(items, tiny_store, tiny_ft)
        assert store_keys(items) == looked_up

    def test_keyed_on_the_question_object_not_its_id(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[0]
        # Same token count as the stored question, other content words.
        other = make_sentence("Which moons orbit the big planet ?")
        assert len(other.tokens) == len(inst.question.tokens)
        w = inst.windows[0]
        both = extract_features([(inst.question, w, inst.question_id),
                                 (other, w, inst.question_id)], tiny_store, tiny_ft)
        for k, question in enumerate((inst.question, other)):
            alone = extract_features([(question, w, inst.question_id)], tiny_store, tiny_ft)
            np.testing.assert_array_equal(both.reps[k], alone.reps[0], strict=True)
            np.testing.assert_array_equal(both.costs[k], alone.costs[0], strict=True)
        assert not np.array_equal(both.costs[0], both.costs[1])


class TestAlignmentMemory:
    def test_one_copy_of_the_content_rows(self, tmp_path):
        # Every pair has one (n, m) shape, so a second copy of the split's
        # content rows would be a whole extra stack. Vectors come from a loaded
        # store, as float32 views of its bytes.
        d, n, m, questions, windows = 768, 4, 6, 20, 4
        rng = np.random.default_rng(7)
        store = EmbeddingStore(dim=d)
        items = []
        for q in range(questions):
            qid = f"q{q}"
            question = make_sentence(" ".join(f"topic{q}x{i}" for i in range(n)))
            store.add_sentence(qid, QUESTION_WINDOW_ID, ROLE_Q, rng.normal(size=(n, d)))
            for w in range(windows):
                wid = f"{qid}-w{w}"
                sents = [make_sentence(" ".join(f"word{i}" for i in rng.integers(50, size=m)))
                         for _ in NODE_ROLES]
                for role in NODE_ROLES:
                    store.add_sentence(qid, wid, role, rng.normal(size=(m, d)))
                items.append((question, CandidateWindow(wid, *sents), qid))
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        loaded = load_embedding_store(path)
        ft = FrequencyTable(counts={}, num_questions=1)

        pairs = 3 * len(items)
        content = pairs * m * d * 8  # the float64 content rows
        # The cost build's question stack and its (B, m, d) difference buffer.
        scratch = pairs * n * d * 8 + content
        tracemalloc.start()
        try:
            align_windows(items, loaded, ft)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < content + scratch + content // 2, (peak, content, scratch)

    def test_peak_is_one_shape_not_the_split(self, tmp_path):
        # Four (n, m) shapes of one size each: only one shape's two stacks (and the
        # float32 take that one of them is widened from) are alive at any time, so
        # the peak stays below the split's content rows.
        d, per_shape = 768, 24
        rng = np.random.default_rng(8)
        store = EmbeddingStore(dim=d)
        items, shapes = [], [(n, m) for n in (3, 5) for m in (8, 12)]
        for q, (n, m) in enumerate(s for s in shapes for _ in range(per_shape // 3)):
            qid = f"q{q}"
            question = make_sentence(" ".join(f"topic{q}x{i}" for i in range(n)))
            store.add_sentence(qid, QUESTION_WINDOW_ID, ROLE_Q, rng.normal(size=(n, d)))
            sents = [make_sentence(" ".join(f"word{i}" for i in rng.permutation(50)[:m]))
                     for _ in NODE_ROLES]
            for role in NODE_ROLES:
                store.add_sentence(qid, "w", role, rng.normal(size=(m, d)))
            items.append((question, CandidateWindow("w", *sents), qid))
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        loaded = load_embedding_store(path)
        ft = FrequencyTable(counts={}, num_questions=1)

        largest = max(per_shape * (n * d * 8 + m * d * 12) for n, m in shapes)
        costs = sum(per_shape * n * m * 8 for n, m in shapes)
        reps = len(items) * 3 * d * 8
        content = sum(per_shape * (n + m) * d * 8 for n, m in shapes)
        bound = largest + costs + sinkhorn._COST_BLOCK_BYTES + reps
        assert bound < content
        tracemalloc.start()
        try:
            alignments = align_windows(items, loaded, ft)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(alignments.groups) == len(shapes)
        assert peak < bound, (peak, bound, content)


def _with_padding(items):
    """``items`` with the prev sentence of every third window and the next of
    every fifth replaced by padding."""
    out = []
    for k, (question, window, qid) in enumerate(items):
        if k % 3 == 0:
            window = dataclasses.replace(window, prev=padding_sentence())
        if k % 5 == 0:
            window = dataclasses.replace(window, next=padding_sentence())
        out.append((question, window, qid))
    return out


class TestStoreRowsEqualLooseArrays:
    """Alignment reads a loaded store's rows by row number from its one float32
    matrix; a store built by ``add_sentence`` from float64 copies of those rows,
    under the same keys, gives the same bits."""

    @pytest.mark.parametrize("dim", [16, 768])
    def test_align_windows_equals_loose_float64_arrays(self, dim, tmp_path):
        train, _, store = make_synthetic_corpus(n_train=6, n_dev=0, n_candidates=4, dim=dim,
                                                seed=3)
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        items = _with_padding(instance_windows(train.instances))
        loaded = load_embedding_store(path, store_keys(items))
        wide = EmbeddingStore(dim=dim)
        for key, rows in loaded.sorted_items():
            wide.add_sentence(*key, np.array(rows, np.float64))
        assert (loaded.matrix.dtype, wide.matrix.dtype) == (np.float32, np.float64)
        ft = build_frequency_table(train)
        got = align_windows(items, loaded, ft)
        pairs = list(window_pairs(items))
        want = align_sentences(wide, pairs, ft)

        assert len(got.groups) > 4 and len(got) == len(want) == 3 * len(items)
        assert sum(s.is_padding for _, s, _, _ in pairs) > 0
        assert got.reps.tobytes() == want.reps.tobytes()
        assert got.costs.tobytes() == want.costs.tobytes()
        for a, b in zip(got, want):
            assert a.plan.plan.tobytes() == b.plan.plan.tobytes()
            assert (a.plan.iterations_used, a.plan.converged) == (b.plan.iterations_used,
                                                                  b.plan.converged)
            assert _bits(a.plan.violation) == _bits(b.plan.violation)
            assert _bits(a.cost) == _bits(b.cost)
            assert a.relevant == b.relevant
            assert a.representation.tobytes() == b.representation.tobytes()


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()
