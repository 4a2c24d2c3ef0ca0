"""The stacked scoring pass: edge scores, edge weights, GCN, head, window scoring."""

import numpy as np
import pytest

from otrank import sinkhorn
from otrank.corpus import ROLE_QUESTION, content_token_indices, make_sentence
from otrank.embeddings import ROLE_Q, build_frequency_table
from otrank.model import (
    FORWARD_CHUNK,
    FeatureSet,
    FFNParams,
    GCNLayer,
    extract_features,
    forward,
    init_model_params,
    instance_windows,
    param_tensors,
    score_windows,
    window_forward,
)
from otrank.sinkhorn import SinkhornSettings
from otrank.synthetic import make_synthetic_corpus
from otrank.training import TrainConfig, joint_loss

from oracles import (
    Window,
    feature_set,
    ffn_scalar_oracle,
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
                           labels=np.zeros((n, 3), np.int8))
        p = score_windows(feats, params)
        assert p.tobytes() == score_windows(feats, params).tobytes()
        for kept in (0, 1):  # replace every other window: the odd ones, then the even ones
            reps, costs = feats.reps.copy(), feats.costs.copy()
            reps[1 - kept::2] = rng.normal(size=reps[1 - kept::2].shape)
            costs[1 - kept::2] = rng.uniform(0.2, 2.0, size=costs[1 - kept::2].shape)
            q = score_windows(FeatureSet(reps=reps, costs=costs, labels=feats.labels), params)
            assert q[kept::2].tobytes() == p[kept::2].tobytes()
            assert not np.array_equal(q[1 - kept::2], p[1 - kept::2])


class TestQuestionSide:
    def test_prepared_once_per_question(self, tiny_corpus, tiny_store, tiny_ft, monkeypatch):
        lookups, marginals = [], []
        lookup, marginal = tiny_store.sentence_vectors, sinkhorn.marginal_distribution

        def counted_lookup(instance_id, window_id, role):
            lookups.append(role)
            return lookup(instance_id, window_id, role)

        def counted_marginal(tokens, ft):
            marginals.append(tuple(tokens))
            return marginal(tokens, ft)

        monkeypatch.setattr(tiny_store, "sentence_vectors", counted_lookup)
        monkeypatch.setattr(sinkhorn, "marginal_distribution", counted_marginal)
        items = instance_windows(tiny_corpus.instances)
        extract_features(items, tiny_store, tiny_ft)
        sentences = sum(not s.is_padding for _, w, _ in items for s in (w.cand, w.prev, w.next))
        assert len(items) > len(tiny_corpus.instances)
        assert lookups.count(ROLE_Q) == len(tiny_corpus.instances)
        assert len(lookups) == len(tiny_corpus.instances) + sentences
        assert len(marginals) == len(tiny_corpus.instances) + sentences
        for inst in tiny_corpus.instances:
            q_tokens = tuple(inst.question.tokens[i] for i in content_token_indices(inst.question))
            assert marginals.count(q_tokens) == 1

    def test_keyed_on_the_question_object_not_its_id(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[0]
        # Same token count as the stored question, other content words.
        other = make_sentence("Which moons orbit the big planet ?", ROLE_QUESTION)
        assert len(other.tokens) == len(inst.question.tokens)
        w = inst.windows[0]
        both = extract_features([(inst.question, w, inst.question_id),
                                 (other, w, inst.question_id)], tiny_store, tiny_ft)
        for k, question in enumerate((inst.question, other)):
            alone = extract_features([(question, w, inst.question_id)], tiny_store, tiny_ft)
            np.testing.assert_array_equal(both.reps[k], alone.reps[0], strict=True)
            np.testing.assert_array_equal(both.costs[k], alone.costs[0], strict=True)
        assert not np.array_equal(both.costs[0], both.costs[1])
