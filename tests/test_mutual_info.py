"""Pair index sets, the discriminator, and the regularizer loss."""

import numpy as np
import pytest

from otrank.model import FFNParams, extract_features, init_model_params, window_forward
from otrank.mutual_info import (
    PairIndexSets,
    WindowPairs,
    build_pair_sets,
    mi_backward,
    mi_forward,
    mi_loss,
)

from oracles import discriminator_oracle, ffn_scalar_oracle, sigmoid_oracle


def zero_disc(dim, hidden=4):
    return FFNParams(
        w1=np.zeros((hidden, 2 * dim)), b1=np.zeros(hidden),
        w2=np.zeros((1, hidden)), b2=np.zeros(1),
    )


def random_disc(rng, dim, hidden=6):
    return FFNParams(
        w1=rng.normal(size=(hidden, 2 * dim)) * 0.5, b1=rng.normal(size=hidden) * 0.5,
        w2=rng.normal(size=(1, hidden)) * 0.5, b2=rng.normal(size=1) * 0.5,
    )


class TestBuildPairSets:
    def test_two_answers_one_non_answer(self):
        sets = build_pair_sets((True, True, False))
        assert set(sets.positive) == {(0, 1), (1, 0)}
        assert set(sets.negative) == {(0, 2), (1, 2)}

    def test_no_answers(self):
        sets = build_pair_sets((False, False, False))
        assert sets.positive == () and sets.negative == ()
        assert not sets

    def test_unknown_labels_are_non_answers(self):
        sets = build_pair_sets((True, None, None))
        assert sets.positive == ()
        assert set(sets.negative) == {(0, 1), (0, 2)}

    def test_all_answers(self):
        sets = build_pair_sets((True, True, True))
        assert len(sets.positive) == 6  # all ordered pairs, no self-pairs
        assert sets.negative == ()
        assert all(i != j for i, j in sets.positive)

    def test_disjoint_and_in_range(self):
        for bits in range(27):
            labels = tuple((None, True, False)[(bits // 3**k) % 3] for k in range(3))
            sets = build_pair_sets(labels)
            assert not (set(sets.positive) & set(sets.negative))
            for i, j in sets.positive + sets.negative:
                assert i in (0, 1, 2) and j in (0, 1, 2)


def pair_logits(h, labels, disc):
    """Discriminator logit of every ordered pair of one window, from :func:`mi_forward`."""
    (group,) = mi_forward(h[None], WindowPairs.of([build_pair_sets(labels)]), disc).groups
    return {(int(i), int(j)): z for i, j, z in zip(group.i[0], group.j[0], group.z[0])}


class TestDiscriminator:
    def test_zero_parameters_give_half(self):
        rng = np.random.default_rng(0)
        logits = pair_logits(rng.normal(size=(3, 4)), (True, True, False), zero_disc(4))
        assert len(logits) == 4
        assert all(z == 0.0 and sigmoid_oracle(z) == 0.5 for z in logits.values())

    def test_matches_dense_math_oracle(self):
        rng = np.random.default_rng(1)
        disc = random_disc(rng, 4)
        h = rng.normal(size=(3, 4))
        logits = pair_logits(h, (True, True, True), disc)
        assert len(logits) == 6
        for (i, j), z in logits.items():
            expected = ffn_scalar_oracle(
                list(h[i]) + list(h[j]),
                disc.w1.tolist(), disc.b1.tolist(), disc.w2.tolist(), disc.b2.tolist(),
            )
            assert z == pytest.approx(expected, abs=1e-12)
            assert sigmoid_oracle(z) == pytest.approx(sigmoid_oracle(expected), abs=1e-12)

    def test_order_sensitive_both_match_oracles(self):
        rng = np.random.default_rng(2)
        disc = random_disc(rng, 3)
        h = rng.normal(size=(3, 3))
        logits = pair_logits(h, (True, True, False), disc)

        def oracle(x, y):
            return ffn_scalar_oracle(
                list(x) + list(y),
                disc.w1.tolist(), disc.b1.tolist(), disc.w2.tolist(), disc.b2.tolist(),
            )

        assert logits[0, 1] == pytest.approx(oracle(h[0], h[1]), abs=1e-12)
        assert logits[1, 0] == pytest.approx(oracle(h[1], h[0]), abs=1e-12)
        assert logits[0, 1] != logits[1, 0]


class TestMiLoss:
    def test_empty_sets_give_zero(self):
        rng = np.random.default_rng(3)
        disc = random_disc(rng, 4)
        sets = PairIndexSets(positive=(), negative=())
        assert mi_loss(rng.normal(size=(3, 4)), sets, disc) == 0.0

    def test_zero_discriminator_closed_form(self):
        # Every term is ln 2 when U == 0.5; two positives + two negatives.
        rng = np.random.default_rng(4)
        sets = build_pair_sets((True, True, False))
        val = mi_loss(rng.normal(size=(3, 4)), sets, zero_disc(4))
        assert val == pytest.approx(4.0 * np.log(2.0), abs=1e-12)

    def test_nonnegative_and_zero_iff_empty(self):
        rng = np.random.default_rng(5)
        disc = random_disc(rng, 4)
        for labels in [(True, True, False), (True, None, None), (False, False, False),
                       (True, True, True), (False, True, None)]:
            sets = build_pair_sets(labels)
            val = mi_loss(rng.normal(size=(3, 4)), sets, disc)
            assert val >= 0.0
            assert (val == 0.0) == (not sets)

    def test_matches_per_pair_definition(self):
        rng = np.random.default_rng(6)
        disc = random_disc(rng, 4)
        h = rng.normal(size=(3, 4))
        sets = build_pair_sets((True, True, False))
        expected = sum(-np.log(discriminator_oracle(h[i], h[j], disc))
                       for i, j in sets.positive)
        expected += sum(
            -np.log(1.0 - discriminator_oracle(h[i], h[j], disc)) for i, j in sets.negative
        )
        assert mi_loss(h, sets, disc) == pytest.approx(expected, abs=1e-10)

    def test_golden_fixture_value(self, tiny_corpus, tiny_store, tiny_ft):
        # Frozen from the reference run: q1-w1 representations under params
        # seed 7, with (answer, answer, non-answer) labels.
        inst = tiny_corpus.instances[0]
        params = init_model_params(np.random.default_rng(7), dim=4, hidden=5, layers=2)
        feats = extract_features([(inst.question, inst.windows[0], "q1")], tiny_store,
                                 tiny_ft)[0]
        fwd = window_forward(feats, params)
        val = mi_loss(fwd.hs[-1], build_pair_sets((True, True, False)), params.disc)
        assert val == pytest.approx(2.7729528113559097, abs=1e-9)


class TestMiGradients:
    def test_disc_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        dim, hidden = 4, 5
        disc = random_disc(rng, dim, hidden)
        h = rng.normal(size=(3, dim))
        sets = build_pair_sets((True, True, False))

        grads = {
            "disc.w1": np.zeros_like(disc.w1), "disc.b1": np.zeros_like(disc.b1),
            "disc.w2": np.zeros_like(disc.w2), "disc.b2": np.zeros_like(disc.b2),
        }
        fwd = mi_forward(h[None], WindowPairs.of([sets]), disc)
        mi_backward(fwd, disc, 1.0, grads, np.zeros((1, 3, dim)))

        step = 1e-4
        for name, tensor in (("disc.w1", disc.w1), ("disc.b1", disc.b1),
                             ("disc.w2", disc.w2), ("disc.b2", disc.b2)):
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                up = mi_loss(h, sets, disc)
                flat[k] = orig - step
                down = mi_loss(h, sets, disc)
                flat[k] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(gflat[k] - numeric) / max(abs(gflat[k]), abs(numeric), 1e-3)
                assert rel <= 1e-4, (name, k, rel)

    def test_node_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        disc = random_disc(rng, 3)
        h = rng.normal(size=(3, 3))
        sets = build_pair_sets((True, False, True))
        grads = {
            "disc.w1": np.zeros_like(disc.w1), "disc.b1": np.zeros_like(disc.b1),
            "disc.w2": np.zeros_like(disc.w2), "disc.b2": np.zeros_like(disc.b2),
        }
        dh = np.zeros((1, 3, 3))
        mi_backward(mi_forward(h[None], WindowPairs.of([sets]), disc), disc, 1.0, grads, dh)
        step = 1e-5
        for i in range(3):
            for t in range(3):
                orig = h[i, t]
                h[i, t] = orig + step
                up = mi_loss(h, sets, disc)
                h[i, t] = orig - step
                down = mi_loss(h, sets, disc)
                h[i, t] = orig
                numeric = (up - down) / (2 * step)
                assert abs(dh[0, i, t] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_training_decreases_loss_on_correlated_pairs(self):
        # Positive pairs share a common latent vector; negatives are
        # independent. Plain gradient descent on the discriminator must
        # strictly decrease the (smoothed) loss.
        rng = np.random.default_rng(9)
        dim, hidden = 6, 16
        disc = random_disc(rng, dim, hidden)
        windows = []
        for _ in range(64):
            base = rng.normal(size=dim)
            windows.append(np.stack([
                base + 0.05 * rng.normal(size=dim),
                base + 0.05 * rng.normal(size=dim),
                rng.normal(size=dim),
            ]))
        h = np.stack(windows)
        pairs = WindowPairs.of([build_pair_sets((True, True, False))] * len(windows))

        grads_keys = ("disc.w1", "disc.b1", "disc.w2", "disc.b2")
        tensors = {"disc.w1": disc.w1, "disc.b1": disc.b1,
                   "disc.w2": disc.w2, "disc.b2": disc.b2}
        lr = 0.01
        losses = []
        for _ in range(100):
            grads = {k: np.zeros_like(tensors[k]) for k in grads_keys}
            fwd = mi_forward(h, pairs, disc)
            mi_backward(fwd, disc, 1.0 / len(windows), grads, np.zeros_like(h))
            losses.append(float(np.mean(fwd.loss)))
            for k in grads_keys:
                tensors[k] -= lr * grads[k]
        smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) < 0)
        assert losses[-1] < losses[0]
