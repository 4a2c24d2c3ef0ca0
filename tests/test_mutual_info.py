"""The regularizer's pair lists, the discriminator, and the regularizer loss."""

import itertools

import numpy as np
import pytest

from otrank.model import FFNParams, extract_features, init_model_params, window_forward
from otrank.mutual_info import WindowPairs, mi_backward, mi_forward

from oracles import discriminator_oracle, ffn_scalar_oracle, pair_sets_oracle, sigmoid_oracle


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


def mask(*labels):
    """The ``(1, 3)`` answer mask of one window's labels: only True is an answer, as
    in :class:`otrank.model.FeatureSet`."""
    return np.array([[lab is True for lab in labels]])


def pairs_of(*windows):
    """The ``WindowPairs`` of windows given as ``(positive, negative)`` pair tuples."""
    rows = [(w, i, j, pos) for w, sets in enumerate(windows)
            for pos, pairs in zip((True, False), sets) for i, j in pairs]
    window, i, j, positive = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    return WindowPairs(window=window, i=i, j=j, positive=positive.astype(bool))


def pair_sets(labels):
    """One window's ``(positive, negative)`` pairs as :meth:`WindowPairs.of_labels` gives them."""
    pairs = WindowPairs.of_labels(mask(*labels))
    ij = list(zip(pairs.i.tolist(), pairs.j.tolist()))
    flags = pairs.positive.tolist()
    return (tuple(p for p, pos in zip(ij, flags) if pos),
            tuple(p for p, pos in zip(ij, flags) if not pos))


def window_loss(h, pairs, disc):
    """One window's regularizer term: :func:`mi_forward` on a batch of one."""
    return float(mi_forward(np.asarray(h, dtype=np.float64)[None], pairs, disc).loss[0])


class TestBuildPairSets:
    def test_two_answers_one_non_answer(self):
        positive, negative = pair_sets((True, True, False))
        assert set(positive) == {(0, 1), (1, 0)}
        assert set(negative) == {(0, 2), (1, 2)}

    def test_no_answers(self):
        positive, negative = pair_sets((False, False, False))
        assert positive == () and negative == ()
        assert WindowPairs.of_labels(mask(False, False, False)).window.size == 0

    def test_unknown_labels_are_non_answers(self):
        positive, negative = pair_sets((True, None, None))
        assert positive == ()
        assert set(negative) == {(0, 1), (0, 2)}

    def test_all_answers(self):
        positive, negative = pair_sets((True, True, True))
        assert len(positive) == 6  # all ordered pairs, no self-pairs
        assert negative == ()
        assert all(i != j for i, j in positive)

    def test_disjoint_and_in_range(self):
        for bits in range(27):
            labels = tuple((None, True, False)[(bits // 3**k) % 3] for k in range(3))
            positive, negative = pair_sets(labels)
            assert not (set(positive) & set(negative))
            for i, j in positive + negative:
                assert i in (0, 1, 2) and j in (0, 1, 2)


class TestWindowPairsOfLabels:
    def test_table_rows_equal_the_pair_sets(self):
        rows = np.array(list(itertools.product((False, True), repeat=3)))
        got = WindowPairs.of_labels(rows)
        assert np.all(np.diff(got.window) >= 0)  # window after window
        assert got.window.dtype == got.i.dtype == got.j.dtype == np.intp
        assert got.positive.dtype == bool
        for k, labels in enumerate(rows):
            positive, negative = pair_sets_oracle(labels)
            at = got.window == k
            pairs = list(zip(got.i[at].tolist(), got.j[at].tolist()))
            assert pairs == list(positive + negative)
            assert got.positive[at].tolist() == [True] * len(positive) + [False] * len(negative)
            assert not (set(pairs[:len(positive)]) & set(pairs[len(positive):]))
            assert all(i in (0, 1, 2) and j in (0, 1, 2) for i, j in pairs)


def pair_logits(h, labels, disc):
    """Discriminator logit of every ordered pair of one window, from :func:`mi_forward`."""
    fwd = mi_forward(h[None], WindowPairs.of_labels(mask(*labels)), disc)
    return {(int(i), int(j)): z for i, j, z in zip(fwd.pairs.i, fwd.pairs.j, fwd.z)}


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
        empty = WindowPairs(window=np.zeros(0, np.intp), i=np.zeros(0, np.intp),
                            j=np.zeros(0, np.intp), positive=np.zeros(0, bool))
        assert window_loss(rng.normal(size=(3, 4)), empty, disc) == 0.0

    def test_zero_discriminator_closed_form(self):
        # Every term is ln 2 when U == 0.5; two positives + two negatives.
        rng = np.random.default_rng(4)
        pairs = WindowPairs.of_labels(mask(True, True, False))
        val = window_loss(rng.normal(size=(3, 4)), pairs, zero_disc(4))
        assert val == pytest.approx(4.0 * np.log(2.0), abs=1e-12)

    def test_nonnegative_and_zero_iff_empty(self):
        rng = np.random.default_rng(5)
        disc = random_disc(rng, 4)
        for labels in [(True, True, False), (True, None, None), (False, False, False),
                       (True, True, True), (False, True, None)]:
            pairs = WindowPairs.of_labels(mask(*labels))
            val = window_loss(rng.normal(size=(3, 4)), pairs, disc)
            assert val >= 0.0
            assert (val == 0.0) == (pairs.window.size == 0)

    def test_matches_per_pair_definition(self):
        rng = np.random.default_rng(6)
        disc = random_disc(rng, 4)
        h = rng.normal(size=(3, 4))
        positive, negative = pair_sets_oracle((True, True, False))
        expected = sum(-np.log(discriminator_oracle(h[i], h[j], disc)) for i, j in positive)
        expected += sum(
            -np.log(1.0 - discriminator_oracle(h[i], h[j], disc)) for i, j in negative
        )
        pairs = WindowPairs.of_labels(mask(True, True, False))
        assert window_loss(h, pairs, disc) == pytest.approx(expected, abs=1e-10)

    def test_pair_sets_no_label_pattern_gives(self):
        # One batch mixes counts a three-node label pattern never has (one pair,
        # a positive with three negatives) with a labelled window.
        rng = np.random.default_rng(10)
        disc = random_disc(rng, 4)
        h = rng.normal(size=(3, 3, 4))
        batch = [(((0, 1),), ()),
                 (((2, 0),), ((2, 1), (1, 0), (0, 2))),
                 pair_sets_oracle((True, False, True))]
        loss = mi_forward(h, pairs_of(*batch), disc).loss
        for w, (positive, negative) in enumerate(batch):
            expected = sum(-np.log(discriminator_oracle(h[w, i], h[w, j], disc))
                           for i, j in positive)
            expected += sum(-np.log(1.0 - discriminator_oracle(h[w, i], h[w, j], disc))
                            for i, j in negative)
            assert loss[w] == pytest.approx(expected, abs=1e-10)
            assert loss[w] == window_loss(h[w], pairs_of((positive, negative)), disc)

    def test_golden_fixture_value(self, tiny_corpus, tiny_store, tiny_ft):
        # Frozen from the reference run: q1-w1 representations under params
        # seed 7, with (answer, answer, non-answer) labels.
        inst = tiny_corpus.instances[0]
        params = init_model_params(np.random.default_rng(7), dim=4, hidden=5, layers=2)
        feats = extract_features([(inst.question, inst.windows[0], "q1")], tiny_store,
                                 tiny_ft)
        fwd = window_forward(feats, 0, params)
        val = window_loss(fwd.hs[-1], WindowPairs.of_labels(mask(True, True, False)),
                          params.disc)
        assert val == pytest.approx(2.7729528113559097, abs=1e-9)


class TestMiGradients:
    def test_disc_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        dim, hidden = 4, 5
        disc = random_disc(rng, dim, hidden)
        h = rng.normal(size=(3, dim))
        pairs = WindowPairs.of_labels(mask(True, True, False))

        grads = {
            "disc.w1": np.zeros_like(disc.w1), "disc.b1": np.zeros_like(disc.b1),
            "disc.w2": np.zeros_like(disc.w2), "disc.b2": np.zeros_like(disc.b2),
        }
        fwd = mi_forward(h[None], pairs, disc)
        mi_backward(fwd, disc, 1.0, grads, np.zeros((1, 3, dim)))

        step = 1e-4
        for name, tensor in (("disc.w1", disc.w1), ("disc.b1", disc.b1),
                             ("disc.w2", disc.w2), ("disc.b2", disc.b2)):
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                up = window_loss(h, pairs, disc)
                flat[k] = orig - step
                down = window_loss(h, pairs, disc)
                flat[k] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(gflat[k] - numeric) / max(abs(gflat[k]), abs(numeric), 1e-3)
                assert rel <= 1e-4, (name, k, rel)

    def test_node_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        disc = random_disc(rng, 3)
        h = rng.normal(size=(3, 3))
        pairs = WindowPairs.of_labels(mask(True, False, True))
        grads = {
            "disc.w1": np.zeros_like(disc.w1), "disc.b1": np.zeros_like(disc.b1),
            "disc.w2": np.zeros_like(disc.w2), "disc.b2": np.zeros_like(disc.b2),
        }
        dh = np.zeros((1, 3, 3))
        mi_backward(mi_forward(h[None], pairs, disc), disc, 1.0, grads, dh)
        step = 1e-5
        for i in range(3):
            for t in range(3):
                orig = h[i, t]
                h[i, t] = orig + step
                up = window_loss(h, pairs, disc)
                h[i, t] = orig - step
                down = window_loss(h, pairs, disc)
                h[i, t] = orig
                numeric = (up - down) / (2 * step)
                assert abs(dh[0, i, t] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_mixed_pair_count_batch_matches_finite_differences(self):
        # Windows of one, two and four pairs, and window 1 with none: every flat
        # row must meet the window and pair it came from. No workspace is passed.
        rng = np.random.default_rng(11)
        dim, hidden = 3, 5
        disc = random_disc(rng, dim, hidden)
        h = rng.normal(size=(5, 3, dim))
        batch = [pair_sets_oracle((True, True, False)), pair_sets_oracle((False, None, False)),
                 (((2, 1),), ()),
                 pair_sets_oracle((False, True, None)), pair_sets_oracle((True, False, True))]
        pairs = pairs_of(*batch)
        grads = {name: np.zeros_like(t) for name, t in (
            ("disc.w1", disc.w1), ("disc.b1", disc.b1), ("disc.w2", disc.w2),
            ("disc.b2", disc.b2))}
        dh = np.zeros_like(h)
        fwd = mi_forward(h, pairs, disc)
        mi_backward(fwd, disc, 1.0, grads, dh)

        def total():
            return float(mi_forward(h, pairs, disc).loss.sum())

        step = 1e-4
        checks = [(name, tensor, grads[name]) for name, tensor in (
            ("disc.w1", disc.w1), ("disc.b1", disc.b1), ("disc.w2", disc.w2),
            ("disc.b2", disc.b2))] + [("h", h, dh)]
        for name, tensor, analytic in checks:
            flat = tensor.reshape(-1)
            gflat = analytic.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                up = total()
                flat[k] = orig - step
                down = total()
                flat[k] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(gflat[k] - numeric) / max(abs(gflat[k]), abs(numeric), 1e-3)
                assert rel <= 1e-4, (name, k, rel)
        np.testing.assert_array_equal(dh[1], 0.0)

    def test_a_window_ignores_its_neighbours(self):
        # Changing the other windows' representations, with the labels and the
        # batch size kept, leaves a window's term and node gradients bit for bit.
        rng = np.random.default_rng(12)
        dim, hidden = 5, 7
        disc = random_disc(rng, dim, hidden)
        labels = np.array([(True, True, False), (False, False, False), (True, False, False),
                           (True, True, True), (True, False, True), (False, True, True),
                           (True, True, False)])
        pairs = WindowPairs.of_labels(labels)
        h = rng.normal(size=(len(labels), 3, dim))

        def run(h):
            grads = {name: np.zeros_like(t) for name, t in (
                ("disc.w1", disc.w1), ("disc.b1", disc.b1), ("disc.w2", disc.w2),
                ("disc.b2", disc.b2))}
            dh = np.zeros_like(h)
            fwd = mi_forward(h, pairs, disc)
            mi_backward(fwd, disc, 0.5, grads, dh)
            return fwd.loss, dh

        loss, dh = run(h)
        for w in range(len(labels)):
            other = rng.normal(size=h.shape) * 3.0
            other[w] = h[w]
            got_loss, got_dh = run(other)
            assert got_loss[w].tobytes() == loss[w].tobytes(), w
            assert got_dh[w].tobytes() == dh[w].tobytes(), w

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
        pairs = WindowPairs.of_labels(np.tile(mask(True, True, False), (len(windows), 1)))

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
