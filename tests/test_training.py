"""Joint loss, gradients, Adam, the training loop, checkpoints, gradcheck."""

import dataclasses
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otrank.training as training
from otrank.errors import CheckpointError, EmbeddingKeyError
from otrank.model import (
    FORWARD_CHUNK,
    FeatureSet,
    align_windows,
    extract_features,
    init_model_params,
    instance_windows,
    param_tensors,
    scorer_size,
    window_forward,
)
from otrank.embeddings import build_frequency_table
from otrank.sinkhorn import SinkhornSettings
from otrank.synthetic import make_synthetic_corpus
from otrank.training import (
    ADAM_BETA1,
    ADAM_EPS,
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    config_from_dict,
    gradcheck,
    joint_loss,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    train,
)

from conftest import assert_scorer_loaded
from oracles import (
    Window,
    adam_step_loop,
    feature_set,
    forward_losses_loop,
    loss_and_gradients_loop,
    reference_window_features,
)


def micro_cfg(**kw):
    defaults = dict(learning_rate=1e-3, batch_size=4, gamma=0.3, epochs=2, seed=0,
                    hidden_size=8, gcn_layers=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def random_windows(rng, dim, n=3):
    label_sets = [(True, True, False), (False, True, None), (True, None, None)]
    return [
        Window(
            reps=rng.normal(size=(3, dim)),
            costs=rng.uniform(0.3, 2.0, size=3),
            labels=label_sets[k % len(label_sets)],
        )
        for k in range(n)
    ]


def random_batch(rng, dim, n=3):
    return feature_set(random_windows(rng, dim, n))


def named_gradients(feats, params, cfg):
    """``loss_and_gradients`` with the flat gradient as named tensors."""
    loss, grads = loss_and_gradients(feats, params, cfg)
    return loss, param_tensors(params.like(grads))


class TestJointLoss:
    def test_gamma_zero_equals_as2_bitwise(self):
        rng = np.random.default_rng(0)
        params = init_model_params(rng, dim=5, hidden=8, layers=2)
        batch = random_batch(rng, 5)
        as2 = float(np.mean([window_forward(batch, k, params).loss_as2
                             for k in range(len(batch))]))
        assert joint_loss(batch, params, micro_cfg(gamma=0.0)) == as2

    def test_empty_mi_sets_equal_as2_for_any_gamma(self):
        rng = np.random.default_rng(1)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        batch = feature_set([
            Window(rng.normal(size=(3, 4)), rng.uniform(0.2, 1.5, size=3), (False, None, None))
            for _ in range(3)
        ])
        for gamma in (0.3, 1.7):
            a = joint_loss(batch, params, micro_cfg(gamma=gamma))
            b = joint_loss(batch, params, micro_cfg(gamma=0.0))
            assert a == b

    def test_weighted_sum_arithmetic(self, monkeypatch):
        monkeypatch.setattr(training, "_mean_terms",
                            lambda batch, params, gamma, grads=None: (0.5, 1.0))
        batch = random_batch(np.random.default_rng(0), 4, n=1)
        val = joint_loss(batch, None, micro_cfg(gamma=0.3))
        assert val == pytest.approx(0.8, abs=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(FeatureSet(reps=np.zeros((0, 3, 4)), costs=np.zeros((0, 3)),
                                  labels=np.zeros((0, 3), dtype=bool)), None, micro_cfg())


class TestGradients:
    def test_zero_params_head_bias_closed_form(self):
        rng = np.random.default_rng(2)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        for t in param_tensors(params).values():
            t[...] = 0.0
        windows = random_windows(rng, 4, n=4)
        grads = named_gradients(feature_set(windows), params,
                                micro_cfg(gamma=0.0, batch_size=4))[1]
        ys = [1.0 if w.labels[0] else 0.0 for w in windows]
        expected = np.mean([0.5 - y for y in ys])
        assert grads["head.b2"][0] == pytest.approx(expected, abs=1e-15)
        # With everything zero, ReLU gates shut every other path.
        for name, g in grads.items():
            if name != "head.b2":
                np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        dim, hidden = 6, 8
        params = init_model_params(rng, dim=dim, hidden=hidden, layers=2)
        for t in param_tensors(params).values():
            t[...] = rng.uniform(-0.5, 0.5, size=t.shape)
        batch = random_batch(rng, dim)
        cfg = micro_cfg(gamma=0.3)
        analytic = named_gradients(batch, params, cfg)[1]
        step = 1e-4
        rng_pick = np.random.default_rng(4)
        for name, tensor in param_tensors(params).items():
            flat = tensor.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            picks = rng_pick.choice(flat.size, size=min(10, flat.size), replace=False)
            for k in picks:
                orig = flat[k]
                flat[k] = orig + step
                up = joint_loss(batch, params, cfg)
                flat[k] = orig - step
                down = joint_loss(batch, params, cfg)
                flat[k] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(a_flat[k] - numeric) / max(abs(a_flat[k]), abs(numeric), 1e-3)
                assert rel <= 1e-4, (name, int(k), rel)

    def test_duplicated_window_same_gradient(self):
        rng = np.random.default_rng(5)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        window = random_windows(rng, 4, n=1)[0]
        cfg = micro_cfg()
        single = named_gradients(feature_set([window]), params, cfg)[1]
        doubled = named_gradients(feature_set([window, window]), params, cfg)[1]
        # A flat GEMM adds the two halves g/2 + g/2 in its own order, so the
        # gradients agree to rounding, not bit for bit.
        assert_gradients_within_rounding(doubled, single)

    def test_gamma_zero_never_touches_disc(self):
        rng = np.random.default_rng(6)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        grads = named_gradients(random_batch(rng, 4), params, micro_cfg(gamma=0.0))[1]
        for name in ("disc.w1", "disc.b1", "disc.w2", "disc.b2"):
            np.testing.assert_array_equal(grads[name], np.zeros_like(grads[name]))

    def test_non_finite_loss_aborts(self, recwarn):
        rng = np.random.default_rng(7)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        feats = random_batch(rng, 4, n=1)
        feats.reps[0, 0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            loss_and_gradients(feats, params, micro_cfg())
        # The error is raised with no numpy warning before it.
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


CONTEXT_LABELS = st.sampled_from([True, False, None])


@st.composite
def step_cases(draw, dims=(3, 16, 40), hiddens=(1, 7, 64), max_windows=2 * FORWARD_CHUNK + 6):
    """A random model and batch: by default up to two chunks and six windows (two
    chunk boundaries and a short last chunk), every label pattern, padding windows
    with zero context reps, 1-3 GCN layers."""
    n = draw(st.integers(1, max_windows))
    labels = draw(st.lists(st.tuples(st.booleans(), CONTEXT_LABELS, CONTEXT_LABELS),
                           min_size=n, max_size=n))
    padded = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    dim = draw(st.sampled_from(dims))
    hidden = draw(st.sampled_from(hiddens))
    layers = draw(st.integers(1, 3))
    gamma = draw(st.sampled_from([0.0, 0.3, 1.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_model_params(rng, dim, hidden, layers)
    for t in param_tensors(params).values():
        t += rng.normal(size=t.shape) * 0.3
    batch = []
    for label, pad in zip(labels, padded):
        reps = rng.normal(size=(3, dim))
        costs = rng.uniform(0.2, 2.0, size=3)
        if pad:  # padding context sentences: zero representation and cost, no label
            reps[1:] = 0.0
            costs[1:] = 0.0
            label = (label[0], None, None)
        batch.append(Window(reps, costs, label))
    cfg = micro_cfg(gamma=gamma, hidden_size=hidden, gcn_layers=layers)
    return batch, params, cfg


def assert_gradients_within_rounding(got, want):
    """Every gradient of ``got`` within 1e-12 times the largest entry of ``want``."""
    assert list(got) == list(want)
    scale = max(float(np.abs(g).max()) for g in want.values())
    for name, g in want.items():
        assert got[name].shape == g.shape, name
        assert np.abs(got[name] - g).max() <= 1e-12 * scale, name


def assert_step_matches_loop(case):
    """The candidate BCE term bit-equal to the per-window loop, the loss too when
    gamma is 0, and otherwise within 1e-12 of it relative; every gradient within
    rounding. The forward's flat GEMMs are bit-equal to the one-window products at
    the shipped widths; the regularizer's flat pair GEMM and the backward's flat
    weight-gradient GEMMs need not be."""
    batch, params, cfg = case
    loss, grads = loss_and_gradients_loop(batch, params, cfg)
    feats = feature_set(batch)
    got_loss, got = named_gradients(feats, params, cfg)
    as2 = forward_losses_loop(batch, params, cfg.gamma)[2]
    assert training._mean_terms(feats, params, cfg.gamma)[0] == as2
    if cfg.gamma == 0.0:
        assert got_loss == loss
    else:
        assert abs(got_loss - loss) <= 1e-12 * abs(loss)
    assert_gradients_within_rounding(got, grads)


class TestBatchedStepEqualsLoop:
    @settings(max_examples=40, deadline=None)
    @given(case=step_cases())
    def test_loss_and_every_gradient_within_rounding(self, case):
        # The flat GEMMs of the forward may round differently from the one-window
        # products away from the shipped shapes (BLAS picks kernels by size), and
        # the regularizer's flat pair GEMM at any shape; the backward's flat
        # weight-gradient GEMMs sum in another order. Over 400 examples the loss
        # moved on 21, by at most 5.9e-16 relative; the worst gradient entry error
        # was 2.6e-15 times the largest gradient entry. A per-tensor relative bound
        # would not do: dep.b2's gradient is zero up to cancellation noise, since
        # the edge softmax is shift-invariant.
        batch, params, cfg = case
        loss, grads = loss_and_gradients_loop(batch, params, cfg)
        got_loss, got = named_gradients(feature_set(batch), params, cfg)
        assert abs(got_loss - loss) <= 1e-12 * abs(loss)
        assert list(got) == list(grads)
        scale = max(float(np.abs(g).max()) for g in grads.values())
        for name, g in grads.items():
            assert got[name].shape == g.shape, name
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

    @settings(max_examples=40, deadline=None)
    @given(case=step_cases(dims=(16,), hiddens=(400,)))
    def test_bitwise_at_the_benchmark_width(self, case):
        assert_step_matches_loop(case)

    @settings(max_examples=6, deadline=None)
    @given(case=step_cases(dims=(768,), hiddens=(400,), max_windows=9))
    def test_bitwise_at_bert_width(self, case):
        assert_step_matches_loop(case)

    def test_taken_rows_equal_their_list(self):
        rng = np.random.default_rng(3)
        params = init_model_params(rng, dim=4, hidden=6, layers=2)
        windows = random_windows(rng, 4, n=9)
        rows = [7, 2, 2, 5]
        a = named_gradients(feature_set(windows).take(rows), params, micro_cfg())
        b = loss_and_gradients_loop([windows[r] for r in rows], params, micro_cfg())
        assert a[0] == b[0]
        assert_gradients_within_rounding(a[1], b[1])


def labelled_windows(rng, dim, n):
    """``n`` random windows with labels drawn from every pattern."""
    context = [True, False, None]
    return [Window(rng.normal(size=(3, dim)), rng.uniform(0.2, 2.0, size=3),
                   (bool(rng.integers(2)), context[rng.integers(3)], context[rng.integers(3)]))
            for _ in range(n)]


class TestStepMemory:
    def test_warm_step_writes_the_dependency_gradient_in_place(self):
        # The backward sweep writes the dependency layer's gradient into the
        # forward's (B*9, hidden) activations once it has read them. A warm step
        # at the benchmark's shapes peaked at 3.92 MB so, and at 5.54 MB with a
        # fresh array for that gradient.
        rng = np.random.default_rng(22)
        params = init_model_params(rng, dim=16, hidden=400, layers=2)
        batch = feature_set(labelled_windows(rng, 16, 64))
        cfg = TrainConfig(gamma=0.3)
        loss_and_gradients(batch, params, cfg)
        tracemalloc.start()
        try:
            loss_and_gradients(batch, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_500_000


class TestAdamStep:
    def test_zero_gradient_is_fixed_point(self):
        rng = np.random.default_rng(8)
        params = init_model_params(rng, dim=3, hidden=4, layers=1)
        before = params.flat.copy()
        state = AdamState.zeros(params)
        adam_step(params, np.zeros_like(params.flat), state, micro_cfg())
        np.testing.assert_array_equal(params.flat, before)

    def test_moments_decay_under_zero_gradient(self):
        rng = np.random.default_rng(9)
        params = init_model_params(rng, dim=3, hidden=4, layers=1)
        state = AdamState.zeros(params)
        cfg = micro_cfg()
        adam_step(params, np.full_like(params.flat, 0.5), state, cfg)
        m_before = state.m.copy()
        adam_step(params, np.zeros_like(params.flat), state, cfg)
        np.testing.assert_allclose(state.m, ADAM_BETA1 * m_before, atol=1e-18)

    def test_single_step_hand_formula(self):
        rng = np.random.default_rng(10)
        params = init_model_params(rng, dim=3, hidden=4, layers=1)
        before = params.flat.copy()
        g = rng.normal(size=params.flat.shape)
        cfg = micro_cfg(learning_rate=0.01)
        adam_step(params, g, AdamState.zeros(params), cfg)
        # After bias correction from zero moments: m_hat = g, v_hat = g^2.
        expected = before - cfg.learning_rate * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(params.flat, expected, atol=1e-12)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        rng = np.random.default_rng(11)
        params = init_model_params(rng, dim=2, hidden=3, layers=1)
        state = AdamState.zeros(params)
        cfg = micro_cfg(learning_rate=1e-3)
        g = np.full_like(params.flat, 2.0)
        for _ in range(400):
            prev = params.flat.copy()
            adam_step(params, g, state, cfg)
        np.testing.assert_allclose(np.abs(params.flat - prev), cfg.learning_rate, rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        params = init_model_params(rng, dim=3, hidden=4, layers=1)
        bad = np.zeros(params.flat.size - 1)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, bad, AdamState.zeros(params), micro_cfg())

    def test_flat_steps_equal_the_per_tensor_loop(self):
        # Every step after the first starts from nonzero moments.
        params = init_model_params(np.random.default_rng(13), dim=6, hidden=8, layers=2)
        state, cfg = AdamState.zeros(params), micro_cfg()
        # The reference keeps each tensor in an array of its own.
        theta, m, v = ({name: t.copy() for name, t in param_tensors(params.like(flat)).items()}
                       for flat in (params.flat, state.m, state.v))
        rng = np.random.default_rng(14)
        for t in range(1, 6):
            g = rng.normal(size=params.flat.shape)
            adam_step(params, g, state, cfg)
            adam_step_loop(theta, param_tensors(params.like(g)), m, v, t, cfg)
        assert state.t == t
        for flat, tensors in ((params.flat, theta), (state.m, m), (state.v, v)):
            assert flat.tobytes() == b"".join(a.tobytes() for a in tensors.values())


def _relabel_contexts(corpus, old, new):
    """``corpus`` with every context label that ``is old`` set to ``new``."""
    def relabel(s):
        return dataclasses.replace(s, label=new) if s.label is old else s

    return dataclasses.replace(corpus, instances=tuple(
        dataclasses.replace(inst, windows=tuple(
            dataclasses.replace(w, prev=relabel(w.prev), next=relabel(w.next))
            for w in inst.windows))
        for inst in corpus.instances))


@pytest.fixture(scope="module")
def small_synth():
    return make_synthetic_corpus(n_train=20, n_dev=8, n_candidates=3, dim=6, seed=5)


class TestTrain:
    def test_zero_epochs_returns_initialization(self, small_synth):
        train_c, _, store = small_synth
        cfg = micro_cfg(epochs=0)
        result = train(train_c, store, cfg)
        expected = init_model_params(
            np.random.default_rng(cfg.seed), store.dim, cfg.hidden_size, cfg.gcn_layers
        )
        for name, t in param_tensors(result.final.params).items():
            np.testing.assert_array_equal(t, param_tensors(expected)[name])
        assert result.final.epoch == 0
        assert result.history == []

    def test_same_seed_bit_identical(self, small_synth, tmp_path):
        train_c, dev_c, store = small_synth
        cfg = micro_cfg(epochs=2, seed=13)
        a = train(train_c, store, cfg, dev_corpus=dev_c)
        b = train(train_c, store, cfg, dev_corpus=dev_c)
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(pa, a.final)
        save_checkpoint(pb, b.final)
        assert pa.read_bytes() == pb.read_bytes()
        # Logs agree on everything but the wallclock field.
        for ra, rb in zip(a.history, b.history):
            da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
            da.pop("wallclock_s"), db.pop("wallclock_s")
            assert da == db

    def test_unknown_context_labels_train_like_non_answers(self, small_synth, tmp_path):
        # The answer mask is all that training reads of a label, so a corpus whose
        # unlabelled contexts are relabelled False trains to the same bytes.
        train_c, _, store = small_synth
        unknown = _relabel_contexts(train_c, False, None)
        assert any(s.label is None for inst in unknown.instances for w in inst.windows
                   for s in (w.prev, w.next))
        known = _relabel_contexts(unknown, None, False)
        cfg = micro_cfg(epochs=2, seed=13, gamma=0.3)
        pa, pb = tmp_path / "unknown.ckpt", tmp_path / "known.ckpt"
        save_checkpoint(pa, train(unknown, store, cfg).final)
        save_checkpoint(pb, train(known, store, cfg).final)
        assert pa.read_bytes() == pb.read_bytes()

    def test_loss_decreases_on_separable_fixture(self, small_synth):
        train_c, _, store = small_synth
        result = train(train_c, store, micro_cfg(epochs=10, learning_rate=1e-3))
        assert result.history[9].train_loss < result.history[0].train_loss

    def test_gamma_zero_leaves_disc_at_init(self, small_synth):
        train_c, _, store = small_synth
        cfg = micro_cfg(epochs=2, gamma=0.0)
        result = train(train_c, store, cfg)
        expected = init_model_params(
            np.random.default_rng(cfg.seed), store.dim, cfg.hidden_size, cfg.gcn_layers
        )
        for name in ("disc.w1", "disc.b1", "disc.w2", "disc.b2"):
            np.testing.assert_array_equal(
                param_tensors(result.final.params)[name], param_tensors(expected)[name]
            )

    def test_missing_embeddings_fail_fast(self, small_synth):
        train_c, _, _ = small_synth
        from otrank.embeddings import EmbeddingStore

        empty = EmbeddingStore(dim=6)
        with pytest.raises(EmbeddingKeyError):
            train(train_c, empty, micro_cfg(epochs=1))

    def test_best_snapshot_keeps_its_epoch(self, small_synth, tmp_path):
        # A snapshot whose views alias the live buffer would save the final state.
        train_c, dev_c, store = small_synth
        cfg = micro_cfg(epochs=3, learning_rate=1e-3)
        result = train(train_c, store, cfg, dev_corpus=dev_c)
        assert result.best.epoch < cfg.epochs
        again = train(train_c, store, dataclasses.replace(cfg, epochs=result.best.epoch),
                      dev_corpus=dev_c)
        best, retrained = tmp_path / "best.ckpt", tmp_path / "retrained.ckpt"
        save_checkpoint(best, result.best)
        save_checkpoint(retrained, dataclasses.replace(again.final, config=cfg))
        assert best.read_bytes() == retrained.read_bytes()

    def test_best_checkpoint_tracks_dev_map(self, small_synth):
        train_c, dev_c, store = small_synth
        result = train(train_c, store, micro_cfg(epochs=3, learning_rate=1e-3),
                       dev_corpus=dev_c)
        maps = [r.dev_map for r in result.history]
        assert result.best.epoch == int(np.argmax(maps)) + 1

    def test_dev_split_without_positives_keeps_the_final_checkpoint(self, small_synth):
        # No dev question can be evaluated, so no epoch has dev metrics to pick a best by.
        train_c, dev_c, store = small_synth
        negative = dataclasses.replace(dev_c, instances=tuple(
            dataclasses.replace(inst, windows=tuple(
                dataclasses.replace(w, cand=dataclasses.replace(w.cand, label=False))
                for w in inst.windows))
            for inst in dev_c.instances))
        result = train(train_c, store, micro_cfg(epochs=2), dev_corpus=negative)
        assert [(r.dev_p_at_1, r.dev_map, r.dev_mrr) for r in result.history] == [
            (None, None, None)] * 2
        assert result.best is result.final and result.final.epoch == 2

    def test_floating_point_error_names_the_epoch_and_windows(self, small_synth, monkeypatch):
        train_c, _, store = small_synth
        real, calls = training.loss_and_gradients, []

        def overflow_on_second_batch(batch, params, cfg):
            calls.append(len(batch))
            if len(calls) == 2:
                raise FloatingPointError("overflow encountered in exp")
            return real(batch, params, cfg)

        monkeypatch.setattr(training, "loss_and_gradients", overflow_on_second_batch)
        with pytest.raises(FloatingPointError,
                           match=r"^epoch 1, windows 4\.\.8: overflow encountered in exp$"):
            train(train_c, store, micro_cfg(epochs=1, batch_size=4))

    def test_overflowing_epoch_mean_names_the_epoch(self, small_synth, monkeypatch):
        # Every batch loss is finite, but their sum over the epoch is not.
        train_c, _, store = small_synth
        real = training.loss_and_gradients

        def huge_loss(batch, params, cfg):
            return 1e308, real(batch, params, cfg)[1]

        monkeypatch.setattr(training, "loss_and_gradients", huge_loss)
        with pytest.raises(FloatingPointError, match=r"^epoch 1: non-finite mean loss inf$"):
            train(train_c, store, micro_cfg(epochs=1, batch_size=4))

    def test_empty_corpus_rejected(self, small_synth):
        from otrank.corpus import Corpus

        _, _, store = small_synth
        with pytest.raises(ValueError, match="empty"):
            train(Corpus(instances=(), split="train"), store, micro_cfg())


class TestCheckpointIO:
    def _roundtrip(self, small_synth, tmp_path, epochs=1):
        train_c, dev_c, store = small_synth
        result = train(train_c, store, micro_cfg(epochs=epochs), dev_corpus=dev_c)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.final)
        return result.final, path

    def test_round_trip_preserves_everything(self, small_synth, tmp_path):
        ckpt, path = self._roundtrip(small_synth, tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.epoch == ckpt.epoch
        assert loaded.freq_table.counts == ckpt.freq_table.counts
        assert loaded.freq_table.num_questions == ckpt.freq_table.num_questions
        assert_scorer_loaded(loaded.params, ckpt.params)

    def test_file_holds_the_header_metadata_and_scorer_run(self, small_synth, tmp_path):
        # magic, version 4, d and the metadata length take 20 bytes; then the
        # metadata, the scorer's floats and the CRC, and nothing else. The metadata's
        # config holds the sizes other than d.
        ckpt, path = self._roundtrip(small_synth, tmp_path)
        raw = path.read_bytes()
        p = ckpt.params
        assert struct.unpack_from("<4sII", raw) == (b"OTCK", 4, p.dim)
        (meta_len,) = struct.unpack_from("<Q", raw, 12)
        assert json.loads(raw[20:20 + meta_len])["config"] == dataclasses.asdict(ckpt.config)
        n = scorer_size(p.dim, p.hidden, p.layers)
        assert len(raw) == 20 + meta_len + 8 * n + 4
        assert raw[20 + meta_len:-4] == p.flat[:n].astype("<f8").tobytes()

    @pytest.mark.parametrize("sizes", [{"hidden_size": 9}, {"gcn_layers": 3}])
    def test_save_rejects_a_config_that_does_not_size_the_parameters(self, sizes, small_synth,
                                                                     tmp_path):
        ckpt, path = self._roundtrip(small_synth, tmp_path)
        path.unlink()
        wrong = Checkpoint(params=ckpt.params, config=dataclasses.replace(ckpt.config, **sizes),
                           epoch=ckpt.epoch, freq_table=ckpt.freq_table)
        with pytest.raises(ValueError, match="!= parameter sizes hidden=8, layers=2"):
            save_checkpoint(path, wrong)
        assert not path.exists()

    def test_save_load_save_byte_identical(self, small_synth, tmp_path):
        _, path = self._roundtrip(small_synth, tmp_path)
        second = tmp_path / "again.ckpt"
        save_checkpoint(second, load_checkpoint(path))
        assert path.read_bytes() == second.read_bytes()

    def test_loaded_arrays(self, small_synth, tmp_path):
        # The parameters are a fresh, writable flat buffer that owns its memory,
        # so it keeps none of the file's bytes alive; the named tensors are views
        # BLAS takes as they are.
        _, path = self._roundtrip(small_synth, tmp_path)
        loaded = load_checkpoint(path)
        flat = loaded.params.flat
        assert flat.dtype == np.float64 and flat.ndim == 1
        assert flat.flags.owndata and flat.flags.writeable and flat.flags.c_contiguous
        for name, t in param_tensors(loaded.params).items():
            assert t.flags.aligned and t.flags.writeable and t.flags.c_contiguous, name
            assert np.shares_memory(t, flat), name
        before = flat.copy()
        adam_step(loaded.params, np.ones_like(flat), AdamState.zeros(loaded.params),
                  loaded.config)
        assert loaded.params.flat is flat and not np.array_equal(flat, before)

    def test_corruption_detected(self, small_synth, tmp_path):
        _, path = self._roundtrip(small_synth, tmp_path)
        good = path.read_bytes()
        # A byte of the metadata, and one of the last parameter tensor.
        for pos in (100, len(good) - 12):
            raw = bytearray(good)
            raw[pos] ^= 0xFF
            path.write_bytes(bytes(raw))
            with pytest.raises(CheckpointError, match="CRC"):
                load_checkpoint(path)

    def test_loaded_checkpoint_outlives_its_file(self, small_synth, tmp_path):
        # The file is mapped only while it loads: rewriting it in place (same
        # inode) leaves what was loaded as it was.
        ckpt, path = self._roundtrip(small_synth, tmp_path)
        loaded = load_checkpoint(path)
        path.write_bytes(bytes(len(path.read_bytes())))
        assert_scorer_loaded(loaded.params, ckpt.params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WHAT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)


class TestGradcheck:
    def test_healthy_build_passes(self):
        report = gradcheck(seed=0)
        assert report.ok
        assert report.max_rel_err <= 1e-4
        expected = {"dep.w1", "dep.b1", "dep.w2", "dep.b2", "gcn.0.w", "gcn.0.b",
                    "gcn.1.w", "gcn.1.b", "head.w1", "head.b1", "head.w2", "head.b2",
                    "disc.w1", "disc.b1", "disc.w2", "disc.b2"}
        assert set(report.per_tensor) == expected

    def test_detects_corrupted_gradient(self, monkeypatch):
        real = training.loss_and_gradients

        def corrupted(batch, params, cfg):
            loss, grads = real(batch, params, cfg)
            params.like(grads).gcn[1].w += 0.05
            return loss, grads

        monkeypatch.setattr(training, "loss_and_gradients", corrupted)
        report = gradcheck(seed=0)
        assert not report.ok
        assert report.per_tensor["gcn.1.w"] > 1e-4

    def test_repeated_runs_identical(self):
        a = gradcheck(seed=3)
        b = gradcheck(seed=3)
        assert a.per_tensor == b.per_tensor


class TestCorpusExtraction:
    def test_bitwise_equal_to_per_window_reference(self):
        # The default corpus's train split: 1000 windows, Sinkhorn tails of
        # several hundred iterations.
        corpus, _, store = make_synthetic_corpus(seed=0)
        ft = build_frequency_table(corpus)
        settings = SinkhornSettings()
        items = instance_windows(corpus.instances)
        feats = extract_features(items, store, ft, settings)
        results = align_windows(items, store, ft, settings)
        windows = [(inst, w) for inst in corpus.instances for w in inst.windows]
        assert len(feats) == len(windows) and len(results) == 3 * len(windows)
        assert feats.labels.dtype == bool
        for k, (inst, w) in enumerate(windows):
            reps, costs, unconverged = reference_window_features(
                inst.question, w, inst.question_id, store, ft, settings
            )
            np.testing.assert_array_equal(feats.reps[k], reps, strict=True)
            np.testing.assert_array_equal(feats.costs[k], costs, strict=True)
            plans = [res.plan for res in results[3 * k : 3 * k + 3]]
            assert sum(0 if tp.converged else 1 for tp in plans) == unconverged
            assert feats.labels[k].tolist() == [
                lab is True for lab in (w.cand.label, w.prev.label, w.next.label)
            ]


def test_one_config_key_check_for_config_files_and_checkpoints():
    # Only a checkpoint must hold every setting; a config file may omit some.
    assert config_from_dict({"gamma": 0.5}) == TrainConfig(gamma=0.5)
    full = dataclasses.asdict(TrainConfig())
    assert config_from_dict(full, complete=True) == TrainConfig()
    with pytest.raises(ValueError, match=re.escape("config lacks keys ['batch_size', 'seed']")):
        config_from_dict({k: v for k, v in full.items() if k not in ("seed", "batch_size")},
                         complete=True)
    for complete in (False, True):
        with pytest.raises(ValueError, match=re.escape("unknown config keys: ['adam_eps', 'x']")):
            config_from_dict({"x": 1, "adam_eps": 1e-8}, complete=complete)
    with pytest.raises(ValueError, match="bad training configuration: epochs must be"):
        config_from_dict({"epochs": -1})
