"""Ranking and the three evaluation metrics against definitional oracles."""

import numpy as np
import pytest

from otrank.corpus import Corpus
from otrank.embeddings import build_frequency_table
from otrank.metrics import (
    average_precision,
    evaluate,
    precision_at_1,
    rank_candidates,
    reciprocal_rank,
)
from otrank.model import init_model_params
from otrank.synthetic import make_synthetic_corpus
from otrank.training import Checkpoint, TrainConfig

from oracles import ap_oracle, rr_oracle


class TestRankCandidates:
    def test_descending(self):
        assert rank_candidates([("a", 0.2), ("b", 0.9)]) == [("b", 0.9), ("a", 0.2)]

    def test_stable_on_ties(self):
        assert rank_candidates([("a", 0.5), ("b", 0.5)]) == [("a", 0.5), ("b", 0.5)]

    def test_singleton(self):
        assert rank_candidates([("only", 0.1)]) == [("only", 0.1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates([])

    def test_permutation_of_ids(self):
        rng = np.random.default_rng(0)
        scores = [(f"w{i}", float(s)) for i, s in enumerate(rng.random(8))]
        ranked = rank_candidates(scores)
        assert sorted(w for w, _ in ranked) == sorted(w for w, _ in scores)


class TestPrecisionAt1:
    def test_top_correct(self):
        assert precision_at_1([("a", 0.9), ("b", 0.1)], {"a": True, "b": False}) == 1

    def test_top_incorrect(self):
        assert precision_at_1([("b", 0.9), ("a", 0.1)], {"a": True, "b": False}) == 0

    def test_mean_over_questions(self):
        vals = [1, 0, 1]
        assert sum(vals) / len(vals) == pytest.approx(2 / 3)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        ranking = [("a", 0.9), ("b", 0.8)]
        assert average_precision(ranking, {"a": True, "b": True}) == 1.0

    def test_single_relevant_at_rank_two(self):
        ranking = [("a", 0.9), ("b", 0.8)]
        assert average_precision(ranking, {"a": False, "b": True}) == 0.5

    def test_zero_positives_rejected(self):
        with pytest.raises(ValueError):
            average_precision([("a", 0.5)], {"a": False})

    def test_random_cases_match_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            labels = rng.random(n) < 0.4
            if not labels.any():
                labels[int(rng.integers(n))] = True
            scores = rng.random(n)
            ranking = rank_candidates([(f"w{i}", float(s)) for i, s in enumerate(scores)])
            lab = {f"w{i}": bool(labels[i]) for i in range(n)}
            ranked_labels = [lab[w] for w, _ in ranking]
            assert average_precision(ranking, lab) == ap_oracle(ranked_labels)


class TestReciprocalRank:
    def test_first_relevant_rank_one(self):
        assert reciprocal_rank([("a", 0.9), ("b", 0.1)], {"a": True, "b": False}) == 1.0

    def test_first_relevant_rank_four(self):
        ranking = [(f"w{i}", 1.0 - i / 10) for i in range(4)]
        labels = {"w0": False, "w1": False, "w2": False, "w3": True}
        assert reciprocal_rank(ranking, labels) == 0.25

    def test_zero_positives_rejected(self):
        with pytest.raises(ValueError, match="at least one relevant candidate"):
            reciprocal_rank([("a", 0.5), ("b", 0.4)], {"a": False, "b": False})

    def test_random_cases_match_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            labels = rng.random(n) < 0.5
            if not labels.any():
                labels[int(rng.integers(n))] = True
            ranking = rank_candidates(
                [(f"w{i}", float(s)) for i, s in enumerate(rng.random(n))]
            )
            lab = {f"w{i}": bool(labels[i]) for i in range(n)}
            ranked_labels = [lab[w] for w, _ in ranking]
            assert reciprocal_rank(ranking, lab) == rr_oracle(ranked_labels)


class TestRankingProperties:
    def test_p1_never_exceeds_rr(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            labels = rng.random(n) < 0.4
            if not labels.any():
                labels[int(rng.integers(n))] = True
            ranking = rank_candidates(
                [(f"w{i}", float(s)) for i, s in enumerate(rng.random(n))]
            )
            lab = {f"w{i}": bool(labels[i]) for i in range(n)}
            p1 = precision_at_1(ranking, lab)
            rr = reciprocal_rank(ranking, lab)
            ap = average_precision(ranking, lab)
            assert p1 <= rr <= 1.0
            assert 0.0 <= ap <= 1.0

    def test_score_monotone_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            scores = rng.random(n)
            labels = rng.random(n) < 0.5
            if not labels.any():
                labels[int(rng.integers(n))] = True
            lab = {f"w{i}": bool(labels[i]) for i in range(n)}
            base = [(f"w{i}", float(s)) for i, s in enumerate(scores)]
            warped = [(w, float(np.exp(3.0 * s) + 1.0)) for w, s in base]  # increasing map
            r1 = rank_candidates(base)
            r2 = rank_candidates(warped)
            assert [w for w, _ in r1] == [w for w, _ in r2]
            assert average_precision(r1, lab) == average_precision(r2, lab)
            assert reciprocal_rank(r1, lab) == reciprocal_rank(r2, lab)


def _checkpoint_for(store, cfg, ft, seed=0):
    params = init_model_params(np.random.default_rng(seed), store.dim, cfg.hidden_size,
                               cfg.gcn_layers)
    return Checkpoint(params=params, config=cfg, epoch=0, freq_table=ft)


class TestEvaluate:
    @pytest.fixture(scope="class")
    @staticmethod
    def synth():
        train_c, dev_c, store = make_synthetic_corpus(
            n_train=10, n_dev=6, n_candidates=4, dim=6, seed=11
        )
        ft = build_frequency_table(train_c)
        cfg = TrainConfig(hidden_size=8, gcn_layers=2)
        return dev_c, store, ft, cfg

    def test_oracle_scorer_is_perfect(self, synth, monkeypatch):
        dev_c, store, ft, cfg = synth
        ckpt = _checkpoint_for(store, cfg, ft)
        import otrank.metrics as metrics_mod

        def oracle_scores(feats, params):
            return np.where(feats.labels[:, 0], 1.0, 0.0)

        monkeypatch.setattr(metrics_mod, "score_windows", oracle_scores)
        report = metrics_mod.evaluate(dev_c, ckpt, store)
        assert report.p_at_1 == 1.0
        assert report.map == 1.0
        assert report.mrr == 1.0
        assert report.num_questions_evaluated == len(dev_c.instances)

    def test_anti_oracle_worst_case(self, synth, monkeypatch):
        # Exactly one positive per question, ranked last among n candidates:
        # p@1 = 0, ap = rr = 1/n.
        dev_c, store, ft, cfg = synth
        ckpt = _checkpoint_for(store, cfg, ft)
        import otrank.metrics as metrics_mod

        monkeypatch.setattr(
            metrics_mod, "score_windows",
            lambda feats, params: np.where(feats.labels[:, 0], 0.0, 1.0),
        )
        report = metrics_mod.evaluate(dev_c, ckpt, store)
        n = len(dev_c.instances[0].windows)
        assert report.p_at_1 == 0.0
        assert report.map == pytest.approx(1.0 / n, abs=1e-15)
        assert report.mrr == pytest.approx(1.0 / n, abs=1e-15)

    def test_zero_positive_questions_excluded(self, synth):
        dev_c, store, ft, cfg = synth
        ckpt = _checkpoint_for(store, cfg, ft)
        # Flip every candidate label of the first question to negative.
        import dataclasses

        first = dev_c.instances[0]
        windows = tuple(
            dataclasses.replace(
                w, cand=dataclasses.replace(w.cand, label=False)
            )
            for w in first.windows
        )
        patched = Corpus(
            instances=(dataclasses.replace(first, windows=windows),) + dev_c.instances[1:],
            split="dev",
        )
        report = evaluate(patched, ckpt, store)
        assert report.num_questions_evaluated == len(dev_c.instances) - 1

    def test_all_zero_positive_is_error(self, synth):
        dev_c, store, ft, cfg = synth
        ckpt = _checkpoint_for(store, cfg, ft)
        import dataclasses

        instances = []
        for inst in dev_c.instances:
            windows = tuple(
                dataclasses.replace(w, cand=dataclasses.replace(w.cand, label=False))
                for w in inst.windows
            )
            instances.append(dataclasses.replace(inst, windows=windows))
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate(Corpus(instances=tuple(instances), split="dev"), ckpt, store)
