#!/usr/bin/env python3
"""Train the scorer on a planted-signal corpus and evaluate the ranking.

The synthetic generator places correct-candidate tokens near the question
token cluster and distractors far away, so a working pipeline should reach
near-perfect dev metrics within a few epochs. Also demonstrates the effect
of the mutual-information regularizer on the discriminator loss.
"""

from otrank import (
    TrainConfig,
    build_frequency_table,
    evaluate,
    extract_features,
    make_synthetic_corpus,
    train,
)
from otrank.model import forward, instance_windows
from otrank.mutual_info import WindowPairs, mi_forward

# A small corpus keeps this demo quick; scale n_train up for a longer run.
train_corpus, dev_corpus, store = make_synthetic_corpus(
    n_train=60, n_dev=20, n_candidates=5, dim=16, seed=0
)
print(f"train windows: {sum(len(i.windows) for i in train_corpus.instances)}, "
      f"dev questions: {len(dev_corpus.instances)}, dim: {store.dim}")

# =========================================================================
# 1. Train with the regularizer enabled (gamma > 0).
# =========================================================================

cfg = TrainConfig(learning_rate=1e-3, epochs=8, seed=0, gamma=0.3,
                  hidden_size=64, batch_size=32)
result = train(train_corpus, store, cfg, dev_corpus=dev_corpus)
for rec in result.history:
    print(f"  epoch {rec.epoch}: loss={rec.train_loss:.4f} "
          f"dev P@1={rec.dev_p_at_1:.2f} MAP={rec.dev_map:.2f} MRR={rec.dev_mrr:.2f}")

report = evaluate(dev_corpus, result.best, store)
print(f"best checkpoint (epoch {result.best.epoch}): "
      f"P@1={report.p_at_1:.2f} MAP={report.map:.2f} MRR={report.mrr:.2f} "
      f"over {report.num_questions_evaluated} questions")
assert report.p_at_1 >= 0.9

# =========================================================================
# 2. The regularizer shapes representations: the discriminator loss ends
#    far lower than under a gamma = 0 run, where it never trains.
# =========================================================================

baseline = train(train_corpus, store,
                 TrainConfig(learning_rate=1e-3, epochs=8, seed=0, gamma=0.0,
                             hidden_size=64, batch_size=32))

ft = build_frequency_table(train_corpus)
feats = extract_features(instance_windows(train_corpus.instances), store, ft,
                         cfg.sinkhorn_settings())


def mean_mi(params):
    # feats is one FeatureSet: row k holds window k's reps, costs and answer mask.
    h = forward(feats.reps, feats.costs, params).hs[-1]
    return float(mi_forward(h, WindowPairs.of_labels(feats.labels), params.disc).loss.mean())


with_reg = mean_mi(result.final.params)
without_reg = mean_mi(baseline.final.params)
print(f"mean regularizer loss: gamma=0.3 -> {with_reg:.4f}, gamma=0 -> {without_reg:.4f}")
assert with_reg < without_reg

print("\ntraining demo OK")
