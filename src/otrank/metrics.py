"""Ranking construction and evaluation: precision-at-1, MAP, MRR.

Per-question values are computed with exact rational arithmetic and only
converted to float at the end, so randomized cross-checks against the
definitional formulas hold with zero tolerance. Questions with no positive
candidate are excluded from every metric (the "clean" evaluation
convention).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .corpus import Corpus
# extract_instance_features stays importable here: perfbench/tracing.py wraps it as a
# metrics attribute.
from .model import (  # noqa: F401
    extract_features,
    extract_instance_features,
    instance_windows,
    window_forward,
)

Ranking = list[tuple[str, float]]


@dataclass(frozen=True)
class MetricsReport:
    p_at_1: float
    map: float
    mrr: float
    num_questions_evaluated: int


def rank_candidates(scores: list[tuple[str, float]]) -> Ranking:
    """Stable descending sort; ties keep the original candidate order."""
    if not scores:
        raise ValueError("cannot rank an empty candidate list")
    return sorted(scores, key=lambda item: -item[1])


def precision_at_1(ranking: Ranking, labels: dict[str, bool]) -> int:
    """1 if the top-ranked candidate is labeled correct, else 0."""
    return int(bool(labels[ranking[0][0]]))


def average_precision(ranking: Ranking, labels: dict[str, bool]) -> float:
    """Mean of precision@k over the ranks k holding relevant items."""
    relevant_total = sum(1 for wid, _ in ranking if labels[wid])
    if relevant_total == 0:
        raise ValueError("average precision needs at least one relevant candidate")
    hits = 0
    acc = Fraction(0)
    for k, (wid, _) in enumerate(ranking, start=1):
        if labels[wid]:
            hits += 1
            acc += Fraction(hits, k)
    return float(acc / relevant_total)


def reciprocal_rank(ranking: Ranking, labels: dict[str, bool]) -> float:
    """1 / rank of the first relevant candidate."""
    for k, (wid, _) in enumerate(ranking, start=1):
        if labels[wid]:
            return float(Fraction(1, k))
    raise ValueError("reciprocal rank needs at least one relevant candidate")


def question_metrics(ranking: Ranking, labels: dict[str, bool]) -> tuple[int, float, float]:
    """(p@1, average precision, reciprocal rank) of one ranked question."""
    return (
        precision_at_1(ranking, labels),
        average_precision(ranking, labels),
        reciprocal_rank(ranking, labels),
    )


def rank_questions(instances, checkpoint, store) -> list[Ranking]:
    """Score and rank the windows of every question, in order.

    All windows of ``instances`` are aligned in one batch. ``checkpoint``
    must provide ``params``, ``freq_table``, and a config with
    ``sinkhorn_settings()`` (see :class:`otrank.training.Checkpoint`).
    """
    feats = iter(extract_features(instance_windows(instances), store, checkpoint.freq_table,
                                  checkpoint.config.sinkhorn_settings()))
    rankings = []
    for inst in instances:
        scored = [(f.window_id, window_forward(f, checkpoint.params).p)
                  for f in itertools.islice(feats, len(inst.windows))]
        rankings.append(rank_candidates(scored))
    return rankings


def per_question_rows(corpus: Corpus, checkpoint, store):
    """(question_id, p@1, ap, rr) rows for evaluable questions, corpus order.

    Questions with no positive candidate are neither aligned nor scored.
    """
    evaluable = []
    for inst in corpus.instances:
        labels = {w.id: bool(w.cand.label) for w in inst.windows}
        if any(labels.values()):
            evaluable.append((inst, labels))
    rankings = rank_questions([inst for inst, _ in evaluable], checkpoint, store)
    return [
        (inst.question_id, *question_metrics(ranking, labels))
        for (inst, labels), ranking in zip(evaluable, rankings)
    ]


def mean_report(rows) -> MetricsReport:
    """Means of :func:`per_question_rows` rows."""
    if not rows:
        raise ValueError("no evaluable questions: every question lacks a positive label")
    n = len(rows)
    return MetricsReport(
        p_at_1=sum(r[1] for r in rows) / n,
        map=sum(r[2] for r in rows) / n,
        mrr=sum(r[3] for r in rows) / n,
        num_questions_evaluated=n,
    )


def evaluate(corpus: Corpus, checkpoint, store) -> MetricsReport:
    """Score every window with the checkpointed model and aggregate metrics."""
    return mean_report(per_question_rows(corpus, checkpoint, store))
