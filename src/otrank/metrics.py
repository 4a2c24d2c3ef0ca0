"""Ranking construction and evaluation: precision-at-1, MAP, MRR.

Per-question values are computed with exact rational arithmetic and only
converted to float at the end, so randomized cross-checks against the
definitional formulas hold with zero tolerance. Questions with no positive
candidate are excluded from every metric (the "clean" evaluation
convention).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction

from .corpus import Corpus
from .errors import EmbeddingStoreError, EmptyInputError
from .model import extract_features, instance_windows, score_windows

logger = logging.getLogger(__name__)

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


def rank_features(instances, feats, params) -> list[Ranking]:
    """Rank the windows of every question from their features, in order.

    ``feats`` is the :class:`~otrank.model.FeatureSet` of every window of
    ``instances``, in corpus order; one :func:`score_windows` call scores them
    all.
    """
    scores = score_windows(feats, params).tolist()
    rankings = []
    lo = 0
    for inst in instances:
        hi = lo + len(inst.windows)
        rankings.append(rank_candidates([(w.id, p) for w, p in zip(inst.windows, scores[lo:hi])]))
        lo = hi
    return rankings


def rank_questions(instances, checkpoint, store) -> list[Ranking]:
    """Align, score and rank the windows of every question, in order.

    All windows of ``instances`` are aligned in one batch. ``checkpoint`` must
    provide ``params``, ``freq_table``, and a config with ``sinkhorn_settings()``
    (see :class:`otrank.training.Checkpoint`). Logs the windows per second at info.

    Raises :class:`EmbeddingStoreError` before aligning anything when the
    store's vector dimension is not the model's.
    """
    if store.dim != checkpoint.params.dim:
        raise EmbeddingStoreError(f"the embedding store holds d={store.dim} vectors, but the "
                                  f"checkpoint's model takes d={checkpoint.params.dim}")
    started = time.perf_counter()
    feats = extract_features(instance_windows(instances), store, checkpoint.freq_table,
                             checkpoint.config.sinkhorn_settings())
    rankings = rank_features(instances, feats, checkpoint.params)
    seconds = time.perf_counter() - started
    logger.info("ranked %d windows of %d questions in %.3f s (%.1f windows/s)",
                len(feats), len(instances), seconds, len(feats) / seconds if seconds else 0.0)
    return rankings


def question_rows(instances, rankings):
    """(question_id, p@1, ap, rr) rows of the questions with a positive candidate, in order."""
    rows = []
    for inst, ranking in zip(instances, rankings):
        labels = {w.id: bool(w.cand.label) for w in inst.windows}
        if any(labels.values()):
            rows.append((inst.question_id, *question_metrics(ranking, labels)))
    return rows


def per_question_rows(corpus: Corpus, checkpoint, store):
    """:func:`question_rows` of a corpus scored with a checkpoint.

    Questions with no positive candidate are neither aligned nor scored.
    """
    evaluable = [inst for inst in corpus.instances if any(w.cand.label for w in inst.windows)]
    return question_rows(evaluable, rank_questions(evaluable, checkpoint, store))


def mean_report(rows) -> MetricsReport:
    """Means of :func:`question_rows` rows, added left to right."""
    if not rows:
        raise EmptyInputError("no evaluable questions: every question lacks a positive label")
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
