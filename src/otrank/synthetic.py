"""Synthetic planted-signal corpora for end-to-end exercises.

Token embeddings live near one of two well-separated cluster centers:
question tokens and correct-candidate tokens share the "answer" cluster,
distractor candidates sit on the opposite cluster, and context sentences of
answer windows are biased toward the answer cluster (and labeled
accordingly). A scorer that reads the alignment features can therefore
separate correct candidates, which makes these corpora useful as learning
smoke tests with known outcomes.
"""

from __future__ import annotations

import numpy as np

from .corpus import CandidateWindow, Corpus, QAInstance, make_sentence
from .embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_C,
    ROLE_N,
    ROLE_P,
    ROLE_Q,
    EmbeddingStore,
)

_VOCAB_SIZE = 300


def _words(rng: np.random.Generator, k: int) -> str:
    idx = rng.integers(0, _VOCAB_SIZE, size=k)
    return " ".join(f"tok{i:03d}" for i in idx)


def _vectors(rng: np.random.Generator, center: np.ndarray, k: int, noise: float):
    return center + noise * rng.normal(size=(k, center.shape[0]))


def make_synthetic_corpus(
    n_train: int = 200,
    n_dev: int = 50,
    n_candidates: int = 5,
    dim: int = 16,
    seed: int = 0,
    noise: float = 0.15,
    answer_context_rate: float = 0.7,
    distractor_context_rate: float = 0.1,
) -> tuple[Corpus, Corpus, EmbeddingStore]:
    """Generate (train corpus, dev corpus, embedding store).

    Each question has exactly one correct candidate. Context sentences carry
    labels: those drawn from the answer cluster are labeled correct, the
    rest incorrect, so the pair index sets of the regularizer are nonempty.
    """
    rng = np.random.default_rng(seed)
    center_answer = rng.normal(size=dim)
    center_answer /= np.linalg.norm(center_answer)
    center_distract = -center_answer  # separation 2 >> noise

    store = EmbeddingStore(dim=dim)

    def build_split(name: str, count: int) -> Corpus:
        instances = []
        for qn in range(count):
            inst_id = f"{name}-q{qn:04d}"
            q_len = int(rng.integers(3, 7))
            question = make_sentence(_words(rng, q_len))
            store.add_sentence(
                inst_id, QUESTION_WINDOW_ID, ROLE_Q,
                _vectors(rng, center_answer, len(question.tokens), noise),
            )
            correct = int(rng.integers(0, n_candidates))
            windows = []
            for ci in range(n_candidates):
                wid = f"{inst_id}-w{ci}"
                is_correct = ci == correct
                cand_center = center_answer if is_correct else center_distract
                cand = make_sentence(_words(rng, int(rng.integers(3, 7))), label=is_correct)
                store.add_sentence(
                    inst_id, wid, ROLE_C,
                    _vectors(rng, cand_center, len(cand.tokens), noise),
                )
                ctx_rate = answer_context_rate if is_correct else distractor_context_rate
                ctx = {}
                for role in (ROLE_P, ROLE_N):
                    answerish = bool(rng.random() < ctx_rate)
                    ctx_center = center_answer if answerish else center_distract
                    sent = make_sentence(_words(rng, int(rng.integers(3, 7))), label=answerish)
                    store.add_sentence(
                        inst_id, wid, role,
                        _vectors(rng, ctx_center, len(sent.tokens), noise),
                    )
                    ctx[role] = sent
                windows.append(
                    CandidateWindow(id=wid, cand=cand, prev=ctx[ROLE_P], next=ctx[ROLE_N])
                )
            instances.append(
                QAInstance(question_id=inst_id, question=question, windows=tuple(windows))
            )
        return Corpus(instances=tuple(instances), split=name)

    train = build_split("train", n_train)
    dev = build_split("dev", n_dev)
    return train, dev, store
