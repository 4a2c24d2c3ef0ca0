#!/usr/bin/env python3
"""Corpus ingestion: JSONL records, tokenization, padding, frequencies, stores.

Builds a two-question corpus file from scratch, loads it, and inspects the
data model the rest of the library consumes.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from otrank import (
    build_frequency_table,
    load_corpus,
    load_embedding_store,
    marginal_distribution,
    save_corpus,
    write_embedding_store,
)
from otrank.embeddings import QUESTION_WINDOW_ID, ROLE_C, ROLE_N, ROLE_P, ROLE_Q, EmbeddingStore

workdir = Path(tempfile.mkdtemp())

# =========================================================================
# 1. One JSON object per line; each candidate carries optional context.
# =========================================================================

records = [
    {
        "question_id": "demo-1",
        "question": "Which river is the longest ?",
        "candidates": [
            {"id": "demo-1-a", "text": "The Nile is often listed as the longest river .",
             "label": 1,
             "prev": "Rivers are measured from source to mouth .", "prev_label": 0,
             "next": "The Amazon carries far more water .", "next_label": 0},
            {"id": "demo-1-b", "text": "The Amazon basin is the largest drainage area .",
             "label": 0,
             "prev": None, "prev_label": None,
             "next": None, "next_label": None},
        ],
    },
    {
        "question_id": "demo-2",
        "question": "Which metal is liquid at room temperature ?",
        "candidates": [
            {"id": "demo-2-a", "text": "Mercury stays liquid at room temperature .",
             "label": 1, "prev": None, "prev_label": None,
             "next": "Gallium melts in your hand .", "next_label": 0},
        ],
    },
]
corpus_path = workdir / "demo.jsonl"
corpus_path.write_text("\n".join(json.dumps(r) for r in records) + "\n")

corpus = load_corpus(corpus_path, split="train")
print("questions:", [inst.question_id for inst in corpus.instances])

# Tokens carry a lowercased form and a content flag (stopwords and
# punctuation are non-content).
q = corpus.instances[0].question
print("tokens:", [(t.normalized, t.is_content) for t in q.tokens])

# Missing context was padded with a fixed one-token placeholder.
window_b = corpus.instances[0].windows[1]
assert window_b.prev.is_padding and window_b.next.is_padding
print("padded window context:", window_b.prev.text)

# Saving and reloading reproduces the data model exactly.
save_corpus(corpus, workdir / "again.jsonl")
assert load_corpus(workdir / "again.jsonl", split="train") == corpus

# =========================================================================
# 2. The frequency table counts, per word, the questions containing it.
# =========================================================================

ft = build_frequency_table(corpus)
print("num questions:", ft.num_questions)
print("count('which'):", ft.counts["which"])   # appears in both questions
print("count('river'):", ft.counts["river"])   # appears in one
assert ft.smoothed("unseen-word") == 1          # smoothing floors at 1

kept = [t for t in q.tokens if t.is_content]
dist = marginal_distribution(kept, ft)
print("marginal over", [t.normalized for t in kept], "->", np.round(dist, 3))
assert abs(dist.sum() - 1.0) < 1e-9

# =========================================================================
# 3. Token vectors live in a binary store keyed by (instance, window, role).
# =========================================================================

rng = np.random.default_rng(0)
store = EmbeddingStore(dim=8)
for inst in corpus.instances:
    store.add_sentence(inst.question_id, QUESTION_WINDOW_ID, ROLE_Q,
                       rng.normal(size=(len(inst.question.tokens), 8)))
    for w in inst.windows:
        for sent, role in ((w.cand, ROLE_C), (w.prev, ROLE_P), (w.next, ROLE_N)):
            vecs = (np.zeros((1, 8)) if sent.is_padding
                    else rng.normal(size=(len(sent.tokens), 8)))
            store.add_sentence(inst.question_id, w.id, role, vecs)

store_path = workdir / "demo.emb"
write_embedding_store(store_path, store)
print("store bytes:", store_path.stat().st_size, "sentences:", len(store.sorted_items()),
      "token vectors:", store.num_records)

loaded = load_embedding_store(store_path)
vecs = loaded.stored_vectors("demo-1", "demo-1-a", ROLE_C)
print("candidate vector block:", vecs.shape)

print("\ncorpus demo OK")
