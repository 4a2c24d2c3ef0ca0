"""Shared fixtures: a small handcrafted corpus and a deterministic embedding store."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otrank.cli
from otrank.corpus import Corpus, load_corpus, save_corpus
from otrank.embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_C,
    ROLE_N,
    ROLE_P,
    ROLE_Q,
    EmbeddingStore,
    build_frequency_table,
    write_embedding_store,
)
from otrank.model import param_tensors
from otrank.synthetic import make_synthetic_corpus

TINY_RECORDS = [
    {
        "question_id": "q1",
        "question": "Which planet has the most moons ?",
        "candidates": [
            {
                "id": "q1-w1",
                "text": "Saturn holds the record for confirmed moons .",
                "label": 1,
                "prev": "Astronomers keep refining satellite counts .",
                "prev_label": 0,
                "next": "Jupiter follows closely behind .",
                "next_label": 0,
            },
            {
                "id": "q1-w2",
                "text": "Mars has two small moons .",
                "label": 0,
                "prev": None,
                "prev_label": None,
                "next": "Both are named after Greek figures .",
                "next_label": None,
            },
        ],
    },
    {
        "question_id": "q2",
        "question": "Who composed the opera Carmen ?",
        "candidates": [
            {
                "id": "q2-w1",
                "text": "Georges Bizet composed Carmen in 1875 .",
                "label": 1,
                "prev": None,
                "prev_label": None,
                "next": None,
                "next_label": None,
            },
            {
                "id": "q2-w2",
                "text": "The opera premiered in Paris .",
                "label": 0,
                "prev": "Carmen is set in Seville .",
                "prev_label": None,
                "next": None,
                "next_label": None,
            },
            {
                "id": "q2-w3",
                "text": "Verdi composed many famous operas .",
                "label": 0,
                "prev": "Opera houses stage revivals every year .",
                "prev_label": 0,
                "next": "His works remain popular worldwide .",
                "next_label": 0,
            },
        ],
    },
]

TINY_DIM = 4


def write_tiny_jsonl(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in TINY_RECORDS:
            fh.write(json.dumps(rec) + "\n")


def build_tiny_store(corpus: Corpus, dim: int = TINY_DIM, seed: int = 42) -> EmbeddingStore:
    """Seeded random vectors for every token of the corpus; zeros for padding."""
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim=dim)
    for inst in corpus.instances:
        store.add_sentence(
            inst.question_id, QUESTION_WINDOW_ID, ROLE_Q,
            rng.normal(size=(len(inst.question.tokens), dim)),
        )
        for w in inst.windows:
            for sent, role in ((w.cand, ROLE_C), (w.prev, ROLE_P), (w.next, ROLE_N)):
                if sent.is_padding:
                    store.add_sentence(inst.question_id, w.id, role, np.zeros((1, dim)))
                else:
                    store.add_sentence(
                        inst.question_id, w.id, role,
                        rng.normal(size=(len(sent.tokens), dim)),
                    )
    return store


def assert_scorer_loaded(loaded, saved) -> None:
    """``loaded`` (parameters read back from a checkpoint) holds the scorer's
    tensors of ``saved`` bit for bit, and a zero discriminator, which a
    checkpoint does not store."""
    want = param_tensors(saved)
    for name, t in param_tensors(loaded).items():
        if name.startswith("disc."):
            assert not t.any(), name
        else:
            np.testing.assert_array_equal(t, want[name], strict=True, err_msg=name)


def run_one_blas_thread(argv):
    """Run ``otrank argv`` in a child on one BLAS thread, as the benchmark does;
    two threads give other bits."""
    src = str(Path(otrank.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "otrank.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="session")
def tiny_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.jsonl"
    write_tiny_jsonl(path)
    return path


@pytest.fixture(scope="session")
def tiny_corpus(tiny_corpus_path):
    return load_corpus(tiny_corpus_path, split="train")


@pytest.fixture(scope="session")
def tiny_store(tiny_corpus):
    return build_tiny_store(tiny_corpus)


@pytest.fixture(scope="session")
def tiny_ft(tiny_corpus):
    return build_frequency_table(tiny_corpus)


@pytest.fixture(scope="session")
def bench_train_inputs(tmp_path_factory):
    """The benchmark's ``train`` inputs for seed 1 (``perfbench/inputs.py``): the
    generated train and dev splits and their embedding store, as files by name."""
    td = tmp_path_factory.mktemp("bench_train")
    train, dev, store = make_synthetic_corpus(n_train=40, n_dev=10, n_candidates=5, dim=16,
                                              seed=1)
    paths = {"train": td / "train.jsonl", "dev": td / "dev.jsonl", "emb": td / "emb.bin"}
    save_corpus(train, paths["train"])
    save_corpus(dev, paths["dev"])
    write_embedding_store(paths["emb"], store)
    return paths


@pytest.fixture(scope="session")
def bench_rerank_inputs(tmp_path_factory):
    """The benchmark's ``rerank`` inputs for seed 1 (``perfbench/inputs.py``): the
    60 generated train questions its checkpoint learns from in preparation, the 100
    held-out questions it ranks and the store that holds both, as files by name."""
    td = tmp_path_factory.mktemp("bench_rerank")
    train, heldout, store = make_synthetic_corpus(n_train=60, n_dev=100, n_candidates=5,
                                                  dim=16, seed=1)
    paths = {"train": td / "prep_train.jsonl", "heldout": td / "heldout.jsonl",
             "emb": td / "emb.bin"}
    save_corpus(train, paths["train"])
    save_corpus(Corpus(instances=heldout.instances, split="test"), paths["heldout"])
    write_embedding_store(paths["emb"], store)
    return paths


@pytest.fixture(scope="session")
def bench_eval_wide_inputs(tmp_path_factory):
    """The benchmark's ``eval_wide`` inputs for seed 1 (``perfbench/inputs.py``): the
    50 held-out questions it scores at d=768, the store that holds them and the 200
    generated train questions, and the checkpoint its preparation trains on the first
    20 of those (perfbench's PREP_HYPERPARAMS, 3 epochs, one BLAS thread), as files
    by name."""
    td = tmp_path_factory.mktemp("bench_eval_wide")
    train, heldout, store = make_synthetic_corpus(n_train=200, n_dev=50, n_candidates=5,
                                                  dim=768, seed=1)
    paths = {"train": td / "prep_train.jsonl", "heldout": td / "heldout.jsonl",
             "emb": td / "emb.bin", "ckpt": td / "model.ckpt"}
    save_corpus(Corpus(instances=train.instances[:20], split="train"), paths["train"])
    save_corpus(Corpus(instances=heldout.instances, split="test"), paths["heldout"])
    write_embedding_store(paths["emb"], store)
    cfg = td / "prep_config.json"
    cfg.write_text(json.dumps({"train_corpus": str(paths["train"]),
                               "embeddings": str(paths["emb"]),
                               "checkpoint_out": str(paths["ckpt"]), "learning_rate": 3e-3,
                               "batch_size": 16, "gamma": 0.3, "hidden_size": 400, "epochs": 3,
                               "seed": 1}))
    run_one_blas_thread(["train", "--config", str(cfg)])
    return paths
