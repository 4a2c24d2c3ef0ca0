"""Seeded inputs for each benchmark workload.

Every workload draws its train, dev and held-out splits from one
``make_synthetic_corpus`` call, because the cluster centres depend on the
seed: a split made from another seed scores P@1 = 0 against the trained
checkpoint. The held-out split is the tail of the generated dev split. The
embedding store holds every split, as the single ``--embeddings`` file of a
real run does.

For ``rerank`` and ``eval_wide`` the checkpoint they score with is trained
here, during preparation, which is not timed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from otrank import Corpus, make_synthetic_corpus, save_corpus, write_embedding_store
from otrank.cli import main as otrank_main

N_CANDIDATES = 5
# Hyperparameters of the measured ``train`` command.
HYPERPARAMS = {"learning_rate": 1e-3, "batch_size": 64, "gamma": 0.3, "hidden_size": 400}
# The preparation checkpoints see few windows; smaller batches and a larger step
# give them enough updates that held-out MAP varies less with the seed.
PREP_HYPERPARAMS = {**HYPERPARAMS, "learning_rate": 3e-3, "batch_size": 16}


@dataclass(frozen=True)
class Workload:
    command: str  # the otrank subcommand that is measured
    n_train: int
    n_dev: int
    n_heldout: int
    dim: int
    epochs: int = 0  # epochs of the measured ``train`` command
    prep_questions: int = 0  # train questions the preparation checkpoint learns from
    prep_epochs: int = 0


WORKLOADS = {
    # Commands are sized to a few seconds, so that a run holds several repetitions
    # and reports their median.
    # 40 train + 10 dev questions. 30 epochs put most of the time in the training
    # step (forward, hand-written backward, MI term, Adam); the corpus is aligned
    # once per command.
    "train": Workload("train", n_train=40, n_dev=10, n_heldout=0, dim=16, epochs=30),
    # 100 questions, 500 windows, 1500 alignments at d=16: almost pure Sinkhorn, no
    # backward pass and a small store. Sinkhorn's iteration count depends on the
    # seed's sentences, so more questions per command narrow the spread over seeds.
    "rerank": Workload("rerank", n_train=60, n_dev=0, n_heldout=100, dim=16,
                       prep_questions=60, prep_epochs=5),
    # BERT width: the store (every split, about 55 MB) makes loading byte-bound and
    # the forward pass matmul-bound. ``eval --per-question`` aligns the split twice.
    # The checkpoint learns from 20 questions only, to keep preparation short.
    "eval_wide": Workload("eval", n_train=200, n_dev=0, n_heldout=50, dim=768,
                          prep_questions=20, prep_epochs=3),
}


def _write_config(path: Path, hyperparams: dict, **entries) -> Path:
    path.write_text(json.dumps({**hyperparams, **entries}, sort_keys=True, indent=2) + "\n",
                    "utf-8")
    return path


def _train(config: Path) -> None:
    rc = otrank_main(["train", "--config", str(config)])
    if rc != 0:
        raise RuntimeError(f"preparation training exited with {rc}")


def prepare(name: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of workload ``name`` into ``workdir``; return the manifest."""
    wl = WORKLOADS[name]
    train, generated_dev, store = make_synthetic_corpus(
        n_train=wl.n_train, n_dev=wl.n_dev + wl.n_heldout, n_candidates=N_CANDIDATES,
        dim=wl.dim, seed=seed,
    )
    dev = Corpus(instances=generated_dev.instances[: wl.n_dev], split="dev")
    heldout = Corpus(instances=generated_dev.instances[wl.n_dev :], split="test")

    emb = workdir / "emb.bin"
    write_embedding_store(emb, store)
    files = {"embeddings": str(emb)}
    for split, corpus in (("train", train), ("dev", dev), ("heldout", heldout)):
        if corpus.instances:
            files[split] = str(workdir / f"{split}.jsonl")
            save_corpus(corpus, files[split])

    def windows(corpus: Corpus) -> int:
        return sum(len(inst.windows) for inst in corpus.instances)

    manifest = {"params": asdict(wl), "files": files}

    if wl.command == "train":
        files["checkpoint"] = str(workdir / "model.ckpt")
        files["log"] = str(workdir / "train_log.jsonl")
        config = _write_config(
            workdir / "train_config.json", HYPERPARAMS, train_corpus=files["train"],
            dev_corpus=files["dev"], embeddings=str(emb), checkpoint_out=files["checkpoint"],
            log_out=files["log"], epochs=wl.epochs, seed=seed,
        )
        manifest["argv"] = ["train", "--config", str(config)]
        manifest["setup_corpora"] = [[files["train"], "train"], [files["dev"], "dev"]]
        manifest["setup_checkpoint"] = None
        manifest["work_windows"] = windows(train) * wl.epochs
    else:
        prep_train = workdir / "prep_train.jsonl"
        save_corpus(Corpus(instances=train.instances[: wl.prep_questions], split="train"),
                    prep_train)
        files["checkpoint"] = str(workdir / "model.ckpt")
        _train(_write_config(
            workdir / "prep_config.json", PREP_HYPERPARAMS, train_corpus=str(prep_train),
            embeddings=str(emb), checkpoint_out=files["checkpoint"], epochs=wl.prep_epochs,
            seed=seed,
        ))
        common = ["--checkpoint", files["checkpoint"], "--split", files["heldout"],
                  "--embeddings", str(emb)]
        if wl.command == "rerank":
            files["rankings"] = str(workdir / "rankings.jsonl")
            manifest["argv"] = ["rerank", *common, "--out", files["rankings"]]
        else:
            files["report"] = str(workdir / "report.json")
            files["per_question"] = str(workdir / "per_question.tsv")
            manifest["argv"] = ["eval", *common, "--out", files["report"],
                                "--per-question", files["per_question"]]
        manifest["setup_corpora"] = [[files["heldout"], "test"]]
        manifest["setup_checkpoint"] = files["checkpoint"]
        manifest["work_windows"] = windows(heldout)

    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", "utf-8")
    return manifest
