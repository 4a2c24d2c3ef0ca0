"""``otrank`` command line: frequency building, training, reranking, evaluation,
alignment inspection, and the gradient audit.

Exit codes: 0 success, 1 validation error (bad inputs, failed audit),
2 unexpected runtime failure. ``train`` reads every setting from its config
file (config file > built-in defaults); a diverging run exits 1. Set
``OTRANK_LOG`` to error/warn/info/debug to control verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import Corpus, load_corpus
from .embeddings import build_frequency_table, load_embedding_store
from .errors import EmptyInputError, OtrankError
# evaluate, extract_instance_features and window_forward are not called here, and
# model imports align_sentence without calling it: the benchmark's tracer
# (perfbench/tracing.py) wraps them as attributes of these modules, reached only
# through these imports. tests/test_surface.py checks that every trace target resolves.
from .metrics import evaluate, mean_report, per_question_rows, rank_questions  # noqa: F401
from .model import align_windows, extract_instance_features, window_forward  # noqa: F401
from .model import instance_windows, store_keys
from .training import TrainConfig, gradcheck, load_checkpoint, save_checkpoint, train

logger = logging.getLogger("otrank")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("OTRANK_LOG", "warn").lower()
    if level not in _LOG_LEVELS:
        raise OtrankError(f"OTRANK_LOG must be one of {sorted(_LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(
        level=_LOG_LEVELS[level],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise OtrankError(f"{what} not found: {p}")
    return p


def _require_parent(path: str | None, what: str, required: str | None = None) -> Path | None:
    """``path`` once its directory is known to exist and it is not a directory itself;
    None when no path is given, unless ``required`` names the option that must give it."""
    if not path:
        if required:
            raise OtrankError(f"{required} needs a path for the {what}, got an empty one")
        return None
    p = Path(path)
    if not p.parent.is_dir():
        raise OtrankError(f"output directory for {what} does not exist: {p.parent}")
    if p.is_dir():
        raise OtrankError(f"output path for {what} is a directory: {p}")
    return p


def _require_distinct(outputs, inputs) -> None:
    """Reject an output path that resolves to another output or to an input, naming
    both; each argument lists ``(name, path or None)`` pairs."""
    outs = [(name, Path(path)) for name, path in outputs if path]
    others = outs + [(name, Path(path)) for name, path in inputs if path]
    for k, (name, path) in enumerate(outs):
        for other, other_path in others[k + 1:]:
            if path.resolve() == other_path.resolve():
                raise OtrankError(f"{name} and {other} name the same file: {path}")


def _dump_json(obj, out: Path | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        out.write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _cmd_build_freq(args) -> int:
    out = _require_parent(args.out, "frequency table", required="--out")
    _require_distinct([("--out", out)], [("--train", args.train)])
    corpus = load_corpus(_require_file(args.train, "training corpus"), split="train")
    ft = build_frequency_table(corpus)
    _dump_json({"counts": ft.counts, "num_questions": ft.num_questions}, out)
    logger.info("wrote frequency table for %d questions to %s", ft.num_questions, out)
    return 0


_CONFIG_PATH_KEYS = ("train_corpus", "dev_corpus", "embeddings", "checkpoint_out", "log_out")


def _cmd_train(args) -> int:
    cfg_path = _require_file(args.config, "config file")
    try:
        raw = json.loads(cfg_path.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON
        raise OtrankError(f"config file {cfg_path} is not valid JSON: "
                          f"{getattr(exc, 'msg', exc)}") from exc
    if not isinstance(raw, dict):
        raise OtrankError(f"config file {cfg_path} must hold a JSON object")

    paths = {k: raw.pop(k, None) for k in _CONFIG_PATH_KEYS}
    for key, value in paths.items():
        if value is not None and not isinstance(value, str):
            raise OtrankError(f"config key {key!r} must be a path string, not {json.dumps(value)}")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(raw) - known
    if unknown:
        raise OtrankError(f"unknown config keys: {sorted(unknown)}")
    try:
        cfg = TrainConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise OtrankError(f"bad training configuration: {exc}") from exc

    for key in ("train_corpus", "embeddings", "checkpoint_out"):
        if not paths.get(key):
            raise OtrankError(f"config file must set {key!r}")
    train_path = _require_file(paths["train_corpus"], "training corpus")
    emb_path = _require_file(paths["embeddings"], "embedding store")
    ckpt_out = _require_parent(paths["checkpoint_out"], "checkpoint")
    log_out = _require_parent(paths["log_out"], "training log")
    _require_distinct([("'checkpoint_out'", ckpt_out), ("'log_out'", log_out)],
                      [(f"'{key}'", paths[key]) for key in ("train_corpus", "dev_corpus",
                                                            "embeddings")]
                      + [("--config", cfg_path)])
    dev = (
        load_corpus(_require_file(paths["dev_corpus"], "dev corpus"), split="dev")
        if paths.get("dev_corpus")
        else None
    )

    logger.info("effective config: %s", json.dumps(dataclasses.asdict(cfg), sort_keys=True))
    corpus = load_corpus(train_path, split="train")
    scored = corpus.instances + (dev.instances if dev else ())
    store = load_embedding_store(emb_path, store_keys(instance_windows(scored)))
    try:
        result = train(corpus, store, cfg, dev_corpus=dev)
    except FloatingPointError as exc:
        raise OtrankError(f"training diverged with learning_rate = {cfg.learning_rate!r} and "
                          f"gamma = {cfg.gamma!r}: {exc}") from exc
    save_checkpoint(ckpt_out, result.best)
    if log_out:
        with log_out.open("w", encoding="utf-8") as fh:
            for rec in result.history:
                fh.write(json.dumps(dataclasses.asdict(rec), sort_keys=True, allow_nan=False)
                         + "\n")
    logger.info("saved checkpoint (epoch %d) to %s", result.best.epoch, ckpt_out)
    return 0


def _load_eval_inputs(args, outputs, splits: list[str], tsv_ids: bool = False,
                      items=instance_windows):
    """The ``splits`` as one test corpus, then the checkpoint, then the store's
    sentences of the ``items(instances)`` it scores (its every window by default);
    first checks that no path of ``outputs`` names an input and that several
    ``splits`` (only ``eval`` takes several) come with --combine-dev-test. With
    ``tsv_ids``, a question id that holds a tab or a line break is rejected as the
    split is read. Returns the corpus, the checkpoint, the store and the items."""
    _require_distinct(outputs, [("--split", sp) for sp in splits]
                      + [("--checkpoint", args.checkpoint), ("--embeddings", args.embeddings)])
    if len(splits) > 1 and not args.combine_dev_test:
        raise OtrankError("multiple --split files require --combine-dev-test")
    instances = []
    source = {}  # question_id -> the split file that holds it
    for sp in splits:
        for inst in load_corpus(_require_file(sp, "corpus split"), split="test").instances:
            if inst.question_id in source:
                raise OtrankError(f"question_id {inst.question_id!r} is in both "
                                  f"{source[inst.question_id]} and {sp}")
            if tsv_ids and any(c in inst.question_id for c in "\t\n\r"):
                raise OtrankError(f"question_id {inst.question_id!r} in {sp} holds a tab or a "
                                  "line break, which the --per-question TSV cannot hold")
            source[inst.question_id] = sp
            instances.append(inst)
    if not instances:
        raise EmptyInputError(f"no questions to score in {', '.join(splits)}")
    ckpt = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    scored = items(instances)
    store = load_embedding_store(_require_file(args.embeddings, "embedding store"),
                                 store_keys(scored))
    return Corpus(instances=tuple(instances), split="test"), ckpt, store, scored


def _cmd_rerank(args) -> int:
    out = _require_parent(args.out, "rankings", required="--out")
    corpus, ckpt, store, _ = _load_eval_inputs(args, [("--out", out)], [args.split])
    rankings = rank_questions(corpus.instances, ckpt, store)
    with out.open("w", encoding="utf-8") as fh:
        for inst, ranking in zip(corpus.instances, rankings):
            fh.write(
                json.dumps(
                    {
                        "question_id": inst.question_id,
                        "ranking": [{"window_id": wid, "score": s} for wid, s in ranking],
                    },
                    sort_keys=True,
                    allow_nan=False,
                )
                + "\n"
            )
    logger.info("wrote rankings for %d questions to %s", len(corpus.instances), out)
    return 0


def _cmd_eval(args) -> int:
    out = _require_parent(args.out, "report")
    per_question = _require_parent(args.per_question, "per-question TSV")
    corpus, ckpt, store, _ = _load_eval_inputs(
        args, [("--out", out), ("--per-question", per_question)], args.split,
        tsv_ids=per_question is not None)
    rows = per_question_rows(corpus, ckpt, store)
    report = mean_report(rows)
    _dump_json(
        {
            "p_at_1": report.p_at_1,
            "map": report.map,
            "mrr": report.mrr,
            "questions": report.num_questions_evaluated,
        },
        out,
    )
    if per_question:
        with per_question.open("w", encoding="utf-8") as fh:
            fh.write("question_id\tp_at_1\tap\trr\n")
            for qid, p1, ap, rr in rows:
                fh.write(f"{qid}\t{p1}\t{ap!r}\t{rr!r}\n")
    return 0


def _cmd_align(args) -> int:
    out = _require_parent(args.out, "report")

    def the_window(instances):
        inst = next((i for i in instances if i.question_id == args.question_id), None)
        if inst is None:
            raise OtrankError(f"question {args.question_id!r} not found in {args.split}")
        window = next((w for w in inst.windows if w.id == args.window_id), None)
        if window is None:
            raise OtrankError(
                f"window {args.window_id!r} not found under question {args.question_id!r}"
            )
        return [(inst.question, window, inst.question_id)]

    _, ckpt, store, items = _load_eval_inputs(args, [("--out", out)], [args.split],
                                              items=the_window)
    results = align_windows(items, store, ckpt.freq_table, ckpt.config.sinkhorn_settings())
    _, window, question_id = items[0]
    sentences = (window.cand, window.prev, window.next)
    roles = ("candidate", "prev", "next")
    report = {"question_id": question_id, "window_id": window.id, "pairs": []}
    for role, sent, res in zip(roles, sentences, results):
        surfaces = [sent.tokens[res.sentence_token_indices[j]].surface for j in res.relevant]
        report["pairs"].append(
            {
                "role": role,
                "is_padding": sent.is_padding,
                "plan": [[float(v) for v in row] for row in res.plan.plan],
                "converged": res.plan.converged,
                "iterations": res.plan.iterations_used,
                "cost": res.cost,
                "relevant": [
                    {"index": int(j), "surface": s} for j, s in zip(res.relevant, surfaces)
                ],
                "representation_norm": float(
                    (res.representation ** 2).sum() ** 0.5
                ),
            }
        )
    _dump_json(report, out)
    return 0


def _cmd_gradcheck(args) -> int:
    out = _require_parent(args.out, "report")
    if args.seed < 0:
        raise OtrankError(f"--seed must be nonnegative, got {args.seed}")
    report = gradcheck(seed=args.seed)
    _dump_json(
        {
            "per_tensor_max_rel_err": report.per_tensor,
            "max_rel_err": report.max_rel_err,
            "threshold": report.threshold,
            "step": report.step,
            "ok": report.ok,
        },
        out,
    )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otrank",
        description="Score and rerank answer-candidate sentences with "
        "optimal-transport alignment features.",
    )
    parser.add_argument("--version", action="version", version=f"otrank {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, **kw):
        # every subcommand shows flag defaults in --help
        kw.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        return subparsers.add_parser(name, **kw)

    p = subcommand("build-freq", help="build the question word-frequency table")
    p.add_argument("--train", required=True, help="training corpus JSONL")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_build_freq)

    p = subcommand("train", help="train a model from a JSON config file")
    p.add_argument("--config", required=True,
                   help="JSON config with paths and hyperparameters")
    p.set_defaults(func=_cmd_train)

    p = subcommand("rerank", help="write per-question rankings as JSONL")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--split", required=True, help="corpus JSONL to rerank")
    p.add_argument("--embeddings", required=True, help="binary embedding store")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_rerank)

    p = subcommand("eval", help="compute P@1 / MAP / MRR on a split")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--split", required=True, action="append",
                   help="corpus JSONL (repeat with --combine-dev-test to pool splits)")
    p.add_argument("--embeddings", required=True, help="binary embedding store")
    p.add_argument("--combine-dev-test", action="store_true",
                   help="pool all --split files into one report")
    p.add_argument("--out", default=None, help="JSON report path (stdout when omitted)")
    p.add_argument("--per-question", default=None, help="optional per-question TSV path")
    p.set_defaults(func=_cmd_eval)

    p = subcommand("align", help="inspect the transport alignment for one window")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--split", required=True, help="corpus JSONL holding the window")
    p.add_argument("--embeddings", required=True, help="binary embedding store")
    p.add_argument("--question-id", required=True, help="question to inspect")
    p.add_argument("--window-id", required=True, help="candidate window to inspect")
    p.add_argument("--out", default=None, help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_align)

    p = subcommand("gradcheck", help="finite-difference audit of the gradients")
    p.add_argument("--seed", type=int, default=0, help="seed for the random micro-model")
    p.add_argument("--out", default=None, help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse: 0 for --help/--version, 2 for usage errors
            return 0 if exc.code in (0, None) else 1
        return args.func(args)
    except OtrankError as exc:
        logger.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, FloatingPointError, OSError) as exc:
        logger.exception("command failed")
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
