"""Command-line surface: commands, exit codes, idempotence, validation."""

import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otrank.cli
from otrank.cli import build_parser, main
from otrank.corpus import load_corpus
from otrank.embeddings import (
    QUESTION_WINDOW_ID,
    EmbeddingStore,
    build_frequency_table,
    load_embedding_store,
    write_embedding_store,
)
from otrank.metrics import rank_questions
from otrank.model import align_windows, init_model_params, instance_windows, scorer_size, store_keys
from otrank.errors import CheckpointError
from otrank.training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint

from conftest import (
    TINY_RECORDS,
    assert_scorer_loaded,
    build_tiny_store,
    run_one_blas_thread,
    write_tiny_jsonl,
)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Tiny corpus + serialized store + a pinned init-parameter checkpoint."""
    td = tmp_path_factory.mktemp("cli")
    corpus_path = td / "tiny.jsonl"
    write_tiny_jsonl(corpus_path)
    corpus = load_corpus(corpus_path, split="train")
    store = build_tiny_store(corpus)
    emb_path = td / "emb.bin"
    write_embedding_store(emb_path, store)
    ft = build_frequency_table(corpus)
    cfg = TrainConfig(hidden_size=5, gcn_layers=2)
    params = init_model_params(np.random.default_rng(7), store.dim, 5, 2)
    ckpt = Checkpoint(params=params, config=cfg, epoch=0, freq_table=ft)
    ckpt_path = td / "pin.ckpt"
    save_checkpoint(ckpt_path, ckpt)
    no_ft_path = td / "no_ft.ckpt"
    _rewrite_meta(ckpt_path, no_ft_path, lambda m: m.update(freq_table=None))
    return {"dir": td, "corpus": corpus_path, "emb": emb_path, "ckpt": ckpt_path,
            "no_ft_ckpt": no_ft_path, "store": store}


class TestBuildFreq:
    def test_writes_counts_and_total(self, cli_env, tmp_path):
        out = tmp_path / "freq.json"
        rc = main(["build-freq", "--train", str(cli_env["corpus"]), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["num_questions"] == 2
        assert data["counts"]["the"] == 2

    def test_missing_corpus_exits_one(self, tmp_path, capsys):
        rc = main(["build-freq", "--train", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1
        assert "nope.jsonl" in capsys.readouterr().err


class TestEval:
    def test_golden_report(self, cli_env, tmp_path):
        # Pinned from the reference run of the fixture checkpoint.
        out = tmp_path / "report.json"
        rc = main([
            "eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text()) == {
            "map": 0.75, "mrr": 0.75, "p_at_1": 0.5, "questions": 2,
        }

    def test_rerun_byte_identical(self, cli_env, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "eval", "--checkpoint", str(cli_env["ckpt"]),
                "--split", str(cli_env["corpus"]),
                "--embeddings", str(cli_env["emb"]), "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_per_question_tsv(self, cli_env, tmp_path):
        tsv = tmp_path / "per_q.tsv"
        rc = main([
            "eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--out", str(tmp_path / "r.json"),
            "--per-question", str(tsv),
        ])
        assert rc == 0
        lines = tsv.read_text().strip().splitlines()
        assert lines[0] == "question_id\tp_at_1\tap\trr"
        assert len(lines) == 3

    @pytest.mark.parametrize("qid", ["dev\tq0000", "dev\nq0000", "dev\rq0000"],
                             ids=["tab", "lf", "cr"])
    def test_per_question_id_with_a_tab_or_line_break_exits_one(self, qid, cli_env, tmp_path,
                                                                 capsys):
        split = tmp_path / "odd.jsonl"
        split.write_text("".join(json.dumps({**rec, "question_id": f"{qid}{k}"}) + "\n"
                                 for k, rec in enumerate(TINY_RECORDS)))
        out, tsv = tmp_path / "r.json", tmp_path / "per_q.tsv"
        rc = main(["eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(split),
                   "--embeddings", str(cli_env["emb"]), "--out", str(out),
                   "--per-question", str(tsv)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"question_id {qid + '0'!r} in {split}" in err and "Traceback" not in err
        assert not out.exists() and not tsv.exists()

    def test_combined_splits(self, cli_env, tmp_path):
        rc = main([
            "eval", "--checkpoint", str(cli_env["ckpt"]),
            "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]),
            "--combine-dev-test", "--out", str(tmp_path / "c.json"),
        ])
        assert rc == 0

    def test_question_in_two_split_files_rejected(self, cli_env, tmp_path, capsys):
        again = tmp_path / "again.jsonl"
        again.write_bytes(cli_env["corpus"].read_bytes())
        rc = main([
            "eval", "--checkpoint", str(cli_env["ckpt"]),
            "--split", str(cli_env["corpus"]), "--split", str(again),
            "--embeddings", str(cli_env["emb"]),
            "--combine-dev-test", "--out", str(tmp_path / "c.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "'q1'" in err and str(cli_env["corpus"]) in err and str(again) in err
        assert not (tmp_path / "c.json").exists()

    def test_two_splits_without_flag_rejected(self, cli_env, tmp_path, capsys):
        rc = main([
            "eval", "--checkpoint", str(cli_env["ckpt"]),
            "--split", str(cli_env["corpus"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 1
        assert "combine-dev-test" in capsys.readouterr().err

    def test_two_splits_without_flag_rejected_before_loading(self, cli_env, tmp_path, capsys):
        # The usage error, not the error of the checkpoint it would have loaded.
        bad = tmp_path / "corrupt.ckpt"
        bad.write_bytes(_set_byte(cli_env["ckpt"].read_bytes(), 100, 0))
        rc = main([
            "eval", "--checkpoint", str(bad),
            "--split", str(cli_env["corpus"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--out", str(tmp_path / "x.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "multiple --split files require --combine-dev-test" in err
        assert "corrupt.ckpt" not in err and "Traceback" not in err

    def test_missing_embeddings_names_path(self, cli_env, tmp_path, capsys):
        missing = tmp_path / "ghost.bin"
        rc = main([
            "eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(missing),
        ])
        assert rc == 1
        assert "ghost.bin" in capsys.readouterr().err


class TestRerank:
    def test_writes_rankings(self, cli_env, tmp_path):
        out = tmp_path / "rank.jsonl"
        rc = main([
            "rerank", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--out", str(out),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["question_id"] for r in lines] == ["q1", "q2"]
        scores = [c["score"] for c in lines[0]["ranking"]]
        assert scores == sorted(scores, reverse=True)

    def test_rerun_byte_identical(self, cli_env, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main([
                "rerank", "--checkpoint", str(cli_env["ckpt"]),
                "--split", str(cli_env["corpus"]),
                "--embeddings", str(cli_env["emb"]), "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_embedding_file(self, cli_env, tmp_path, capsys):
        rc = main([
            "rerank", "--checkpoint", str(cli_env["ckpt"]),
            "--split", str(cli_env["corpus"]),
            "--embeddings", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert rc == 1
        assert "absent.bin" in capsys.readouterr().err


class TestAlign:
    def test_report_structure(self, cli_env, tmp_path):
        out = tmp_path / "align.json"
        rc = main([
            "align", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--question-id", "q1",
            "--window-id", "q1-w2", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["question_id"] == "q1"
        assert [p["role"] for p in report["pairs"]] == ["candidate", "prev", "next"]
        prev = report["pairs"][1]
        assert prev["is_padding"] is True
        assert prev["cost"] == 0.0
        cand = report["pairs"][0]
        assert cand["converged"] is True
        assert all(v >= 0 for row in cand["plan"] for v in row)
        assert {r["surface"] for r in cand["relevant"]} <= {"Mars", "moons", "small", "two"}

    def test_unknown_question_id(self, cli_env, capsys):
        rc = main([
            "align", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--question-id", "zzz",
            "--window-id", "q1-w1",
        ])
        assert rc == 1
        assert "zzz" in capsys.readouterr().err

    def test_window_the_question_lacks(self, cli_env, capsys):
        rc = main([
            "align", "--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
            "--embeddings", str(cli_env["emb"]), "--question-id", "q1",
            "--window-id", "q2-w1",  # a window of another question
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "window 'q2-w1' not found under question 'q1'" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def h400_env(bench_train_inputs, tmp_path_factory):
    """The benchmark's d=16 train split and store, with an untrained checkpoint of
    hidden 400: the setting in which a window's score is bitwise its score alone."""
    td = tmp_path_factory.mktemp("h400")
    train = load_corpus(bench_train_inputs["train"], split="train")
    params = init_model_params(np.random.default_rng(11), 16, 400, 2)
    ckpt = td / "h400.ckpt"
    save_checkpoint(ckpt, Checkpoint(params=params, config=TrainConfig(hidden_size=400),
                                     epoch=0, freq_table=build_frequency_table(train)))
    return {"ckpt": ckpt, "emb": bench_train_inputs["emb"],
            "lines": bench_train_inputs["train"].read_text().splitlines(keepends=True)}


@pytest.fixture(scope="module")
def h400_whole(h400_env, bench_train_inputs):
    """The questions of the benchmark's d=16 train split, the hidden-400 checkpoint,
    the store's path, and each question's ranking within the whole split, by id."""
    instances = load_corpus(bench_train_inputs["train"], split="test").instances
    ckpt = load_checkpoint(h400_env["ckpt"])
    rankings = rank_questions(instances, ckpt, load_embedding_store(h400_env["emb"]))
    return (instances, ckpt, h400_env["emb"],
            {inst.question_id: ranking for inst, ranking in zip(instances, rankings)})


class TestSplitInvariance:
    """A question's output does not depend on the rest of its split: the keyed store
    load, the split's shape groups, the forward chunks and the ranking give each
    question the bytes it gets in any other split that holds it."""

    @staticmethod
    def _parts(lines):
        half = len(lines) // 2
        return {"reversed": [lines[::-1]], "halves": [lines[:half], lines[half:]],
                "single": [[line] for line in lines[:3]]}

    @staticmethod
    def _by_question(command, env, tmp_path, lines, name):
        """``command``'s output lines for the split of ``lines``, by question id."""
        split, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.out"
        split.write_text("".join(lines))
        argv = [command, "--checkpoint", str(env["ckpt"]), "--split", str(split),
                "--embeddings", str(env["emb"])]
        if command == "rerank":
            assert main(argv + ["--out", str(out)]) == 0
            rows = out.read_text().splitlines()
            return {json.loads(row)["question_id"]: row for row in rows}
        assert main(argv + ["--out", str(tmp_path / f"{name}.json"),
                            "--per-question", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        return {row.split("\t")[0]: row for row in rows}

    @pytest.mark.parametrize("command", ["rerank", "eval"])
    def test_each_question_writes_the_same_bytes(self, command, h400_env, tmp_path):
        whole = self._by_question(command, h400_env, tmp_path, h400_env["lines"], "whole")
        assert len(whole) == len(h400_env["lines"])
        for edit, parts in self._parts(h400_env["lines"]).items():
            got = {}
            for k, lines in enumerate(parts):
                got.update(self._by_question(command, h400_env, tmp_path, lines, f"{edit}{k}"))
            assert got == {qid: whole[qid] for qid in got}, edit
            assert len(got) == sum(map(len, parts))

    def test_align_writes_what_the_whole_split_gives_its_window(self, h400_env, tmp_path):
        split = tmp_path / "whole.jsonl"
        split.write_text("".join(h400_env["lines"]))
        items = instance_windows(load_corpus(split, split="test").instances)
        ckpt = load_checkpoint(h400_env["ckpt"])
        whole = align_windows(items, load_embedding_store(h400_env["emb"]), ckpt.freq_table,
                              ckpt.config.sinkhorn_settings())
        for i in (0, 1, 57, len(items) - 1):
            _, window, qid = items[i]
            out = tmp_path / f"align{i}.json"
            assert main(["align", "--checkpoint", str(h400_env["ckpt"]), "--split", str(split),
                         "--embeddings", str(h400_env["emb"]), "--question-id", qid,
                         "--window-id", window.id, "--out", str(out)]) == 0
            pairs = json.loads(out.read_text())["pairs"]
            for r, pair in enumerate(pairs):
                res = whole[3 * i + r]
                # JSON writes each float's repr, which reads back to the same double.
                assert pair["plan"] == res.plan.plan.tolist()
                assert (pair["iterations"], pair["converged"]) == (res.plan.iterations_used,
                                                                   res.plan.converged)
                assert pair["cost"] == res.cost
                assert [rel["index"] for rel in pair["relevant"]] == list(res.relevant)
                assert pair["representation_norm"] == float((res.representation ** 2).sum()
                                                            ** 0.5)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rank_questions_ranks_a_question_alike_in_any_subsplit(self, h400_whole, data):
        instances, ckpt, emb, whole = h400_whole
        order = data.draw(st.permutations(range(len(instances))))
        part = [instances[k] for k in order[:data.draw(st.integers(1, len(instances)))]]
        store = load_embedding_store(emb, store_keys(instance_windows(part)))
        rankings = rank_questions(part, ckpt, store)
        assert [(inst.question_id, ranking) for inst, ranking in zip(part, rankings)] == [
            (inst.question_id, whole[inst.question_id]) for inst in part]

    def test_combined_dev_test_is_one_file_that_holds_both(self, h400_env, tmp_path):
        lines = h400_env["lines"]
        split = {name: tmp_path / f"{name}.jsonl" for name in ("both", "dev", "test")}
        split["both"].write_text("".join(lines))
        split["dev"].write_text("".join(lines[:len(lines) // 2]))
        split["test"].write_text("".join(lines[len(lines) // 2:]))
        outputs = []
        for splits in (["both"], ["dev", "test"]):
            out, tsv = tmp_path / f"{len(splits)}.json", tmp_path / f"{len(splits)}.tsv"
            argv = ["eval", "--checkpoint", str(h400_env["ckpt"]),
                    "--embeddings", str(h400_env["emb"]), "--combine-dev-test",
                    "--out", str(out), "--per-question", str(tsv)]
            for name in splits:
                argv += ["--split", str(split[name])]
            assert main(argv) == 0
            outputs.append((out.read_bytes(), tsv.read_bytes()))
        assert outputs[0] == outputs[1]


def _scoring_argv(command, cli_env, tmp_path, ckpt=None, emb=None, corpus=None):
    argv = [command, "--checkpoint", str(ckpt or cli_env["ckpt"]),
            "--split", str(corpus or cli_env["corpus"]),
            "--embeddings", str(emb or cli_env["emb"])]
    if command == "rerank":
        return argv + ["--out", str(tmp_path / "rank.jsonl")]
    if command == "align":
        return argv + ["--question-id", "q1", "--window-id", "q1-w1"]
    return argv


class TestBadScoringInputs:
    @pytest.mark.parametrize("command", ["rerank", "eval", "align"])
    def test_checkpoint_without_frequency_table(self, command, cli_env, tmp_path, monkeypatch,
                                                capsys):
        # The checkpoint's load rejects it, so the store is never read.
        with pytest.raises(CheckpointError, match="'freq_table' is null"):
            load_checkpoint(cli_env["no_ft_ckpt"])
        stores = []
        monkeypatch.setattr("otrank.cli.load_embedding_store", stores.append)
        rc = main(_scoring_argv(command, cli_env, tmp_path, ckpt=cli_env["no_ft_ckpt"]))
        captured = capsys.readouterr()
        assert rc == 1
        assert "frequency table" in captured.err
        assert captured.out == ""
        assert stores == []

    @pytest.mark.parametrize("key", [("q1", QUESTION_WINDOW_ID, "q"), ("q1", "q1-w1", "c")])
    def test_non_finite_embedding_names_its_key(self, key, cli_env, tmp_path, capsys):
        store = EmbeddingStore(dim=cli_env["store"].dim)
        for k, arr in cli_env["store"].sorted_items():
            arr = arr.copy()
            if k == key:
                arr[1, 0] = np.nan  # "planet" in the question, "holds" in the candidate
            store.add_sentence(*k, arr)
        emb = tmp_path / "nan.bin"
        write_embedding_store(emb, store)
        rc = main(_scoring_argv("rerank", cli_env, tmp_path, emb=emb))
        assert rc == 1
        assert str(key) in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,key,counts", [
        ("moons ?", "moons today ?", ("q1", QUESTION_WINDOW_ID, "q"), ("7 vectors", "8 tokens")),
        ("confirmed moons .", "confirmed moons today .", ("q1", "q1-w1", "c"),
         ("8 vectors", "9 tokens")),
    ], ids=["question", "candidate"])
    @pytest.mark.parametrize("command", ["rerank", "align"])
    def test_token_count_mismatch_names_its_key(self, command, old, new, key, counts, cli_env,
                                                tmp_path, capsys):
        # The corpus sentence has one word more than its store entry has vectors.
        bad = tmp_path / "longer.jsonl"
        bad.write_text(cli_env["corpus"].read_text().replace(old, new, 1))
        rc = main(_scoring_argv(command, cli_env, tmp_path, corpus=bad))
        err = capsys.readouterr().err
        assert rc == 1
        assert str(key) in err and all(c in err for c in counts)
        assert "Traceback" not in err


def _record_keys(records):
    """The store keys of the records' questions and non-padding sentences."""
    keys = set()
    for rec in records:
        qid = rec["question_id"]
        keys.add((qid, QUESTION_WINDOW_ID, "q"))
        for cand in rec["candidates"]:
            keys.add((qid, cand["id"], "c"))
            keys |= {(qid, cand["id"], role) for role, side in (("p", "prev"), ("n", "next"))
                     if cand[side] is not None}
    return keys


class TestStoreKeys:
    """Each command loads the store's sentences of what it scores, and no others."""

    @pytest.fixture
    def asked(self, monkeypatch):
        asked = []

        def spy(path, keys=None, _load=otrank.cli.load_embedding_store):
            asked.append(keys)
            return _load(path, keys)

        monkeypatch.setattr("otrank.cli.load_embedding_store", spy)
        return asked

    @staticmethod
    def _one_question_splits(tmp_path):
        paths = []
        for rec in TINY_RECORDS:
            paths.append(tmp_path / f"{rec['question_id']}.jsonl")
            paths[-1].write_text(json.dumps(rec) + "\n")
        return paths

    @pytest.mark.parametrize("window,roles", [("q1-w1", "cpn"), ("q1-w2", "cn")])
    def test_align_asks_for_its_window(self, window, roles, asked, cli_env, tmp_path):
        argv = _scoring_argv("align", cli_env, tmp_path)
        argv[argv.index("--window-id") + 1] = window
        assert main(argv) == 0
        assert asked == [{("q1", QUESTION_WINDOW_ID, "q")} | {("q1", window, r) for r in roles}]

    def test_rerank_asks_for_its_split(self, asked, cli_env, tmp_path):
        assert main(_scoring_argv("rerank", cli_env, tmp_path)) == 0
        q2 = self._one_question_splits(tmp_path)[1]
        assert main(_scoring_argv("rerank", cli_env, tmp_path, corpus=q2)) == 0
        assert asked == [_record_keys(TINY_RECORDS), _record_keys(TINY_RECORDS[1:])]
        # The padding sentences the store holds are not asked for.
        assert len(asked[0]) < len(cli_env["store"].sorted_items())

    def test_eval_asks_for_every_split(self, asked, cli_env, tmp_path):
        q1, q2 = self._one_question_splits(tmp_path)
        assert main(["eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(q1),
                     "--split", str(q2), "--embeddings", str(cli_env["emb"]),
                     "--combine-dev-test", "--out", str(tmp_path / "c.json")]) == 0
        assert main(["eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(q1),
                     "--embeddings", str(cli_env["emb"]), "--out", str(tmp_path / "1.json")]) == 0
        assert asked == [_record_keys(TINY_RECORDS), _record_keys(TINY_RECORDS[:1])]

    @pytest.mark.parametrize("command", ["rerank", "eval", "align", "train"])
    def test_a_key_the_store_lacks_fails_at_lookup(self, command, asked, cli_env, tmp_path,
                                                   capsys):
        lacking = EmbeddingStore(dim=cli_env["store"].dim)
        for key, arr in cli_env["store"].sorted_items():
            if key != ("q1", "q1-w1", "n"):
                lacking.add_sentence(*key, arr)
        emb = tmp_path / "lacking.bin"
        write_embedding_store(emb, lacking)
        argv = (["train", "--config", str(_train_config(cli_env, tmp_path, embeddings=str(emb)))]
                if command == "train" else _scoring_argv(command, cli_env, tmp_path, emb=emb))
        assert main(argv) == 1
        assert ("q1", "q1-w1", "n") in asked[0]
        err = capsys.readouterr().err
        assert "no embeddings for instance='q1' window='q1-w1' role='n'" in err
        assert "Traceback" not in err

    def test_train_asks_for_train_and_dev(self, asked, cli_env, tmp_path):
        q1, q2 = self._one_question_splits(tmp_path)
        assert main(["train", "--config", str(_train_config(
            cli_env, tmp_path, train_corpus=str(q1), dev_corpus=str(q2)))]) == 0
        assert main(["train", "--config", str(_train_config(
            cli_env, tmp_path, train_corpus=str(q2)))]) == 0
        assert asked == [_record_keys(TINY_RECORDS), _record_keys(TINY_RECORDS[1:])]


@pytest.mark.parametrize("command", ["rerank", "eval", "align"])
def test_scoring_commands_load_the_split_first(command, cli_env, tmp_path, monkeypatch):
    loads = []
    for name in ("load_corpus", "load_checkpoint", "load_embedding_store"):
        def spy(*args, _name=name, _load=getattr(otrank.cli, name), **kwargs):
            loads.append((_name, kwargs))
            return _load(*args, **kwargs)

        monkeypatch.setattr(f"otrank.cli.{name}", spy)
    assert main(_scoring_argv(command, cli_env, tmp_path)) == 0
    assert loads == [("load_corpus", {"split": "test"}),
                     ("load_checkpoint", {}), ("load_embedding_store", {})]


@pytest.mark.parametrize("command", ["rerank", "eval", "align"])
def test_malformed_split_wins_over_a_truncated_checkpoint(command, cli_env, tmp_path, capsys):
    split = tmp_path / "broken.jsonl"
    split.write_text(cli_env["corpus"].read_text() + "{not json\n")
    ckpt = tmp_path / "short.ckpt"
    raw = cli_env["ckpt"].read_bytes()
    ckpt.write_bytes(raw[:len(raw) // 2])
    rc = main(_scoring_argv(command, cli_env, tmp_path, ckpt=ckpt, corpus=split))
    err = capsys.readouterr().err
    assert rc == 1
    assert "broken.jsonl line 3: invalid JSON" in err
    assert "short.ckpt" not in err and "Traceback" not in err


class TestStoreDimension:
    @pytest.mark.parametrize("command", ["rerank", "eval"])
    def test_store_and_checkpoint_dimensions_differ(self, command, cli_env, tmp_path,
                                                     monkeypatch, capsys):
        ckpt = load_checkpoint(cli_env["ckpt"])
        params = init_model_params(np.random.default_rng(7), ckpt.params.dim + 3, 5, 2)
        wide = tmp_path / "wide.ckpt"
        save_checkpoint(wide, dataclasses.replace(ckpt, params=params))

        def never(*args, **kwargs):
            raise AssertionError("aligned before checking the dimensions")

        monkeypatch.setattr("otrank.metrics.extract_features", never)
        rc = main(_scoring_argv(command, cli_env, tmp_path, ckpt=wide))
        captured = capsys.readouterr()
        assert rc == 1
        assert "d=4" in captured.err and "d=7" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "rank.jsonl").exists()


def _never_load(monkeypatch):
    """Make every loader and every long computation of the command line fail the test."""
    def never(*args, **kwargs):
        raise AssertionError("loaded or computed before checking the output paths")

    for name in ("load_checkpoint", "load_embedding_store", "load_corpus", "gradcheck", "train"):
        monkeypatch.setattr(f"otrank.cli.{name}", never)


def _input_argv(command, cli_env):
    """``command`` and its input options, without output options."""
    scoring = ["--checkpoint", str(cli_env["ckpt"]), "--split", str(cli_env["corpus"]),
               "--embeddings", str(cli_env["emb"])]
    inputs = {"build-freq": ["--train", str(cli_env["corpus"])], "gradcheck": [],
              "align": scoring + ["--question-id", "q1", "--window-id", "q1-w1"]}
    return [command, *inputs.get(command, scoring)]


class TestMissingOutputDirectory:
    @pytest.mark.parametrize("command,outs,unwritten", [
        ("eval", {"--out": "nodir/r.json"}, "nodir/r.json"),
        ("eval", {"--out": "ok.json", "--per-question": "nodir/pq.tsv"}, "ok.json"),
        ("rerank", {"--out": "nodir/rank.jsonl"}, "nodir/rank.jsonl"),
        ("align", {"--out": "nodir/a.json"}, "nodir/a.json"),
        ("gradcheck", {"--out": "nodir/g.json"}, "nodir/g.json"),
        ("build-freq", {"--out": "nodir/f.json"}, "nodir/f.json"),
    ], ids=["eval", "eval-per-question", "rerank", "align", "gradcheck", "build-freq"])
    def test_exits_one_before_loading_anything(self, command, outs, unwritten, cli_env,
                                              tmp_path, monkeypatch, capsys):
        _never_load(monkeypatch)
        argv = _input_argv(command, cli_env)
        for flag, path in outs.items():
            argv += [flag, str(tmp_path / path)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"does not exist: {tmp_path / 'nodir'}" in err and "Traceback" not in err
        assert not (tmp_path / unwritten).exists()


class TestOutputPathIsADirectory:
    # Every output option of every command; "dir" is an existing directory.
    @pytest.mark.parametrize("command,outs", [
        ("build-freq", {"--out": "dir"}),
        ("train", {"checkpoint_out": "dir", "log_out": "log.jsonl"}),
        ("train", {"checkpoint_out": "out.ckpt", "log_out": "dir"}),
        ("rerank", {"--out": "dir"}),
        ("eval", {"--out": "dir"}),
        ("eval", {"--out": "ok.json", "--per-question": "dir"}),
        ("align", {"--out": "dir"}),
        ("gradcheck", {"--out": "dir"}),
    ], ids=["build-freq", "train-checkpoint-out", "train-log-out", "rerank", "eval",
            "eval-per-question", "align", "gradcheck"])
    def test_exits_one_naming_the_directory(self, command, outs, cli_env, tmp_path,
                                            monkeypatch, capsys):
        _never_load(monkeypatch)
        (tmp_path / "dir").mkdir()
        paths = {key: str(tmp_path / name) for key, name in outs.items()}
        if command == "train":
            argv = ["train", "--config", str(_train_config(cli_env, tmp_path, **paths))]
        else:
            argv = _input_argv(command, cli_env)
            for flag, path in paths.items():
                argv += [flag, path]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"is a directory: {tmp_path / 'dir'}" in err and "Traceback" not in err
        assert list((tmp_path / "dir").iterdir()) == []
        written = {p.name for p in tmp_path.iterdir()} - {"dir", "cfg.json"}
        assert written == set()


class TestOutputPathsCoincide:
    # The second path is spelled differently but names the same file. A path
    # under "in/" names one of the command's input files (see cli_env).
    @pytest.mark.parametrize("command,outs,names", [
        ("train", {"checkpoint_out": "same.out", "log_out": "./same.out"},
         "'checkpoint_out' and 'log_out'"),
        ("train", {"checkpoint_out": "same.out", "log_out": "sub/../same.out"},
         "'checkpoint_out' and 'log_out'"),
        ("eval", {"--out": "same.out", "--per-question": "./same.out"},
         "--out and --per-question"),
        ("rerank", {"--out": "in/./tiny.jsonl"}, "--out and --split"),
        ("rerank", {"--out": "in/./pin.ckpt"}, "--out and --checkpoint"),
        ("rerank", {"--out": "in/./emb.bin"}, "--out and --embeddings"),
        ("align", {"--out": "in/./tiny.jsonl"}, "--out and --split"),
        ("align", {"--out": "in/./pin.ckpt"}, "--out and --checkpoint"),
        ("eval", {"--out": "in/./tiny.jsonl"}, "--out and --split"),
        ("eval", {"--split": "in/no_ft.ckpt", "--per-question": "in/./no_ft.ckpt"},
         "--per-question and --split"),
        ("eval", {"--out": "in/./pin.ckpt"}, "--out and --checkpoint"),
        ("eval", {"--per-question": "in/./emb.bin"}, "--per-question and --embeddings"),
        ("build-freq", {"--out": "in/./tiny.jsonl"}, "--out and --train"),
        ("train", {"checkpoint_out": "in/./tiny.jsonl"}, "'checkpoint_out' and 'train_corpus'"),
        ("train", {"dev_corpus": "in/no_ft.ckpt", "log_out": "in/./no_ft.ckpt"},
         "'log_out' and 'dev_corpus'"),
        ("train", {"log_out": "in/./emb.bin"}, "'log_out' and 'embeddings'"),
        # _train_config writes the config file itself to cfg.json.
        ("train", {"checkpoint_out": "cfg.json"}, "'checkpoint_out' and --config"),
        ("train", {"log_out": "./cfg.json"}, "'log_out' and --config"),
    ], ids=["train", "train-dotdot", "eval", "rerank-split", "rerank-checkpoint",
            "rerank-embeddings", "align-split", "align-checkpoint", "eval-split",
            "eval-second-split", "eval-checkpoint", "eval-embeddings", "build-freq-train",
            "train-train-corpus", "train-dev-corpus", "train-embeddings",
            "train-config-checkpoint", "train-config-log"])
    def test_exits_one_naming_both(self, command, outs, names, cli_env, tmp_path,
                                   monkeypatch, capsys):
        _never_load(monkeypatch)
        (tmp_path / "sub").mkdir()
        paths = {key: (f"{cli_env['dir']}/{name[3:]}" if name.startswith("in/")
                       else f"{tmp_path}/{name}") for key, name in outs.items()}
        if command == "train":
            argv = ["train", "--config", str(_train_config(cli_env, tmp_path, **paths))]
        else:
            argv = _input_argv(command, cli_env)
            for flag, path in paths.items():
                argv += [flag, path]

        def input_bytes():  # the command's inputs, train's config file among them
            files = [*cli_env["dir"].iterdir(), *tmp_path.glob("cfg.json")]
            return {p: p.read_bytes() for p in files}

        inputs = input_bytes()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{names} name the same file" in err and "Traceback" not in err
        assert not (tmp_path / "same.out").exists()
        assert input_bytes() == inputs

    @pytest.mark.parametrize("spelling", ["./same.out", "same.out"])
    def test_relative_spellings_of_one_file(self, spelling, cli_env, tmp_path, monkeypatch,
                                            capsys):
        _never_load(monkeypatch)
        monkeypatch.chdir(tmp_path)
        argv = _input_argv("eval", cli_env) + ["--out", "same.out", "--per-question", spelling]
        assert main(argv) == 1
        assert "--out and --per-question name the same file" in capsys.readouterr().err
        assert not (tmp_path / "same.out").exists()



class TestEmptyOutputPath:
    @pytest.mark.parametrize("command", ["rerank", "build-freq"])
    def test_required_output_exits_one_naming_it(self, command, cli_env, monkeypatch, capsys):
        _never_load(monkeypatch)
        rc = main(_input_argv(command, cli_env) + ["--out", ""])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--out needs a path" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gradcheck", "eval"])
    def test_optional_output_is_not_given(self, command, cli_env, monkeypatch):
        # The output checks pass, so the command goes on to its first load.
        _never_load(monkeypatch)
        with pytest.raises(AssertionError, match="before checking the output paths"):
            main(_input_argv(command, cli_env) + ["--out", ""])

def _with_crc(payload: bytes) -> bytes:
    """A checkpoint payload followed by its CRC, so the parser behind the CRC check reads it."""
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


_META_AT = 4 + 8  # the metadata length follows magic, version and d


def _set_meta(raw: bytes, meta_raw: bytes) -> bytes:
    """Checkpoint bytes with ``meta_raw`` as the metadata blob, and the CRC recomputed."""
    (meta_len,) = struct.unpack_from("<Q", raw, _META_AT)
    return _with_crc(raw[:_META_AT] + struct.pack("<Q", len(meta_raw)) + meta_raw
                     + raw[_META_AT + 8 + meta_len:-4])


def _edit_meta(raw: bytes, edit) -> bytes:
    """Checkpoint bytes with ``edit`` applied to the JSON metadata, and the CRC recomputed."""
    (meta_len,) = struct.unpack_from("<Q", raw, _META_AT)
    meta = json.loads(raw[_META_AT + 8:_META_AT + 8 + meta_len])
    edit(meta)
    return _set_meta(raw, json.dumps(meta, sort_keys=True).encode("utf-8"))


def _rewrite_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its JSON metadata.

    The CRC is recomputed, so only the metadata check can reject the file.
    """
    dst.write_bytes(_edit_meta(src.read_bytes(), edit))


class TestCheckpointMetadata:
    @pytest.mark.parametrize("edit,named", [
        (lambda m: m["config"].update(bogus=1), "bogus"),
        (lambda m: m["config"].update(sinkhorn_tol=1e-6), "unknown config keys: ['sinkhorn_tol']"),
        (lambda m: m["config"].update(learning_rate=-1), "learning_rate"),
        (lambda m: m["config"].update(batch_size="many"), "batch_size"),
        (lambda m: m["config"].pop("gamma"), "gamma"),
        (lambda m: m.pop("epoch"), "epoch"),
        (lambda m: m.update(epoch=-3), "'epoch' must be a nonnegative integer"),
        (lambda m: m.update(config=[]), "metadata 'config' is not a JSON object"),
        (lambda m: m.update(freq_table=None), "'freq_table' is null"),
        (lambda m: m.update(freq_table={"counts": []}), "freq_table"),
        (lambda m: m["freq_table"]["counts"].update(zebra="x"), "'freq_table' count of 'zebra'"),
        (lambda m: m["freq_table"]["counts"].update(zebra=None), "'freq_table' count of 'zebra'"),
        (lambda m: m["freq_table"]["counts"].update(zebra=True), "'freq_table' count of 'zebra'"),
        (lambda m: m["freq_table"]["counts"].update(zebra=10**400),
         "'freq_table' count of 'zebra'"),
        (lambda m: m["freq_table"].update(num_questions=2**53), "'freq_table' 'num_questions'"),
    ], ids=["unknown-config-key", "removed-config-key", "bad-value", "bad-type",
            "missing-config-key", "missing-field", "bad-field", "config-not-object",
            "freq-table-null", "bad-freq-table", "freq-count-text",
            "freq-count-null", "freq-count-bool", "freq-count-above-questions",
            "freq-questions-2-53"])
    @pytest.mark.parametrize("command", ["rerank", "eval"])
    def test_bad_metadata_exits_one_naming_the_key(self, command, edit, named, cli_env,
                                                   tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _rewrite_meta(cli_env["ckpt"], bad, edit)
        rc = main(_scoring_argv(command, cli_env, tmp_path, ckpt=bad))
        captured = capsys.readouterr()
        assert rc == 1
        assert named in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["learning_rate", "sinkhorn_eps_scale", "gamma"])
    def test_non_finite_config_value_exits_one(self, field, cli_env, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _rewrite_meta(cli_env["ckpt"], bad, lambda m: m["config"].update({field: float("nan")}))
        rc = main(_scoring_argv("rerank", cli_env, tmp_path, ckpt=bad))
        err = capsys.readouterr().err
        assert rc == 1
        assert "bad training configuration" in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale", [1e308, 1e-30])
    def test_eps_scale_out_of_the_solvers_range_exits_one(self, scale, cli_env, tmp_path,
                                                           capsys):
        # Valid on its own, so the checkpoint loads; the alignment rejects it.
        bad = tmp_path / "bad.ckpt"
        _rewrite_meta(cli_env["ckpt"], bad,
                      lambda m: m["config"].update(sinkhorn_eps_scale=scale))
        rc = main(_scoring_argv("rerank", cli_env, tmp_path, ckpt=bad))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"eps_scale = {scale} " in err and "Traceback" not in err
        assert not (tmp_path / "rank.jsonl").exists()

    def test_untouched_metadata_still_loads(self, cli_env, tmp_path):
        same = tmp_path / "same.ckpt"
        _rewrite_meta(cli_env["ckpt"], same, lambda m: None)
        assert load_checkpoint(same).config == load_checkpoint(cli_env["ckpt"]).config


def _v1_store_bytes(store: EmbeddingStore) -> bytes:
    """``store`` in the version-1 file layout: per token vector, its key strings,
    role byte and token index before its float32 values."""
    out = [b"OTRK", struct.pack("<IIQ", 1, store.dim, store.num_records)]
    for key, arr in store.sorted_items():
        head = b"".join(struct.pack("<I", len(s)) + s.encode() for s in key[:2]) + key[2].encode()
        out += [head + struct.pack("<I", i) + np.float32(row).tobytes()
                for i, row in enumerate(arr)]
    return b"".join(out)


def _set_byte(raw: bytes, pos: int, value: int) -> bytes:
    return raw[:pos] + bytes([value]) + raw[pos + 1:]


def _set_header(raw: bytes, field: int, value: int) -> bytes:
    """Checkpoint bytes with header u32 ``field`` (0 version, 1 d) replaced."""
    pos = 4 + 4 * field
    return _with_crc(raw[:pos] + struct.pack("<I", value) + raw[pos + 4:-4])


def _set_store_header(raw: bytes, field: int, value: int) -> bytes:
    """Embedding-store bytes with header u32 ``field`` (0 version, 1 dim) replaced."""
    pos = 4 + 4 * field
    return raw[:pos] + struct.pack("<I", value) + raw[pos + 4:]


def _set_run(raw: bytes, edit) -> bytes:
    """Checkpoint bytes with ``edit`` applied to the parameter run, the bytes between
    the metadata and the CRC, and the CRC recomputed."""
    (meta_len,) = struct.unpack_from("<Q", raw, _META_AT)
    run_at = _META_AT + 8 + meta_len
    return _with_crc(raw[:run_at] + edit(raw[run_at:-4]))


# The pinned checkpoint's header d=4 and config hidden_size=5, gcn_layers=2, so its
# parameter run is scorer_size = 5*(2*4+6) + 2 + 2*4*(4+1) = 112 floats, 896 bytes.
_RUN_SAYS = "sizes d=4, hidden_size=5, gcn_layers=2 need 896 parameter bytes, the file holds"


# Every prefix of a valid store's header and its key directory's first bytes,
# every prefix of a valid checkpoint payload through its 20-byte header and
# first metadata bytes (with the CRC recomputed, so the header parse reads it), and
# the 20-byte header alone, with another version. Each field is checked as it is
# reached, so a prefix fails on the first field it cuts.
_HEADER_CASES = (
    [(f"store-{n}", "emb", lambda raw, n=n: raw[:n], "truncated file") for n in range(30)]
    + [(f"ckpt-{n}", "ckpt", lambda raw, n=n: _with_crc(raw[:n]),
        "bad magic, not a checkpoint" if n < 4 else "truncated file") for n in range(30)]
    + [("ckpt-20-version-2", "ckpt", lambda raw: _set_header(raw[:24], 0, 2),
        "unsupported checkpoint version 2")])


def _rerank_rejects(target, corrupt, says, cli_env, tmp_path, capsys):
    """``rerank`` given ``corrupt`` of the ``target`` file's bytes exits 1, naming the
    file and saying ``says``; a checkpoint's load raises the same message."""
    bad = tmp_path / f"bad.{target}"
    bad.write_bytes(corrupt(cli_env[target].read_bytes()))
    if target == "ckpt":
        with pytest.raises(CheckpointError, match=says):
            load_checkpoint(bad)
    rc = main(_scoring_argv("rerank", cli_env, tmp_path, **{target: bad}))
    err = capsys.readouterr().err
    assert rc == 1
    assert bad.name in err and says in err
    assert "Traceback" not in err


class TestCorruptInputs:
    """Damaged files exit 1 with an error naming the file, never with a traceback."""

    @pytest.mark.parametrize("target,corrupt,says", [
        ("emb", lambda raw: raw.replace(b'"q",', b'"x",', 1), "unknown role 'x'"),
        ("emb", lambda raw: _set_byte(raw, 4 + 16 + 4, 0xFF), "key directory is not UTF-8"),
        ("emb", lambda raw: _set_store_header(raw, 0, 3), "unsupported format version 3"),
        ("emb", lambda raw: _set_store_header(raw, 1, 0), "dimension must be positive"),
        ("emb", lambda raw: raw[:-1], "truncated file"),
        ("ckpt", lambda raw: _set_run(raw, lambda run: run[:-8]), f"{_RUN_SAYS} 888"),
        ("ckpt", lambda raw: _set_run(raw, lambda run: run + bytes(8)), f"{_RUN_SAYS} 904"),
        ("ckpt", lambda raw: _set_meta(raw, b"[]"), "metadata is not a JSON object"),
        ("ckpt", lambda raw: _set_meta(raw, b"[" * 100_000), "metadata is not JSON"),
        ("ckpt", lambda raw: _set_header(raw, 1, 0), "d=0"),
        ("ckpt", lambda raw: _edit_meta(raw, lambda m: m["config"].update(gcn_layers=0)),
         "gcn_layers must be at least 1"),
        ("ckpt", lambda raw: _edit_meta(raw, lambda m: m["config"].update(hidden_size=0)),
         "hidden_size must be at least 1"),
        # 5*14 + 2 + 2**30 * 20 floats: checked before anything of that size is built.
        ("ckpt", lambda raw: _edit_meta(raw, lambda m: m["config"].update(gcn_layers=1 << 30)),
         "gcn_layers=1073741824 need 171798692416 parameter bytes, the file holds 896"),
        # No earlier version has a reader: version 3 held the hidden size and the layer
        # count in its header, version 2 named tensors, the discriminator too.
        ("ckpt", lambda raw: _set_header(raw, 0, 1), "unsupported checkpoint version 1"),
        ("ckpt", lambda raw: _set_header(raw, 0, 2), "unsupported checkpoint version 2"),
        ("ckpt", lambda raw: _set_header(raw, 0, 3), "unsupported checkpoint version 3"),
        # A second copy of the run after the first, as a version-1 file held each Adam moment.
        ("ckpt", lambda raw: _set_run(raw, lambda run: run + run), f"{_RUN_SAYS} 1792"),
        # Shorter than the magic; an empty file cannot be mapped.
        ("ckpt", lambda raw: b"", "bad magic"),
        ("ckpt", lambda raw: raw[:1], "bad magic"),
        ("ckpt", lambda raw: raw[:3], "bad magic"),
        ("corpus", lambda raw: _set_byte(raw, raw.index(b"Who"), 0xFF), "line 2: not UTF-8"),
    ], ids=["store-role", "store-instance-id", "store-version-3", "store-dim-0",
            "store-last-byte", "ckpt-run-short", "ckpt-run-long", "ckpt-meta-not-object",
            "ckpt-meta-nested-too-deep", "ckpt-dim-0", "ckpt-layers-0", "ckpt-hidden-0",
            "ckpt-layers-huge", "ckpt-version-1", "ckpt-version-2", "ckpt-version-3",
            "ckpt-moment-table", "ckpt-empty", "ckpt-1-byte", "ckpt-3-bytes",
            "corpus-not-utf8"])
    def test_exits_one_naming_the_file(self, target, corrupt, says, cli_env, tmp_path, capsys):
        _rerank_rejects(target, corrupt, says, cli_env, tmp_path, capsys)

    def test_version_1_store_exits_one(self, cli_env, tmp_path, capsys):
        # The format before the key directory has no reader.
        _rerank_rejects("emb", lambda raw: _v1_store_bytes(cli_env["store"]),
                        "unsupported format version 1", cli_env, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["build-freq", "rerank"])
    def test_deeply_nested_corpus_line_exits_one(self, command, cli_env, tmp_path, capsys):
        # Deeper than the JSON decoder recurses.
        split = tmp_path / "deep.jsonl"
        split.write_text("[" * 100_000 + "\n")
        argv = (["build-freq", "--train", str(split), "--out", str(tmp_path / "freq.json")]
                if command == "build-freq"
                else _scoring_argv("rerank", cli_env, tmp_path, corpus=split))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "deep.jsonl line 1: invalid JSON (maximum recursion depth exceeded" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["deep.jsonl"]

    @pytest.mark.parametrize("command", ["rerank", "eval"])
    def test_non_finite_scores_exit_one(self, command, cli_env, tmp_path, capsys):
        # Every parameter times 1e308: the scores come out NaN.
        def scale(run):
            with np.errstate(over="ignore"):
                return (np.frombuffer(run, "<f8") * 1e308).astype("<f8").tobytes()

        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(_set_run(cli_env["ckpt"].read_bytes(), scale))
        rc = main(_scoring_argv(command, cli_env, tmp_path, ckpt=bad))
        captured = capsys.readouterr()
        assert rc == 1
        assert ("the checkpoint's parameters score non-finite: question 'q1' window 'q1-w1' "
                "scores nan") in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["huge.ckpt"]

    @pytest.mark.parametrize("target,corrupt,says", [c[1:] for c in _HEADER_CASES],
                             ids=[c[0] for c in _HEADER_CASES])
    def test_short_header_exits_one(self, target, corrupt, says, cli_env, tmp_path, capsys):
        _rerank_rejects(target, corrupt, says, cli_env, tmp_path, capsys)

    @pytest.mark.parametrize("edit,says", [
        (lambda rec: [rec], "line 2: record must be a JSON object"),
        (lambda rec: rec.update(candidates=[]), "line 2: candidates must be a nonempty list"),
        (lambda rec: rec.update(candidates={}), "line 2: candidates must be a nonempty list"),
        (lambda rec: rec.update(candidates=["q2-w1"]),
         "line 2 candidate 0: must be a JSON object"),
        (lambda rec: rec["candidates"][0].update(text=""),
         "line 2 candidate 0: missing or empty candidate text"),
        (lambda rec: rec["candidates"][0].update(label=2),
         "line 2 candidate 0: label must be 0 or 1, got 2"),
        (lambda rec: rec["candidates"][0].update(prev=5),
         "line 2 candidate 0: context text must be a string or null"),
        # An absent context's label is checked too.
        (lambda rec: rec["candidates"][0].update(prev=None, prev_label=7),
         "line 2 candidate 0: label must be 0 or 1, got 7"),
        (lambda rec: rec["candidates"][0].update(next="  ", next_label="yes"),
         "line 2 candidate 0: label must be 0 or 1, got 'yes'"),
    ], ids=["record-not-object", "candidates-empty", "candidates-not-list",
            "candidate-not-object", "candidate-text-empty", "label-2", "context-5",
            "absent-prev-label-7", "blank-next-label-yes"])
    def test_bad_record_exits_one_naming_the_line(self, edit, says, cli_env, tmp_path,
                                                  capsys):
        rec = json.loads(json.dumps(TINY_RECORDS[1]))
        rec = edit(rec) or rec  # an edit in place returns None
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(TINY_RECORDS[0]) + "\n" + json.dumps(rec) + "\n")
        rc = main(_scoring_argv("rerank", cli_env, tmp_path, corpus=bad))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"bad.jsonl {says}" in err
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        target=st.sampled_from(["emb", "ckpt", "corpus"]),
        edit=st.one_of(
            st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
            st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
            st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
        ),
    )
    def test_fuzzed_inputs_exit_zero_or_one(self, cli_env, target, edit):
        raw = cli_env[target].read_bytes()
        body = raw[:-4] if target == "ckpt" else raw
        if edit[0] == "flip":
            pos = edit[1] % len(body)
            body = _set_byte(body, pos, body[pos] ^ edit[2])
        elif edit[0] == "truncate":
            body = body[: edit[1] % len(body)]
        else:
            body = body + edit[1]
        bad = cli_env["dir"] / f"fuzzed.{target}"
        bad.write_bytes(_with_crc(body) if target == "ckpt" else body)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(_scoring_argv("rerank", cli_env, cli_env["dir"], **{target: bad}))
        assert rc in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()


# SHA-256 of the scorer's parameters that the benchmark's train command writes
# for seed 1, as float64 in the order of ModelParams.flat.
BENCH_TRAIN_SCORER = "ce1a2c62e82043d3b7d4447a043694852cd83f3659076ae94e76c82d33969f65"
# SHA-256 of the rankings file that the benchmark's rerank command writes for seed 1.
BENCH_RERANK_RANKINGS = "831fda7e853c1225629f8cc28f2b6078cfd2b166628bcac77fc9136653ec89c8"


def test_benchmark_rerank_writes_the_pinned_rankings(bench_rerank_inputs, tmp_path):
    # The benchmark's preparation checkpoint (perfbench's PREP_HYPERPARAMS, 5 epochs),
    # then its rerank of the held-out split: every alignment, score and ranking bit.
    cfg = {"train_corpus": str(bench_rerank_inputs["train"]),
           "embeddings": str(bench_rerank_inputs["emb"]),
           "checkpoint_out": str(tmp_path / "model.ckpt"),
           "learning_rate": 3e-3, "batch_size": 16, "gamma": 0.3, "hidden_size": 400,
           "epochs": 5, "seed": 1}
    cfg_path = tmp_path / "prep_config.json"
    cfg_path.write_text(json.dumps(cfg))
    run_one_blas_thread(["train", "--config", str(cfg_path)])
    out = tmp_path / "rankings.jsonl"
    run_one_blas_thread(["rerank", "--checkpoint", cfg["checkpoint_out"],
                         "--split", str(bench_rerank_inputs["heldout"]),
                         "--embeddings", cfg["embeddings"], "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_RERANK_RANKINGS


# SHA-256 of the report and of the per-question TSV that the benchmark's eval_wide
# command writes for seed 1.
BENCH_EVAL_WIDE_REPORT = "a6675e1d86ed84b6c91dafe6b82b180b1eba9e2e0181048d35dd5902aae39d47"
BENCH_EVAL_WIDE_TSV = "02b273bca7a5c2809102de4b000a4ea7c27be3e4d883eac554f93e90eb38f9bc"


def _eval_one_blas_thread(inputs, tmp_path, lines, name):
    """The report and the per-question TSV rows, by question id, that ``eval
    --per-question`` writes on one BLAS thread for the split of ``lines``."""
    split, out, tsv = (tmp_path / f"{name}{ext}" for ext in (".jsonl", ".json", ".tsv"))
    split.write_text("".join(lines))
    run_one_blas_thread(["eval", "--checkpoint", str(inputs["ckpt"]), "--split", str(split),
                         "--embeddings", str(inputs["emb"]), "--out", str(out),
                         "--per-question", str(tsv)])
    rows = tsv.read_text().splitlines(keepends=True)
    assert rows[0] == "question_id\tp_at_1\tap\trr\n"
    return out.read_bytes(), tsv.read_bytes(), {row.split("\t")[0]: row for row in rows[1:]}


@pytest.fixture(scope="module")
def eval_wide_whole(bench_eval_wide_inputs, tmp_path_factory):
    """The held-out split's lines and what ``eval`` writes for the whole split."""
    lines = bench_eval_wide_inputs["heldout"].read_text().splitlines(keepends=True)
    return lines, _eval_one_blas_thread(bench_eval_wide_inputs,
                                        tmp_path_factory.mktemp("eval_wide"), lines, "whole")


class TestBenchmarkEvalWide:
    """The benchmark's eval_wide command at d=768, the other width at which a
    window's score is bitwise its score alone."""

    def test_writes_the_pinned_report_and_rows(self, eval_wide_whole):
        lines, (report, tsv, rows) = eval_wide_whole
        assert len(lines) == len(rows) == 50
        assert hashlib.sha256(report).hexdigest() == BENCH_EVAL_WIDE_REPORT
        assert hashlib.sha256(tsv).hexdigest() == BENCH_EVAL_WIDE_TSV

    def test_each_question_writes_the_same_row(self, bench_eval_wide_inputs, eval_wide_whole,
                                               tmp_path):
        lines, (_, _, whole) = eval_wide_whole
        for name, parts in (("reversed", [lines[::-1]]), ("halves", [lines[:25], lines[25:]])):
            got = {}
            for k, part in enumerate(parts):
                got.update(_eval_one_blas_thread(bench_eval_wide_inputs, tmp_path, part,
                                                 f"{name}{k}")[2])
            assert got == whole, name


def _train_config(cli_env, tmp_path, **over):
    cfg = {
        "train_corpus": str(cli_env["corpus"]),
        "embeddings": str(cli_env["emb"]),
        "checkpoint_out": str(tmp_path / "out.ckpt"),
        "log_out": str(tmp_path / "log.jsonl"),
        "learning_rate": 1e-3,
        "epochs": 1,
        "seed": 0,
        "hidden_size": 5,
        "gcn_layers": 2,
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _main_logging_to_stderr(argv, monkeypatch) -> int:
    """``main(argv)`` with its own stderr log handler, as on the command line."""
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])  # lets main() install its stderr handler
    level = root.level
    try:
        return main(argv)
    finally:
        root.setLevel(level)


def _quiet_then_loud(argv, monkeypatch, capsys):
    """Run ``main(argv)`` at the default log level, then at info; returns both captures."""
    assert main(argv) == 0
    quiet = capsys.readouterr()
    monkeypatch.setenv("OTRANK_LOG", "info")
    assert _main_logging_to_stderr(argv, monkeypatch) == 0
    return quiet, capsys.readouterr()


class TestTelemetry:
    def test_info_log_goes_to_stderr_only(self, cli_env, tmp_path, monkeypatch, capsys):
        quiet, loud = _quiet_then_loud(_scoring_argv("eval", cli_env, tmp_path), monkeypatch,
                                       capsys)
        assert loud.out == quiet.out
        # Five windows, 15 sentences, four of them padding.
        line = next(l for l in loud.err.splitlines() if "aligned" in l)
        assert "aligned 11 sentences" in line
        assert "p50/p95/max" in line and "0 unconverged" in line

    @pytest.mark.parametrize("command", ["rerank", "eval"])
    def test_scoring_logs_windows_per_second(self, command, cli_env, tmp_path, monkeypatch,
                                             capsys):
        quiet, loud = _quiet_then_loud(_scoring_argv(command, cli_env, tmp_path), monkeypatch,
                                       capsys)
        assert loud.out == quiet.out
        line = next(l for l in loud.err.splitlines() if "windows/s" in l)
        assert "ranked 5 windows of 2 questions" in line

    def test_train_logs_stage_seconds(self, cli_env, tmp_path, monkeypatch, capsys):
        cfg = _train_config(cli_env, tmp_path, dev_corpus=str(cli_env["corpus"]))
        quiet, loud = _quiet_then_loud(["train", "--config", str(cfg)], monkeypatch, capsys)
        assert loud.out == quiet.out == ""
        lines = [l for l in loud.err.splitlines() if "train stages" in l]
        assert len(lines) == 1
        assert re.search(r"align [0-9.]+ s, step [0-9.]+ s, adam [0-9.]+ s, "
                         r"dev-eval [0-9.]+ s$", lines[0])
        records = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert all(set(r) == {"epoch", "train_loss", "dev_p_at_1", "dev_map", "dev_mrr",
                              "wallclock_s"} for r in records)


class TestNothingToScore:
    """Input that holds nothing to count, train on or evaluate is a validation error."""

    @staticmethod
    def _exits_one(argv, message, monkeypatch, capsys):
        rc = _main_logging_to_stderr(argv, monkeypatch)
        captured = capsys.readouterr()
        assert rc == 1
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_eval_without_positive_candidates(self, cli_env, tmp_path, monkeypatch, capsys):
        split = tmp_path / "negatives.jsonl"
        with split.open("w", encoding="utf-8") as fh:
            for rec in TINY_RECORDS:
                rec = {**rec, "candidates": [{**c, "label": 0} for c in rec["candidates"]]}
                fh.write(json.dumps(rec) + "\n")
        argv = ["eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(split),
                "--embeddings", str(cli_env["emb"])]
        self._exits_one(argv, "no evaluable questions", monkeypatch, capsys)

    def test_eval_on_empty_split(self, cli_env, tmp_path, monkeypatch, capsys):
        split = tmp_path / "empty.jsonl"
        split.write_text("")
        argv = ["eval", "--checkpoint", str(cli_env["ckpt"]), "--split", str(split),
                "--embeddings", str(cli_env["emb"])]
        self._exits_one(argv, f"no questions to score in {split}", monkeypatch, capsys)

    @pytest.mark.parametrize("command", ["rerank", "eval", "align"])
    def test_empty_split_exits_one_before_loading_the_rest(self, command, cli_env, tmp_path,
                                                           monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("loaded the checkpoint or the store for an empty split")

        for name in ("load_checkpoint", "load_embedding_store"):
            monkeypatch.setattr(f"otrank.cli.{name}", never)
        split = tmp_path / "blank.jsonl"
        split.write_text("\n  \n")
        argv = _scoring_argv(command, cli_env, tmp_path, corpus=split)
        self._exits_one(argv, f"no questions to score in {split}", monkeypatch, capsys)
        assert not (tmp_path / "rank.jsonl").exists()

    def test_train_on_empty_corpus(self, cli_env, tmp_path, monkeypatch, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = _train_config(cli_env, tmp_path, train_corpus=str(empty))
        self._exits_one(["train", "--config", str(cfg)], "training corpus is empty",
                        monkeypatch, capsys)
        assert not (tmp_path / "out.ckpt").exists()

    def test_build_freq_on_empty_corpus(self, tmp_path, monkeypatch, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "freq.json"
        self._exits_one(["build-freq", "--train", str(empty), "--out", str(out)],
                        "cannot build a frequency table from an empty corpus",
                        monkeypatch, capsys)
        assert not out.exists()


class TestTrainCommand:
    def test_zero_epochs_writes_init_checkpoint(self, cli_env, tmp_path):
        cfg_path = _train_config(cli_env, tmp_path, epochs=0)
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 0
        ckpt = load_checkpoint(tmp_path / "out.ckpt")
        assert ckpt.epoch == 0
        assert_scorer_loaded(ckpt.params, init_model_params(np.random.default_rng(0), 4, 5, 2))
        assert (tmp_path / "log.jsonl").read_text() == ""

    def test_train_writes_log_records(self, cli_env, tmp_path):
        cfg_path = _train_config(cli_env, tmp_path, epochs=2)
        assert main(["train", "--config", str(cfg_path)]) == 0
        records = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all(
            set(r) == {"epoch", "train_loss", "dev_p_at_1", "dev_map", "dev_mrr",
                       "wallclock_s"}
            for r in records
        )

    @pytest.mark.parametrize("flag,value", [("--seed", "99"), ("--epochs", "0")])
    def test_setting_flags_exit_one(self, flag, value, cli_env, tmp_path, capsys):
        # The config file is the only source of the training settings.
        cfg_path = _train_config(cli_env, tmp_path)
        assert main(["train", "--config", str(cfg_path), flag, value]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.ckpt").exists() and not (tmp_path / "log.jsonl").exists()

    # Sizes beyond the address space, so that no allocation can succeed lazily.
    @pytest.mark.parametrize("key,value", [("gcn_layers", 10**12), ("hidden_size", 10**13),
                                           ("hidden_size", 10**17)],
                             ids=["layers", "hidden", "hidden-beyond-numpy"])
    def test_oversized_model_exits_one_naming_its_sizes(self, key, value, cli_env, tmp_path,
                                                        capsys):
        cfg_path = _train_config(cli_env, tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        sizes = {"hidden_size": 5, "gcn_layers": 2, key: value}
        assert (f"a model of d={cli_env['store'].dim}, hidden_size={sizes['hidden_size']} and "
                f"gcn_layers={sizes['gcn_layers']} needs") in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_checkpoint_records_the_config_seed(self, cli_env, tmp_path):
        cfg_path = _train_config(cli_env, tmp_path, epochs=0, seed=99)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert load_checkpoint(tmp_path / "out.ckpt").config.seed == 99

    @pytest.mark.parametrize("key,value,says", [
        # Each batch loss is finite, but the epoch's mean overflows.
        ("gamma", 1e308, "epoch 1: non-finite mean loss inf"),
        ("learning_rate", 1e300, "epoch 1, windows 64..128: non-finite loss nan"),
    ], ids=["gamma", "learning_rate"])
    def test_diverging_run_exits_one_naming_its_settings(self, key, value, says, cli_env,
                                                         bench_train_inputs, tmp_path,
                                                         monkeypatch, capsys, recwarn):
        # The benchmark's train inputs and hyperparameters, with one setting too large.
        cfg_path = _train_config(
            cli_env, tmp_path, train_corpus=str(bench_train_inputs["train"]),
            dev_corpus=str(bench_train_inputs["dev"]),
            embeddings=str(bench_train_inputs["emb"]), batch_size=64, hidden_size=400,
            epochs=2, seed=1, **{"gamma": 0.3, key: value})
        rc = _main_logging_to_stderr(["train", "--config", str(cfg_path)], monkeypatch)
        err = capsys.readouterr().err
        assert rc == 1
        assert "training diverged" in err and f"{key} = {value!r}" in err and says in err
        assert "Traceback" not in err
        # The error is all it reports: no numpy warning, which the command line prints
        # to stderr, comes before it.
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
        assert not (tmp_path / "out.ckpt").exists() and not (tmp_path / "log.jsonl").exists()

    @pytest.mark.parametrize("text,says", [
        ('{"epochs": 1', "is not valid JSON"),
        ('[{"epochs": 1}]', "must hold a JSON object"),
        # Deeper than the JSON decoder recurses.
        ("[" * 100_000, "is not valid JSON: maximum recursion depth exceeded"),
    ], ids=["not-json", "not-object", "nested-too-deep"])
    def test_config_file_not_a_json_object_names_it(self, text, says, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"config file {cfg_path} {says}" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_divergence_on_the_last_step_exits_one(self, cli_env, bench_train_inputs, tmp_path,
                                                   monkeypatch, capsys, recwarn):
        # One step over every window: the loss taken before it is finite, the
        # parameters it leaves are not usable.
        cfg_path = _train_config(
            cli_env, tmp_path, train_corpus=str(bench_train_inputs["train"]),
            embeddings=str(bench_train_inputs["emb"]), batch_size=100_000, hidden_size=400,
            epochs=1, seed=1, gamma=0.3, learning_rate=1e308)
        rc = _main_logging_to_stderr(["train", "--config", str(cfg_path)], monkeypatch)
        err = capsys.readouterr().err
        assert rc == 1
        assert ("training diverged with learning_rate = 1e+308 and gamma = 0.3: epoch 1, "
                "windows 0..200: non-finite loss after the last step") in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
        assert not (tmp_path / "out.ckpt").exists() and not (tmp_path / "log.jsonl").exists()

    def test_benchmark_run_writes_the_pinned_parameters(self, bench_train_inputs, tmp_path):
        # The benchmark's train command on one BLAS thread; two threads give other bits.
        # This pins Adam's constants and every step of training to the bit.
        cfg = {"train_corpus": str(bench_train_inputs["train"]),
               "dev_corpus": str(bench_train_inputs["dev"]),
               "embeddings": str(bench_train_inputs["emb"]),
               "checkpoint_out": str(tmp_path / "out.ckpt"),
               "learning_rate": 1e-3, "batch_size": 64, "gamma": 0.3, "hidden_size": 400,
               "epochs": 30, "seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run_one_blas_thread(["train", "--config", str(cfg_path)])
        params = load_checkpoint(tmp_path / "out.ckpt").params
        run = params.flat[:scorer_size(params.dim, params.hidden, params.layers)]
        assert hashlib.sha256(run.tobytes()).hexdigest() == BENCH_TRAIN_SCORER

    # Adam's rates and epsilon and the solver's budget and tolerance are constants,
    # so a config cannot set them, even to their values.
    @pytest.mark.parametrize("key,value", [
        ("bogus", 1), ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_eps", 1e-8),
        ("sinkhorn_max_iter", 500), ("sinkhorn_tol", 1e-6),
    ])
    def test_unknown_config_key_rejected(self, key, value, cli_env, tmp_path, capsys):
        cfg_path = _train_config(cli_env, tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"unknown config keys: ['{key}']" in err and "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()

    @pytest.mark.parametrize("field,value", [
        ("gcn_layers", 0), ("hidden_size", 0), ("sinkhorn_eps_scale", 0.0),
        ("learning_rate", float("inf")), ("sinkhorn_eps_scale", float("inf")),
        ("gamma", float("nan")), ("batch_size", True), ("epochs", 1.5), ("seed", 1.5),
        ("seed", -1), ("hidden_size", 5.5), ("gcn_layers", 2.0),
        ("batch_size", 0), ("epochs", -1), ("learning_rate", "fast"),
    ])
    def test_bad_value_rejected(self, field, value, cli_env, tmp_path, capsys):
        cfg_path = _train_config(cli_env, tmp_path, **{field: value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "bad training configuration" in err and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()

    @pytest.mark.parametrize("scale", [1e308, 1e-30])
    def test_eps_scale_out_of_the_solvers_range_exits_one(self, scale, cli_env, tmp_path,
                                                           capsys):
        cfg_path = _train_config(cli_env, tmp_path, sinkhorn_eps_scale=scale)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"eps_scale = {scale} " in err and "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()
        assert not (tmp_path / "log.jsonl").exists()

    def test_small_eps_scale_with_finite_plans_trains(self, cli_env, tmp_path):
        # Far below the default, unconverged on some pairs, but every plan is finite.
        cfg_path = _train_config(cli_env, tmp_path, sinkhorn_eps_scale=1e-10)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert load_checkpoint(tmp_path / "out.ckpt").config.sinkhorn_eps_scale == 1e-10

    @pytest.mark.parametrize("key,value", [
        ("train_corpus", 7), ("embeddings", True), ("checkpoint_out", ["a"]),
        ("dev_corpus", {}), ("log_out", 7),
    ])
    def test_non_string_path_rejected(self, key, value, cli_env, tmp_path, capsys):
        cfg_path = _train_config(cli_env, tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert key in err and "path string" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()

    def test_missing_required_path_rejected(self, cli_env, tmp_path, capsys):
        cfg = {"train_corpus": str(cli_env["corpus"]), "embeddings": str(cli_env["emb"])}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 1
        assert "checkpoint_out" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_healthy_exit_zero(self, tmp_path):
        out = tmp_path / "gc.json"
        rc = main(["gradcheck", "--seed", "0", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert data["max_rel_err"] <= 1e-4

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gradcheck", "--seed", "1", "--out", str(a)])
        main(["gradcheck", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "gc.json"
        assert main(["gradcheck", "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()


def test_json_outputs_refuse_nan(tmp_path):
    # A NaN that slips past every check fails the command instead of writing
    # a JSON file that no strict reader accepts.
    with pytest.raises(ValueError, match="JSON compliant"):
        otrank.cli._dump_json({"map": float("nan")}, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()


class TestParser:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_exits_one(self, capsys):
        assert main(["gradcheck", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("build-freq", ["--train", "--out"]),
            ("train", ["--config"]),
            ("rerank", ["--checkpoint", "--split", "--embeddings", "--out"]),
            ("eval", ["--checkpoint", "--split", "--embeddings", "--combine-dev-test",
                      "--out", "--per-question"]),
            ("align", ["--checkpoint", "--split", "--embeddings", "--question-id",
                       "--window-id", "--out"]),
            ("gradcheck", ["--seed", "--out"]),
        ],
    )
    def test_help_lists_every_flag(self, command, flags, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text

    def test_invalid_log_level_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("OTRANK_LOG", "loud")
        assert main(["gradcheck"]) == 1
        assert "OTRANK_LOG" in capsys.readouterr().err

    def test_parser_defaults_visible(self):
        parser = build_parser()
        text = parser.format_help()
        assert "otrank" in text
