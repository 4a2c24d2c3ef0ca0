"""Tokenization, filtering, padding, and corpus I/O."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from otrank.corpus import (
    PAD_TEXT,
    content_tokens,
    load_corpus,
    make_sentence,
    padding_sentence,
    save_corpus,
    stopwords,
    tokenize,
)
from otrank.errors import CorpusFormatError


class TestTokenize:
    def test_question_with_stopword_and_punct(self):
        toks = tokenize("What award?")
        assert [t.normalized for t in toks] == ["what", "award", "?"]
        assert [t.is_content for t in toks] == [False, True, False]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_punct_detachment_golden(self):
        # Hand-applied rules: lowercase, whitespace split, peel edge punctuation.
        toks = tokenize("Ada Lovelace, twice.")
        assert [t.normalized for t in toks] == ["ada", "lovelace", ",", "twice", "."]
        assert [t.is_content for t in toks] == [True, True, False, True, False]

    def test_internal_apostrophe_kept(self):
        toks = tokenize("don't stop")
        assert [t.normalized for t in toks] == ["don't", "stop"]
        assert toks[0].is_content is False  # stoplisted contraction

    def test_all_punct_chunk_splits_per_char(self):
        assert [t.surface for t in tokenize("-- ok")] == ["-", "-", "ok"]

    def test_surface_preserved(self):
        toks = tokenize("(Hello)")
        assert [t.surface for t in toks] == ["(", "Hello", ")"]
        assert toks[1].normalized == "hello"

    @given(st.text(max_size=60))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)

    @given(st.text(max_size=60))
    def test_invariants(self, text):
        punct = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
        for t in tokenize(text):
            assert t.normalized
            assert t.normalized == t.surface.lower()
            in_stoplist = t.normalized in stopwords()
            pure_punct = all(c in punct for c in t.normalized)
            assert t.is_content == (not in_stoplist and not pure_punct)


class TestContentTokens:
    def test_stopword_only_sentence_falls_back(self):
        s = make_sentence("it is what it is")
        assert content_tokens(s) == list(s.tokens)

    def test_stoplist_golden(self):
        s = make_sentence("Ada Lovelace has been honored")
        assert [t.normalized for t in content_tokens(s)] == ["ada", "lovelace", "honored"]

    def test_padding_has_no_content(self):
        assert content_tokens(padding_sentence()) == []

    def test_zero_token_sentence(self):
        s = make_sentence("")
        assert content_tokens(s) == []

    @given(st.text(max_size=80))
    def test_subset_preserving_order(self, text):
        s = make_sentence(text)
        kept = content_tokens(s)
        filtered = [t for t in s.tokens if t.is_content]
        if s.tokens and not filtered:
            assert kept == list(s.tokens)  # fallback fires exactly here
        else:
            assert kept == filtered


class TestLoadCorpus:
    def test_fixture_round_trip(self, tiny_corpus):
        assert len(tiny_corpus.instances) == 2
        assert tiny_corpus.split == "train"
        q1 = tiny_corpus.instances[0]
        assert q1.question_id == "q1"
        assert len(q1.windows) == 2
        assert q1.windows[0].cand.label is True
        assert q1.windows[1].prev.is_padding  # null prev was padded
        assert q1.windows[1].next.label is None  # unknown context label

    def test_missing_candidate_label_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {
            "question_id": "q",
            "question": "Any question ?",
            "candidates": [{"id": "w", "text": "Some answer .", "prev": None, "next": None}],
        }
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusFormatError, match="line 1.*label"):
            load_corpus(path, split="train")

    def test_zero_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = load_corpus(path, split="dev")
        assert corpus.instances == ()
        assert corpus.split == "dev"

    def test_duplicate_question_id(self, tmp_path):
        rec = {
            "question_id": "q",
            "question": "Repeated ?",
            "candidates": [
                {"id": "w", "text": "Answer .", "label": 1, "prev": None, "next": None}
            ],
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2.*duplicate question_id"):
            load_corpus(path, split="train")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path, split="train")

    def test_duplicate_window_id(self, tmp_path):
        rec = {
            "question_id": "q",
            "question": "Twice ?",
            "candidates": [
                {"id": "w", "text": "One .", "label": 1, "prev": None, "next": None},
                {"id": "w", "text": "Two .", "label": 0, "prev": None, "next": None},
            ],
        }
        path = tmp_path / "dupwin.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusFormatError, match="duplicate window id"):
            load_corpus(path, split="train")

    def test_whitespace_context_treated_as_missing(self, tmp_path):
        rec = {
            "question_id": "q",
            "question": "Blank context ?",
            "candidates": [
                {"id": "w", "text": "Answer .", "label": 1, "prev": "   "}
            ],
        }
        path = tmp_path / "ws.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        window = load_corpus(path, split="train").instances[0].windows[0]
        # A blank context and an absent one both load as the padding sentence.
        assert window.prev == window.next == padding_sentence()
        assert window.prev.text == PAD_TEXT and window.prev.label is None
        assert len(window.prev.tokens) == 1

    def test_unknown_split_named(self, tiny_corpus_path):
        with pytest.raises(CorpusFormatError, match="unknown split 'validation'"):
            load_corpus(tiny_corpus_path, split="validation")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl", split="train")


class TestSaveLoadRoundTrip:
    def test_identity_on_data_model(self, tiny_corpus, tmp_path):
        out = tmp_path / "again.jsonl"
        save_corpus(tiny_corpus, out)
        assert load_corpus(out, split="train") == tiny_corpus

    def test_save_is_deterministic(self, tiny_corpus, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(tiny_corpus, a)
        save_corpus(tiny_corpus, b)
        assert a.read_bytes() == b.read_bytes()
