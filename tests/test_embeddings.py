"""Frequency table, marginal distributions, and the binary embedding store."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otrank.corpus import Corpus, make_sentence
from otrank.embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_C,
    ROLE_Q,
    EmbeddingStore,
    FrequencyTable,
    build_frequency_table,
    load_embedding_store,
    marginal_distribution,
    write_embedding_store,
)
from otrank.errors import EmbeddingKeyError, EmbeddingStoreError

from conftest import build_tiny_store


def _write_records(path, dim, records):
    """An embedding store file holding ``records`` of (instance, window, role,
    token index, vector), in the order given."""
    with path.open("wb") as fh:
        fh.write(b"OTRK" + struct.pack("<IIQ", 1, dim, len(records)))
        for inst, win, role, idx, vec in records:
            for s in (inst, win):
                raw = s.encode()
                fh.write(struct.pack("<I", len(raw)) + raw)
            fh.write(role.encode() + struct.pack("<I", idx))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


class TestFrequencyTable:
    def test_counts_questions_not_occurrences(self, tiny_corpus):
        ft = build_frequency_table(tiny_corpus)
        assert ft.num_questions == 2
        # "the" appears in both questions; "moons" only in the first.
        assert ft.counts["the"] == 2
        assert ft.counts["moons"] == 1
        assert ft.counts["opera"] == 1

    def test_word_twice_in_one_question_counts_once(self, tmp_path):
        import json

        rec = {
            "question_id": "q",
            "question": "round and round it goes",
            "candidates": [
                {"id": "w", "text": "It spins .", "label": 1, "prev": None, "next": None}
            ],
        }
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        from otrank.corpus import load_corpus

        ft = build_frequency_table(load_corpus(path, split="train"))
        assert ft.counts["round"] == 1

    def test_unseen_word_smooths_to_one(self, tiny_ft):
        assert tiny_ft.smoothed("zzyzx") == 1

    def test_requires_train_split(self, tiny_corpus):
        with pytest.raises(ValueError, match="train"):
            build_frequency_table(Corpus(instances=tiny_corpus.instances, split="dev"))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_frequency_table(Corpus(instances=(), split="train"))

    def test_order_independent(self, tiny_corpus):
        shuffled = Corpus(instances=tiny_corpus.instances[::-1], split="train")
        assert build_frequency_table(shuffled).counts == build_frequency_table(
            tiny_corpus
        ).counts


class TestMarginalDistribution:
    def _tokens(self, words):
        return list(make_sentence(" ".join(words)).tokens)

    def test_equal_counts(self):
        ft = FrequencyTable(counts={"alpha": 2, "beta": 2}, num_questions=4)
        np.testing.assert_allclose(
            marginal_distribution(self._tokens(["alpha", "beta"]), ft), [0.5, 0.5]
        )

    def test_three_one_split(self):
        ft = FrequencyTable(counts={"alpha": 3, "beta": 1}, num_questions=4)
        np.testing.assert_allclose(
            marginal_distribution(self._tokens(["alpha", "beta"]), ft), [0.75, 0.25]
        )

    def test_all_unseen_is_uniform(self):
        ft = FrequencyTable(counts={}, num_questions=3)
        np.testing.assert_allclose(
            marginal_distribution(self._tokens(["one", "two", "three", "four"]), ft),
            [0.25] * 4,
        )

    def test_empty_tokens_rejected(self, tiny_ft):
        with pytest.raises(ValueError):
            marginal_distribution([], tiny_ft)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=12
        )
    )
    def test_sums_to_one(self, counts):
        words = [f"word{i}" for i in range(len(counts))]
        ft = FrequencyTable(
            counts={w: c for w, c in zip(words, counts)}, num_questions=max(counts, default=1) + 1
        )
        dist = marginal_distribution(self._tokens(words), ft)
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert np.all(dist >= 0)


class TestEmbeddingStore:
    def test_shape_contract(self, tiny_corpus, tiny_store):
        inst = tiny_corpus.instances[0]
        vecs = tiny_store.stored_vectors(inst.question_id, QUESTION_WINDOW_ID, ROLE_Q)
        assert vecs.shape == (len(inst.question.tokens), tiny_store.dim)

    def test_padding_is_zero_vector(self, tiny_corpus, tiny_store):
        # q1-w2 has a padded prev sentence.
        vecs = tiny_store.stored_vectors("q1", "q1-w2", "p")
        np.testing.assert_array_equal(vecs, np.zeros((1, tiny_store.dim)))

    @pytest.mark.parametrize("role,rows,says", [
        ("x", 2, "unknown role 'x'"),
        (ROLE_C, 0, "at least one token vector"),
    ], ids=["role-x", "zero-rows"])
    def test_add_sentence_rejects(self, role, rows, says):
        store = EmbeddingStore(dim=4)
        with pytest.raises(ValueError, match=says):
            store.add_sentence("q", "w", role, np.zeros((rows, 4)))
        assert store.num_records == 0

    def test_missing_key_names_key(self, tiny_store):
        with pytest.raises(EmbeddingKeyError, match="no-such-window"):
            tiny_store.stored_vectors("q1", "no-such-window", ROLE_C)

    def test_round_trip_bit_exact(self, tiny_store, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_store(path, tiny_store)
        loaded = load_embedding_store(path)
        assert loaded.dim == tiny_store.dim
        for key, arr in tiny_store.sorted_items():
            got = loaded.stored_vectors(*key)
            # float64 -> float32 on write, held as float32 on read; the second
            # write/read cycle must reproduce the bytes exactly.
            np.testing.assert_array_equal(got, arr.astype(np.float32), strict=True)
        path2 = tmp_path / "emb2.bin"
        write_embedding_store(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_sidecar(self, tiny_store, tmp_path):
        import json

        path = tmp_path / "emb.bin"
        write_embedding_store(path, tiny_store)
        sidecar = json.loads((tmp_path / "emb.bin.json").read_text())
        assert sidecar == {"dim": tiny_store.dim, "count": tiny_store.num_records}

    def test_truncated_file(self, tiny_store, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_store(path, tiny_store)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(EmbeddingStoreError, match="truncated"):
            load_embedding_store(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(EmbeddingStoreError, match="magic"):
            load_embedding_store(path)

    def test_trailing_garbage(self, tiny_store, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_store(path, tiny_store)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(EmbeddingStoreError, match="trailing"):
            load_embedding_store(path)

    def test_dimension_mismatch_on_add(self):
        store = EmbeddingStore(dim=4)
        with pytest.raises(ValueError, match="tokens, 4"):
            store.add_sentence("i", "w", ROLE_C, np.zeros((2, 3)))

    def test_noncontiguous_token_indices(self, tmp_path):
        # A file whose single sentence starts at token index 1.
        path = tmp_path / "gap.bin"
        _write_records(path, 2, [("inst", "win", "c", 1, np.zeros(2))])
        with pytest.raises(EmbeddingStoreError, match="contiguous"):
            load_embedding_store(path)

    def test_interleaved_out_of_order_records_load_as_sorted(self, tiny_store, tmp_path):
        records = [(*key, i, arr[i]) for key, arr in tiny_store.sorted_items()
                   for i in range(arr.shape[0])]
        order = np.random.default_rng(5).permutation(len(records))
        shuffled = tmp_path / "shuffled.bin"
        _write_records(shuffled, tiny_store.dim, [records[k] for k in order])
        sorted_path = tmp_path / "sorted.bin"
        write_embedding_store(sorted_path, tiny_store)
        a, b = load_embedding_store(shuffled), load_embedding_store(sorted_path)
        assert [k for k, _ in a.sorted_items()] == [k for k, _ in b.sorted_items()]
        for key, _ in b.sorted_items():
            np.testing.assert_array_equal(a.stored_vectors(*key), b.stored_vectors(*key),
                                          strict=True)
        # The sorted file is what writing either store gives back.
        again = tmp_path / "again.bin"
        write_embedding_store(again, a)
        assert again.read_bytes() == sorted_path.read_bytes()

    @pytest.mark.parametrize("indices", [(0, 1, 1), (1, 0, 1), (0, 2, 2, 1)])
    @pytest.mark.parametrize("split_run", [False, True])
    def test_duplicate_index_names_key_and_index(self, indices, split_run, tmp_path):
        dup = max(set(i for i in indices if indices.count(i) > 1))
        records = [("i", "w", "c", i, np.zeros(2)) for i in indices]
        if split_run:  # another sentence's record between them: two runs of one key
            records.insert(1, ("j", "w", "c", 0, np.zeros(2)))
        path = tmp_path / "dup.bin"
        _write_records(path, 2, records)
        with pytest.raises(EmbeddingStoreError,
                           match=rf"duplicate token index {dup} for \('i', 'w', 'c'\)"):
            load_embedding_store(path)

    def test_stored_vectors_are_held_as_loaded(self, tmp_path):
        x = np.array([[0.1, 1 / 3, -2.7182818, 1e-40], [3.0, np.pi, 1e30, -0.0]])
        store = EmbeddingStore(dim=4)
        store.add_sentence("i", "w", ROLE_C, x)
        assert store.stored_vectors("i", "w", ROLE_C) is store.sorted_items()[0][1]
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        held = load_embedding_store(path).stored_vectors("i", "w", ROLE_C)
        assert held.dtype == np.float32 and not held.flags.writeable
        np.testing.assert_array_equal(held, np.float32(x), strict=True)
        with pytest.raises(EmbeddingKeyError, match="no-such-window"):
            store.stored_vectors("i", "no-such-window", ROLE_C)

    def test_store_rebuild_matches(self, tiny_corpus):
        # Building twice from the same corpus yields identical stores.
        a = build_tiny_store(tiny_corpus)
        b = build_tiny_store(tiny_corpus)
        for (ka, va), (kb, vb) in zip(a.sorted_items(), b.sorted_items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)
