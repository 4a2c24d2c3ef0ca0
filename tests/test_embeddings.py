"""Frequency table, marginal distributions, and the binary embedding store."""

import json
import os
import re
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

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


def _store_bytes(dim, directory, rows):
    """Format-2 embedding-store file bytes: the header, ``directory`` as compact JSON
    (bytes are written as they are), then ``rows`` as float32."""
    if not isinstance(directory, bytes):
        directory = json.dumps(directory, separators=(",", ":")).encode()
    return (b"OTRK" + struct.pack("<IIQ", 2, dim, len(directory)) + directory
            + np.asarray(rows, dtype="<f4").tobytes())


def _set_u32(raw, pos, value):
    return raw[:pos] + struct.pack("<I", value) + raw[pos + 4:]


GOOD = ("good", "w", "c")
BAD = ("wrong", "w", "c")  # sorts after GOOD
_GOOD_ROWS = [[0, 0], [1, -1], [2, -2]]
_SHAPE = "directory entry 1 is not [instance id, window id, role, rows]"
_NOT_JSON = "emb.bin: the key directory is not UTF-8 JSON"


# (the directory entries after the good sentence's, or the whole directory as
# bytes; the rows after the good sentence's; an edit of the file's bytes; what the
# error says).
_CORRUPT_STORES = {
    "truncated": ([[*BAD, 1]], 1, lambda raw: raw[:-7], "emb.bin: truncated file"),
    "empty-file": ([], 0, lambda raw: b"", "emb.bin: truncated file"),
    "header-only": ([], 0, lambda raw: raw[:20], "emb.bin: truncated file"),
    "bad-magic": ([], 0, lambda raw: b"NOPE" + raw[4:], "emb.bin: bad magic"),
    "trailing-bytes": ([[*BAD, 1]], 1, lambda raw: raw + b"xx", "emb.bin: 2 trailing bytes"),
    "version-1": ([], 0, lambda raw: _set_u32(raw, 4, 1),
                  "emb.bin: unsupported format version 1"),
    "dim-0": ([], 0, lambda raw: _set_u32(raw, 8, 0), "emb.bin: dimension must be positive"),
    "directory-length-too-high": ([], 0, lambda raw: raw[:12] + struct.pack(
        "<Q", len(raw)) + raw[20:], "emb.bin: truncated file"),
    "rows-too-many": ([[*BAD, 2]], 1, None, "emb.bin: truncated file"),
    "rows-too-few": ([[*BAD, 1]], 2, None, "emb.bin: 8 trailing bytes"),
    "unsorted-keys": ([["aaa", "w", "c", 1]], 1, None,
                      "emb.bin: key ('aaa', 'w', 'c') is out of sorted order"),
    "duplicate-key": ([[*BAD, 1], [*BAD, 1]], 2, None,
                      "emb.bin: duplicate key ('wrong', 'w', 'c')"),
    "unknown-role": ([["wrong", "w", "x", 1]], 1, None,
                     "emb.bin: unknown role 'x' for ('wrong', 'w', 'x')"),
    "role-not-a-string": ([["wrong", "w", None, 1]], 1, None, "emb.bin: unknown role None"),
    "zero-rows": ([[*BAD, 0]], 0, None,
                  "emb.bin: ('wrong', 'w', 'c') has 0 rows, not at least one"),
    "negative-rows": ([[*BAD, -1]], 0, None, "('wrong', 'w', 'c') has -1 rows"),
    "entry-of-three": ([list(BAD)], 0, None, _SHAPE),
    "entry-not-a-list": ([{"key": list(BAD), "rows": 1}], 1, None, _SHAPE),
    "id-not-a-string": ([["wrong", 5, "c", 1]], 1, None, _SHAPE),
    "rows-bool": ([[*BAD, True]], 1, None, _SHAPE),
    "rows-float": ([[*BAD, 1.0]], 1, None, _SHAPE),
    "directory-not-an-array": (b'{"good": 3}', 0, None,
                               "emb.bin: the key directory is not a JSON array"),
    "directory-not-utf8": (b'[["good","w","c",3],["b\xffd","w","c",1]]', 1, None, _NOT_JSON),
    "directory-not-json": (b'[["good","w","c",3],', 0, None, _NOT_JSON),
    "directory-nested-too-deep": (b"[" * 100_000, 0, None, _NOT_JSON),
}


def _corrupt_store(case):
    """The bytes of ``_CORRUPT_STORES[case]``: the good sentence, then the case's."""
    entries, rows, edit, _ = _CORRUPT_STORES[case]
    directory = entries if isinstance(entries, bytes) else [[*GOOD, 3], *entries]
    raw = _store_bytes(2, directory, _GOOD_ROWS + [[1, 2]] * rows)
    return edit(raw) if edit else raw


class TestFrequencyTable:
    def test_counts_questions_not_occurrences(self, tiny_corpus):
        ft = build_frequency_table(tiny_corpus)
        assert ft.num_questions == 2
        # "the" appears in both questions; "moons" only in the first.
        assert ft.counts["the"] == 2
        assert ft.counts["moons"] == 1
        assert ft.counts["opera"] == 1

    def test_word_twice_in_one_question_counts_once(self, tmp_path):
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

    @pytest.mark.parametrize("role,shape,says", [
        ("x", (2, 4), "unknown role 'x'"),
        (ROLE_C, (0, 4), "at least one token vector"),
        (ROLE_C, (2, 3), re.escape("expected shape (tokens, 4), got (2, 3)")),
    ], ids=["role-x", "zero-rows", "other-dim"])
    def test_add_sentence_rejects(self, role, shape, says):
        store = EmbeddingStore(dim=4)
        with pytest.raises(ValueError, match=says):
            store.add_sentence("q", "w", role, np.zeros(shape))
        assert store.num_records == 0

    def test_add_sentence_rejects_a_key_it_holds(self):
        # A second add would leave the first rows orphaned in the matrix.
        store = EmbeddingStore(dim=4)
        store.add_sentence("q", "w", ROLE_C, np.ones((2, 4)))
        with pytest.raises(ValueError, match=re.escape("already holds ('q', 'w', 'c')")):
            store.add_sentence("q", "w", ROLE_C, np.zeros((3, 4)))
        assert store.num_records == 2 and store.matrix.shape == (2, 4)
        np.testing.assert_array_equal(store.stored_vectors("q", "w", ROLE_C), np.ones((2, 4)))

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

    def test_writes_the_documented_layout(self, tmp_path):
        store = EmbeddingStore(dim=2)
        store.add_sentence("i2", QUESTION_WINDOW_ID, ROLE_Q, [[0.5, -1.0]])
        store.add_sentence("i1", "w\u00e9", ROLE_C, [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        assert path.read_bytes() == (
            b"OTRK" + struct.pack("<IIQ", 2, 2, 41)
            + b'[["i1","w\\u00e9","c",2],["i2","-","q",1]]'
            + np.float32([[1, 2], [3, 4], [0.5, -1]]).tobytes())

    def test_sentences_added_in_any_order_write_the_sorted_file(self, tiny_store, tmp_path):
        items = tiny_store.sorted_items()
        shuffled = EmbeddingStore(dim=tiny_store.dim)
        for k in np.random.default_rng(5).permutation(len(items)):
            shuffled.add_sentence(*items[k][0], items[k][1])
        assert list(shuffled._spans) != [k for k, _ in items]
        a, b = tmp_path / "shuffled.bin", tmp_path / "sorted.bin"
        write_embedding_store(a, shuffled)
        write_embedding_store(b, tiny_store)
        assert a.read_bytes() == b.read_bytes()

    def test_stored_vectors_are_held_as_loaded(self, tmp_path):
        # A sentence is a read-only view of its store's one row matrix: float64
        # rows as added, float32 rows as loaded.
        x = np.array([[0.1, 1 / 3, -2.7182818, 1e-40], [3.0, np.pi, 1e30, -0.0]])
        store = EmbeddingStore(dim=4)
        store.add_sentence("j", "w", ROLE_C, x[:1])
        store.add_sentence("i", "w", ROLE_C, x)
        added = store.stored_vectors("i", "w", ROLE_C)
        assert added.dtype == np.float64 and not added.flags.writeable
        assert np.shares_memory(added, store.matrix) and store.matrix.shape == (3, 4)
        np.testing.assert_array_equal(added, x, strict=True)
        assert store.span("i", "w", ROLE_C) == (1, 2)
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        loaded = load_embedding_store(path)
        held = loaded.stored_vectors("i", "w", ROLE_C)
        assert held.dtype == np.float32 and not held.flags.writeable
        assert np.shares_memory(held, loaded.matrix) and not loaded.matrix.flags.writeable
        np.testing.assert_array_equal(held, np.float32(x), strict=True)
        assert loaded.span("i", "w", ROLE_C) == (0, 2)  # the file holds sorted keys
        with pytest.raises(EmbeddingKeyError, match="no-such-window"):
            store.stored_vectors("i", "no-such-window", ROLE_C)

    def test_a_sentence_added_after_a_read_is_packed_on_the_next(self, tmp_path):
        store = EmbeddingStore(dim=2)
        store.add_sentence("i", "w", ROLE_C, [[1.0, 2.0]])
        first = store.stored_vectors("i", "w", ROLE_C)
        store.add_sentence("j", "w", ROLE_C, [[3.0, 4.0], [5.0, 6.0]])
        store.add_sentence("i", "w", ROLE_Q, [[7.0, 8.0]])
        np.testing.assert_array_equal(store.matrix, [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert store.span("j", "w", ROLE_C) == (1, 2) and store.num_records == 4
        np.testing.assert_array_equal(first, [[1.0, 2.0]])  # an earlier view keeps its rows
        loaded = load_embedding_store(_store_file(store, tmp_path))
        loaded.add_sentence("k", "w", ROLE_C, [[0.1, 0.2]])  # float64 rows join float32 ones
        assert loaded.matrix.dtype == np.float64
        np.testing.assert_array_equal(loaded.stored_vectors("i", "w", ROLE_Q), [[7.0, 8.0]])
        np.testing.assert_array_equal(loaded.stored_vectors("k", "w", ROLE_C), [[0.1, 0.2]])

    def test_store_rebuild_matches(self, tiny_corpus):
        # Building twice from the same corpus yields identical stores.
        a = build_tiny_store(tiny_corpus)
        b = build_tiny_store(tiny_corpus)
        for (ka, va), (kb, vb) in zip(a.sorted_items(), b.sorted_items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

    @pytest.mark.parametrize("keys", [None, set(), {GOOD}], ids=["all", "none", "good-only"])
    @pytest.mark.parametrize("case", list(_CORRUPT_STORES))
    def test_corrupt_store_fails_alike_for_any_keys(self, case, keys, tmp_path):
        # A keyed load checks the whole directory and the file's size, as a full load does.
        path = tmp_path / "emb.bin"
        path.write_bytes(_corrupt_store(case))
        with pytest.raises(EmbeddingStoreError) as full:
            load_embedding_store(path)
        assert _CORRUPT_STORES[case][-1] in str(full.value)
        with pytest.raises(EmbeddingStoreError) as keyed:
            load_embedding_store(path, keys)
        assert type(keyed.value) is type(full.value) and str(keyed.value) == str(full.value)

    def test_the_uncorrupted_file_loads_keyed(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(_store_bytes(2, [[*GOOD, 3], [*BAD, 1]], _GOOD_ROWS + [[1, 2]]))
        store = load_embedding_store(path, {GOOD})
        np.testing.assert_array_equal(store.stored_vectors(*GOOD), np.float32(_GOOD_ROWS),
                                      strict=True)

    @pytest.mark.parametrize("value", [1e39, -3.5e38, np.finfo(np.float64).max])
    def test_writer_rejects_a_finite_value_beyond_float32(self, value, tmp_path):
        store = EmbeddingStore(dim=2)
        store.add_sentence("i", "w", ROLE_C, [[0.0, 1.0], [2.0, 3.0]])
        store.add_sentence("j", "w", ROLE_C, [[0.0, 1.0], [value, 0.0], [2.0, 3.0]])
        path = tmp_path / "emb.bin"
        with pytest.raises(ValueError, match=r"token 1 of \('j', 'w', 'c'\)"):
            write_embedding_store(path, store)
        assert not path.exists()

    def test_writer_keeps_nan_inf_and_float32_max(self, tmp_path):
        x = np.array([[np.nan, np.inf], [-np.inf, float(np.finfo(np.float32).max)]])
        store = EmbeddingStore(dim=2)
        store.add_sentence("i", "w", ROLE_C, x)
        path = tmp_path / "emb.bin"
        write_embedding_store(path, store)
        np.testing.assert_array_equal(load_embedding_store(path).stored_vectors("i", "w", ROLE_C),
                                      np.float32(x), strict=True)


def _store_file(store, tmp_path, name="emb.bin"):
    path = tmp_path / name
    write_embedding_store(path, store)
    return path


class TestKeyedLoad:
    def _assert_kept(self, keyed, full, kept):
        bases = set()
        for key in kept:
            got = keyed.stored_vectors(*key)
            np.testing.assert_array_equal(got, full.stored_vectors(*key), strict=True)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert not got.flags.writeable
            bases.add(id(got.base))
        # Every kept sentence is a slice of one (rows, dim) buffer.
        assert len(bases) == 1
        assert got.base.shape == (keyed.num_records, keyed.dim)

    @pytest.mark.parametrize("pick", [slice(None, None, 2), [0, 1, 2, 5, 6, -1]],
                             ids=["every-other", "adjacent-stretches"])
    def test_equals_the_full_load_on_every_kept_key(self, pick, tiny_store, tmp_path):
        path = _store_file(tiny_store, tmp_path)
        full = load_embedding_store(path)
        all_keys = [key for key, _ in tiny_store.sorted_items()]
        kept = set(all_keys[pick] if isinstance(pick, slice) else [all_keys[i] for i in pick])
        missing = ("no-such-instance", "w", ROLE_C)
        keyed = load_embedding_store(path, kept | {missing})
        self._assert_kept(keyed, full, kept)
        assert keyed.num_records == sum(full.stored_vectors(*k).shape[0] for k in kept)
        assert keyed.num_records < full.num_records
        for key in [*(k for k in all_keys if k not in kept), missing]:
            with pytest.raises(EmbeddingKeyError, match=repr(key[1])):
                keyed.stored_vectors(*key)

    def test_full_load_is_one_buffer_too(self, tiny_store, tmp_path):
        full = load_embedding_store(_store_file(tiny_store, tmp_path))
        keys = [key for key, _ in tiny_store.sorted_items()]
        self._assert_kept(full, full, keys)
        assert full.num_records == tiny_store.num_records

    def test_no_keys_loads_nothing(self, tiny_store, tmp_path):
        store = load_embedding_store(_store_file(tiny_store, tmp_path), set())
        assert store.num_records == 0 and store.sorted_items() == []
        assert store.dim == tiny_store.dim


# Peak resident bytes of this process: VmHWM. A child's ru_maxrss starts at its
# parent's resident set at the fork, so it would hide growth below pytest's size.
_MEMORY_GUARD = textwrap.dedent("""
    import sys
    from otrank.embeddings import load_embedding_store

    def peak():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

    before = peak()
    store = load_embedding_store(sys.argv[1], {("i00500", "w", "c")})
    assert store.num_records == 8
    print(peak() - before)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_keyed_load_holds_little_of_the_file(tmp_path):
    """A keyed load of one sentence of a 24.7 MB store at d=768, in a fresh process,
    raises its peak resident set by less than a third of the file: only the kept
    sentence's rows are read. The file is written here, so that building it does
    not raise the measuring process's peak first."""
    rng = np.random.default_rng(0)
    store = EmbeddingStore(dim=768)
    for s in range(1000):
        store.add_sentence(f"i{s:05d}", "w", ROLE_C, rng.standard_normal((8, 768)))
    path = tmp_path / "wide.bin"
    write_embedding_store(path, store)
    del store
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _MEMORY_GUARD, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    size = path.stat().st_size
    assert size > 24e6
    grew = int(proc.stdout.split()[-1])
    assert grew < size / 3, f"peak grew by {grew / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"
