"""Frequency table, marginal distributions, and the binary embedding store."""

import os
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


def _write_records(path, dim, records):
    """An embedding store file holding ``records`` of (instance, window, role,
    token index, vector), in the order given; an id given as bytes is written as is."""
    with path.open("wb") as fh:
        fh.write(b"OTRK" + struct.pack("<IIQ", 1, dim, len(records)))
        for inst, win, role, idx, vec in records:
            for s in (inst, win):
                raw = s if isinstance(s, bytes) else s.encode()
                fh.write(struct.pack("<I", len(raw)) + raw)
            fh.write(role.encode() + struct.pack("<I", idx))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


GOOD = ("good", "w", "c")
BAD = ("bad", "w", "c")


def _good_records():
    return [(*GOOD, i, [i, -i]) for i in range(3)]


def _recount(raw, delta):
    (count,) = struct.unpack_from("<Q", raw, 12)
    return raw[:12] + struct.pack("<Q", count + delta) + raw[20:]


# (records after the good sentence's, an edit of the file's bytes, what the error says).
# The bad sentence comes last, so that a kept good sentence is pending when it fails.
_CORRUPT_STORES = {
    "truncated": ([(*BAD, 0, [1, 2])], lambda raw: raw[:-7], "emb.bin: truncated file"),
    "empty-file": ([], lambda raw: b"", "emb.bin: truncated file"),
    "bad-magic": ([], lambda raw: b"NOPE" + raw[4:], "emb.bin: bad magic"),
    "trailing-bytes": ([(*BAD, 0, [1, 2])], lambda raw: raw + b"xx",
                       "emb.bin: 2 trailing bytes"),
    "non-contiguous": ([(*BAD, 1, [1, 2])], None,
                       "token indices for ('bad', 'w', 'c') are not contiguous from 0"),
    "duplicate": ([(*BAD, i, [i, 0]) for i in (0, 1, 1)], None,
                  "duplicate token index 1 for ('bad', 'w', 'c')"),
    "duplicate-in-two-runs": ([(*BAD, 0, [1, 2]), ("sep", "w", "c", 0, [0, 0]),
                               (*BAD, 0, [1, 2])], None,
                              "duplicate token index 0 for ('bad', 'w', 'c')"),
    "unknown-role": ([("bad", "w", "x", 0, [1, 2])], None, "unknown role byte 'x'"),
    "non-utf8": ([(b"b\xffd", "w", "c", 0, [1, 2])], None, "is not UTF-8"),
    "count-too-high": ([(*BAD, 0, [1, 2])], lambda raw: _recount(raw, 1),
                       "emb.bin: truncated file"),
    "count-too-low": ([(*BAD, 0, [1, 2])], lambda raw: _recount(raw, -1), "trailing bytes"),
}


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

    @pytest.mark.parametrize("keys", [None, set(), {GOOD}], ids=["all", "none", "good-only"])
    @pytest.mark.parametrize("case", list(_CORRUPT_STORES))
    def test_corrupt_store_fails_alike_for_any_keys(self, case, keys, tmp_path):
        # A keyed load checks every record of the file, kept or skipped, as a full load does.
        records, edit, says = _CORRUPT_STORES[case]
        path = tmp_path / "emb.bin"
        _write_records(path, 2, _good_records() + records)
        if edit:
            path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(EmbeddingStoreError) as full:
            load_embedding_store(path)
        assert says in str(full.value)
        with pytest.raises(EmbeddingStoreError) as keyed:
            load_embedding_store(path, keys)
        assert type(keyed.value) is type(full.value) and str(keyed.value) == str(full.value)

    def test_the_uncorrupted_file_loads_keyed(self, tmp_path):
        path = tmp_path / "emb.bin"
        _write_records(path, 2, _good_records() + [(*BAD, 0, [1, 2])])
        store = load_embedding_store(path, {GOOD})
        np.testing.assert_array_equal(store.stored_vectors(*GOOD), np.float32(
            [[0, 0], [1, -1], [2, -2]]), strict=True)

    @pytest.mark.parametrize("value", [1e39, -3.5e38, np.finfo(np.float64).max])
    def test_writer_rejects_a_finite_value_beyond_float32(self, value, tmp_path):
        store = EmbeddingStore(dim=2)
        store.add_sentence("i", "w", ROLE_C, [[0.0, 1.0], [2.0, 3.0]])
        store.add_sentence("j", "w", ROLE_C, [[0.0, 1.0], [value, 0.0], [2.0, 3.0]])
        path = tmp_path / "emb.bin"
        with pytest.raises(ValueError, match=r"token 1 of \('j', 'w', 'c'\)"):
            write_embedding_store(path, store)
        assert not path.exists() and not Path(str(path) + ".json").exists()

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

    def test_equals_the_full_load_on_every_kept_key(self, tiny_store, tmp_path):
        path = _store_file(tiny_store, tmp_path)
        full = load_embedding_store(path)
        all_keys = [key for key, _ in tiny_store.sorted_items()]
        kept, skipped = set(all_keys[::2]), all_keys[1::2]
        missing = ("no-such-instance", "w", ROLE_C)
        keyed = load_embedding_store(path, kept | {missing})
        self._assert_kept(keyed, full, kept)
        assert keyed.num_records == sum(full.stored_vectors(*k).shape[0] for k in kept)
        assert keyed.num_records < full.num_records
        for key in [*skipped, missing]:
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

    @pytest.mark.parametrize("seed", [5, 6])
    def test_interleaved_out_of_order_runs_are_joined_and_sorted(self, seed, tiny_store,
                                                                   tmp_path):
        records = [(*key, i, arr[i]) for key, arr in tiny_store.sorted_items()
                   for i in range(arr.shape[0])]
        order = np.random.default_rng(seed).permutation(len(records))
        shuffled = tmp_path / "shuffled.bin"
        _write_records(shuffled, tiny_store.dim, [records[k] for k in order])
        full = load_embedding_store(_store_file(tiny_store, tmp_path))
        keys = [key for key, _ in tiny_store.sorted_items()]
        for kept in (keys, keys[1::3]):
            keyed = load_embedding_store(shuffled, set(kept))
            self._assert_kept(keyed, full, kept)
            assert [k for k, _ in keyed.sorted_items()] == sorted(kept)

    def test_a_sentence_in_two_runs_is_joined(self, tmp_path):
        path = tmp_path / "split.bin"
        _write_records(path, 2, [(*BAD, 0, [0, 1]), (*GOOD, 0, [9, 9]), (*BAD, 2, [4, 5]),
                                 (*BAD, 1, [2, 3])])
        for keys in (None, {BAD}):
            got = load_embedding_store(path, keys).stored_vectors(*BAD)
            np.testing.assert_array_equal(got, np.float32([[0, 1], [2, 3], [4, 5]]), strict=True)
            assert got.flags.c_contiguous and not got.flags.writeable


# Peak resident bytes of this process: VmHWM. A child's ru_maxrss starts at its
# parent's resident set at the fork, so it would hide growth below pytest's size.
_MEMORY_GUARD = textwrap.dedent("""
    import struct, sys
    import numpy as np
    from otrank.embeddings import load_embedding_store

    def peak():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

    path, dim, sentences, tokens = sys.argv[1], 768, 1000, 8
    rng = np.random.default_rng(0)
    with open(path, "wb") as fh:
        fh.write(b"OTRK" + struct.pack("<IIQ", 1, dim, sentences * tokens))
        for s in range(sentences):
            head = struct.pack("<I", 6) + b"i%05d" % s + struct.pack("<I", 1) + b"w" + b"c"
            vecs = rng.standard_normal((tokens, dim)).astype("<f4")
            fh.write(b"".join(head + struct.pack("<I", t) + vecs[t].tobytes()
                              for t in range(tokens)))
    before = peak()
    store = load_embedding_store(path, {("i00500", "w", "c")})
    assert store.num_records == tokens
    print(peak() - before)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_keyed_load_holds_little_of_the_file(tmp_path):
    """A keyed load of one sentence of a 24.7 MB store at d=768, in a fresh process,
    raises its peak resident set by less than a third of the file: the walk
    hands the mapped pages back as it goes."""
    path = tmp_path / "wide.bin"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _MEMORY_GUARD, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    size = path.stat().st_size
    assert size > 24e6
    grew = int(proc.stdout.split()[-1])
    assert grew < size / 3, f"peak grew by {grew / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"
