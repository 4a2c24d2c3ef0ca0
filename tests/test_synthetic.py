"""The synthetic generator's output, pinned through the files the benchmark reads."""

import hashlib

from otrank.embeddings import load_embedding_store

# SHA-256 of the files written for the benchmark's ``train`` workload, seed 1. A
# change to the generator or to its constants moves these before the benchmark
# sees it.
BENCH_TRAIN_DIGESTS = {
    "train": "20be6ef74da63795582cfc433076fd04f534e4992f8e44a0815166b148161ce3",
    "dev": "9ed575f66a150e730d1c3f71b02f303d272140420e8bd8480bd8896af94ba113",
    "emb": "8141c265758abaa949ccae5d9214bb362e84bd6a49f2e4cb2c60d5a48dd59945",
}


def test_benchmark_train_inputs_are_pinned(bench_train_inputs):
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in bench_train_inputs.items()}
    assert digests == BENCH_TRAIN_DIGESTS


# SHA-256 of the values the ``emb`` file decodes to: each sentence's key, its
# strings NUL-joined and NUL-ended, then its float32 vectors, in key order. Unlike
# the file's digest, this holds across changes to the store's file format.
BENCH_TRAIN_STORE_VALUES = "23ec4153d936ff4b9d38eb36c853634c7821e2b6bc027b92c4e8bfa66b11e38b"


def test_benchmark_train_store_decodes_to_pinned_values(bench_train_inputs):
    store = load_embedding_store(bench_train_inputs["emb"])
    digest = hashlib.sha256()
    for key, arr in store.sorted_items():
        digest.update("\x00".join(key).encode() + b"\x00")
        digest.update(arr.tobytes())
    assert (len(store.sorted_items()), store.num_records) == (800, 3628)
    assert digest.hexdigest() == BENCH_TRAIN_STORE_VALUES
