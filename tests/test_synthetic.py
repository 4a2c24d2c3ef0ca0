"""The synthetic generator's output, pinned through the files the benchmark reads."""

import hashlib

# SHA-256 of the files written for the benchmark's ``train`` workload, seed 1. A
# change to the generator or to its constants moves these before the benchmark
# sees it.
BENCH_TRAIN_DIGESTS = {
    "train": "20be6ef74da63795582cfc433076fd04f534e4992f8e44a0815166b148161ce3",
    "dev": "9ed575f66a150e730d1c3f71b02f303d272140420e8bd8480bd8896af94ba113",
    "emb": "242b94812cb46dcdffa1598036d07efeaddfc235d5b829d4427822b9a755fed1",
    "emb_sidecar": "44ab7393e4fc5f1312171340dda1e89b536bd1cfcf9fddf980fc1f2f076331bf",
}


def test_benchmark_train_inputs_are_pinned(bench_train_inputs):
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in bench_train_inputs.items()}
    assert digests == BENCH_TRAIN_DIGESTS
