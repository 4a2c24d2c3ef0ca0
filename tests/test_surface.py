"""The package surface: explicit exports, and the benchmark tracer's targets."""

import importlib.util
from pathlib import Path

import otrank

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Per-sentence and per-window twins of the batched path, and one-use wrappers,
# that the package no longer has.
REMOVED = ("dependency_score", "edge_weights", "gcn_forward", "score_candidate", "as2_loss",
           "score_window", "discriminator", "extract_window_features",
           "extract_corpus_features", "gradients", "store_checksum")


def test_every_export_resolves():
    assert len(set(otrank.__all__)) == len(otrank.__all__)
    for name in otrank.__all__:
        assert getattr(otrank, name, None) is not None, name


def test_no_removed_name_is_exported():
    assert not set(REMOVED) & set(otrank.__all__)
    for module in ("model", "mutual_info", "training", "embeddings", "metrics", "cli"):
        mod = importlib.import_module(f"otrank.{module}")
        assert not [name for name in REMOVED if hasattr(mod, name)], module


def test_every_trace_target_resolves():
    # The tracer wraps module attributes by name; a span none of whose sites
    # resolves turns every metric that needs it into null.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = tracing.Tracer().metrics()
    missing = [name for name, value in metrics.items() if value is None]
    assert metrics and not missing, f"trace metrics without a resolvable target: {missing}"
