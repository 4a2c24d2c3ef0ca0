"""The package surface: explicit exports, and the benchmark tracer's targets."""

import dataclasses
import importlib.util
import inspect
import typing
from pathlib import Path

import otrank
from otrank import metrics, model, mutual_info, synthetic, training
from otrank.cli import main
from otrank.corpus import CandidateWindow, Sentence
from otrank.embeddings import EmbeddingStore
from otrank.mutual_info import WindowPairs
from otrank.sinkhorn import SinkhornSettings

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Per-sentence and per-window twins of the batched path, one-use wrappers, the
# per-window feature and batch types, the per-pair alignment preparation, the
# per-window weight-gradient fold, the regularizer's pair-count groups, the
# one-problem post-solve wrappers, the label codes with their pair-set type and
# per-window regularizer, the sentence role names, the log-domain solver's
# steps, the per-tensor gradient dict and checkpoint skeleton that the flat
# parameter buffer replaced, the question side's own alignment preparation, and
# the window padding and missing-frequency-table error that the loaders' own
# checks replaced, the checkpoint's named tensor table, the reused buffers of
# the training step, the regularizer's 8-row pair table, and the header reader
# that struct.unpack_from replaced, that the package no longer has.
REMOVED = ("dependency_score", "edge_weights", "gcn_forward", "score_candidate", "as2_loss",
           "score_window", "discriminator", "extract_window_features",
           "extract_corpus_features", "gradients", "store_checksum", "WindowFeatures",
           "WindowBatch", "_stacked", "_prepare", "_Prepared", "add_in_order", "_fold_products",
           "STACK_BYTES", "PairGroup", "transport_cost", "relevant_context",
           "sentence_representation", "PairIndexSets", "build_pair_sets", "mi_loss",
           "_label_code", "ROLE_QUESTION", "ROLE_CANDIDATE", "ROLE_PREV", "ROLE_NEXT",
           "_logsumexp", "_update", "_worst_gap", "_build", "zero_gradients",
           "_params_from_tensors", "_QuestionSide", "_question_side", "_sentence_vectors",
           "NonFiniteCostError", "pad_context", "MissingFrequencyTableError", "_pack_tensors",
           "_decode_tensors", "Workspace", "_pairs_by_mask", "_ANSWER_BITS", "_PAIRS_BY_MASK",
           "_TABLE_COUNT", "_TABLE_START", "ByteReader", "_walk_records", "_copy_pending",
           "_check_indices", "_write_str", "_RELEASE_BYTES", "_MADV_DONTNEED")


def test_every_export_resolves():
    assert len(set(otrank.__all__)) == len(otrank.__all__)
    for name in otrank.__all__:
        assert getattr(otrank, name, None) is not None, name


def test_no_removed_name_is_exported():
    assert not set(REMOVED) & set(otrank.__all__)
    for module in ("model", "mutual_info", "training", "embeddings", "metrics", "cli",
                   "sinkhorn", "corpus", "errors", "synthetic"):
        mod = importlib.import_module(f"otrank.{module}")
        assert not [name for name in REMOVED if hasattr(mod, name)], module
    # Alignment widens only the content rows it gathers, so nothing widens a whole sentence.
    assert not hasattr(EmbeddingStore, "sentence_vectors")


def test_one_feature_type():
    # Features pass as one stacked FeatureSet; alignments come from align_windows.
    assert "keep_alignments" not in inspect.signature(model.extract_features).parameters
    assert not hasattr(WindowPairs, "take")


def test_no_scratch_buffer_is_passed_in():
    # Each intermediate is allocated where it is computed, so no pass takes a
    # buffer to reuse.
    passes = (model.forward, model.score_windows, mutual_info.mi_forward,
              mutual_info.mi_backward, training._mean_terms, training._backward,
              training.loss_and_gradients, training._dev_metrics, metrics.rank_features,
              training.train)
    assert [f.__name__ for f in passes if "ws" in inspect.signature(f).parameters] == []


def test_checkpoint_holds_what_is_read_back():
    # Training starts from fresh parameters, so a checkpoint keeps no Adam state.
    assert "moments" not in inspect.signature(training.load_checkpoint).parameters
    assert [f.name for f in dataclasses.fields(training.Checkpoint)] == [
        "params", "config", "epoch", "freq_table"]


def test_loaded_inputs_are_complete():
    # The loaders establish that a checkpoint has its frequency table and a window
    # its three sentences, so neither may be left out.
    ft = {f.name: f for f in dataclasses.fields(training.Checkpoint)}["freq_table"]
    assert ft.default is dataclasses.MISSING and ft.default_factory is dataclasses.MISSING
    hints = typing.get_type_hints(CandidateWindow)
    assert hints["prev"] is hints["next"] is Sentence


def test_every_setting_has_one_source(capsys):
    # The audit's micro-model, step and threshold are training constants, the
    # generator's noise and context rates synthetic ones, and the model's sizes
    # come from each caller's config; train takes its settings from the config file.
    assert tuple(inspect.signature(training.gradcheck).parameters) == ("seed",)
    generator = inspect.signature(synthetic.make_synthetic_corpus).parameters
    assert not {"noise", "answer_context_rate", "distractor_context_rate"} & set(generator)
    init = inspect.signature(model.init_model_params).parameters
    assert [init[name].default for name in ("hidden", "layers")] == [inspect.Parameter.empty] * 2
    assert main(["train", "--help"]) == 0
    train_help = capsys.readouterr().out
    assert "--config" in train_help
    assert "--seed" not in train_help and "--epochs" not in train_help


def test_train_config_holds_the_settings_a_caller_varies():
    # Adam's rates and epsilon and the solver's iteration budget and tolerance are
    # constants; a checkpoint's header holds only d, and its config the other sizes.
    assert [f.name for f in dataclasses.fields(training.TrainConfig)] == [
        "learning_rate", "batch_size", "gamma", "epochs", "seed", "hidden_size", "gcn_layers",
        "sinkhorn_eps_scale"]
    assert training.TrainConfig().sinkhorn_settings() == SinkhornSettings()
    assert (training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS) == (0.9, 0.999, 1e-8)


def test_every_trace_target_resolves():
    # The tracer wraps module attributes by name; a span none of whose sites
    # resolves turns every metric that needs it into null.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = tracing.Tracer().metrics()
    missing = [name for name, value in metrics.items() if value is None]
    assert metrics and not missing, f"trace metrics without a resolvable target: {missing}"
