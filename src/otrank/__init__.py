"""otrank: answer-sentence reranking from precomputed token embeddings.

Question words are coupled to candidate/context words with
entropic-regularized optimal transport; the resulting transport costs and
relevant-context representations feed a learned sentence dependency graph
and a small GCN whose candidate-node output is scored by a sigmoid head.
Training adds a mutual-information regularizer over the sentence
representations.
"""

__version__ = "0.1.0"

from .corpus import Corpus, load_corpus, save_corpus
from .embeddings import (
    FrequencyTable,
    build_frequency_table,
    load_embedding_store,
    marginal_distribution,
    write_embedding_store,
)
from .metrics import evaluate
from .model import extract_features, score_windows
from .sinkhorn import (
    SinkhornSettings,
    align_sentence,
    align_sentences,
    cost_matrix,
    sinkhorn_plan,
    sinkhorn_plans,
)
from .synthetic import make_synthetic_corpus
from .training import TrainConfig, gradcheck, load_checkpoint, train

# What the command line, the demos, the benchmark and the README import from otrank.
__all__ = [
    "Corpus",
    "FrequencyTable",
    "SinkhornSettings",
    "TrainConfig",
    "align_sentence",
    "align_sentences",
    "build_frequency_table",
    "cost_matrix",
    "evaluate",
    "extract_features",
    "gradcheck",
    "load_checkpoint",
    "load_corpus",
    "load_embedding_store",
    "make_synthetic_corpus",
    "marginal_distribution",
    "save_corpus",
    "score_windows",
    "sinkhorn_plan",
    "sinkhorn_plans",
    "train",
    "write_embedding_store",
]
