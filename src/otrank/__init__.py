"""otrank: answer-sentence reranking from precomputed token embeddings.

Question words are coupled to candidate/context words with
entropic-regularized optimal transport; the resulting transport costs and
relevant-context representations feed a learned sentence dependency graph
and a small GCN whose candidate-node output is scored by a sigmoid head.
Training adds a mutual-information regularizer over the sentence
representations.
"""

__version__ = "0.1.0"

from .corpus import (
    CandidateWindow,
    Corpus,
    QAInstance,
    Sentence,
    Token,
    content_tokens,
    load_corpus,
    pad_context,
    save_corpus,
    tokenize,
)
from .embeddings import (
    EmbeddingStore,
    FrequencyTable,
    build_frequency_table,
    load_embedding_store,
    marginal_distribution,
    write_embedding_store,
)
from .metrics import (
    MetricsReport,
    average_precision,
    evaluate,
    precision_at_1,
    rank_candidates,
    reciprocal_rank,
)
from .model import (
    ModelParams,
    WindowFeatures,
    as2_loss,
    dependency_score,
    edge_weights,
    extract_features,
    gcn_forward,
    init_model_params,
    score_candidate,
    score_window,
)
from .mutual_info import PairIndexSets, build_pair_sets, discriminator, mi_loss
from .sinkhorn import (
    AlignmentResult,
    SinkhornSettings,
    TransportPlan,
    align_sentence,
    align_sentences,
    cost_matrix,
    relevant_context,
    sentence_representation,
    sinkhorn_plan,
    sinkhorn_plans,
    transport_cost,
)
from .synthetic import make_synthetic_corpus
from .training import (
    Checkpoint,
    TrainConfig,
    TrainResult,
    adam_step,
    gradcheck,
    gradients,
    joint_loss,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
