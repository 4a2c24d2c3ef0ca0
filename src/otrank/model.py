"""Candidate scorer: sentence dependency graph, GCN propagation, sigmoid head.

The three paragraph sentences (candidate, previous, next) form a fully
connected graph, self-loops included. Each directed edge (i, j) gets a
learned score from a feed-forward network reading the element-wise product
of the two sentence representations and their transport costs to the
question; a row softmax turns the scores into edge weights. A stack of
graph-convolution layers then mixes the sentence representations along
those weights, and a sigmoid head on the candidate node yields the
correctness probability.

Everything here is pure float64 numpy; parameters are plain arrays grouped
in small dataclasses. Forward passes optionally record every intermediate
(pre-activations, hidden activations) so the training module can run the
matching hand-written backward pass.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .corpus import CandidateWindow, QAInstance, Sentence, content_token_indices
from .embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_C,
    ROLE_N,
    ROLE_P,
    ROLE_Q,
    EmbeddingStore,
    FrequencyTable,
)
from .errors import EmbeddingStoreError, MissingFrequencyTableError
# align_sentence stays importable here: perfbench/tracing.py wraps it as a model attribute.
from .sinkhorn import (  # noqa: F401
    AlignmentResult,
    NonFiniteCostError,
    SinkhornSettings,
    TransportPlan,
    align_sentence,
    align_sentences,
)

logger = logging.getLogger(__name__)

NODE_ORDER = ("cand", "prev", "next")  # row 0 of every 3-row array is the candidate
NODE_ROLES = (ROLE_C, ROLE_P, ROLE_N)  # embedding-store roles, in NODE_ORDER


@dataclass
class FFNParams:
    """One-hidden-layer feed-forward network: ReLU hidden, scalar output."""

    w1: np.ndarray  # (hidden, n_in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (1, hidden)
    b2: np.ndarray  # (1,)


@dataclass
class GCNLayer:
    w: np.ndarray  # (d, d)
    b: np.ndarray  # (d,)


@dataclass
class ModelParams:
    """All trainable tensors. Declaration order here fixes the checkpoint
    serialization order and the gradient/optimizer iteration order."""

    dep: FFNParams  # input d + 2
    gcn: list[GCNLayer]
    head: FFNParams  # input d
    disc: FFNParams  # input 2d

    @property
    def dim(self) -> int:
        return self.gcn[0].w.shape[0]

    @property
    def hidden(self) -> int:
        return self.dep.w1.shape[0]

    @property
    def layers(self) -> int:
        return len(self.gcn)


def _init_linear(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_out, n_in))


def _init_ffn(rng: np.random.Generator, n_in: int, hidden: int) -> FFNParams:
    return FFNParams(
        w1=_init_linear(rng, hidden, n_in),
        b1=np.zeros(hidden),
        w2=_init_linear(rng, 1, hidden),
        b2=np.zeros(1),
    )


def init_model_params(
    rng: np.random.Generator, dim: int, hidden: int = 400, layers: int = 2
) -> ModelParams:
    """Seeded scaled-uniform init (+-1/sqrt(fan_in) weights, zero biases)."""
    if layers < 1:
        raise ValueError("need at least one graph-convolution layer")
    dep = _init_ffn(rng, dim + 2, hidden)
    gcn = [GCNLayer(w=_init_linear(rng, dim, dim), b=np.zeros(dim)) for _ in range(layers)]
    head = _init_ffn(rng, dim, hidden)
    disc = _init_ffn(rng, 2 * dim, hidden)
    return ModelParams(dep=dep, gcn=gcn, head=head, disc=disc)


def param_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Named views of every trainable tensor, in fixed declaration order."""
    out: dict[str, np.ndarray] = {
        "dep.w1": params.dep.w1,
        "dep.b1": params.dep.b1,
        "dep.w2": params.dep.w2,
        "dep.b2": params.dep.b2,
    }
    for l, layer in enumerate(params.gcn):
        out[f"gcn.{l}.w"] = layer.w
        out[f"gcn.{l}.b"] = layer.b
    for name, ffn in (("head", params.head), ("disc", params.disc)):
        out[f"{name}.w1"] = ffn.w1
        out[f"{name}.b1"] = ffn.b1
        out[f"{name}.w2"] = ffn.w2
        out[f"{name}.b2"] = ffn.b2
    return out


def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in param_tensors(params).items()}


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def dependency_score(r_i, r_j, d_i: float, d_j: float, dep: FFNParams) -> float:
    """Edge score for (sentence i -> sentence j): FFN on [r_i * r_j; d_i; d_j]."""
    r_i = np.asarray(r_i, dtype=np.float64)
    r_j = np.asarray(r_j, dtype=np.float64)
    if r_i.shape != r_j.shape or r_i.ndim != 1:
        raise ValueError(f"representation shapes differ: {r_i.shape} vs {r_j.shape}")
    x = np.concatenate([r_i * r_j, [d_i, d_j]])
    if not np.all(np.isfinite(x)):
        raise ValueError("dependency-score inputs must be finite")
    a1 = np.maximum(dep.w1 @ x + dep.b1, 0.0)
    return float((dep.w2 @ a1 + dep.b2)[0])


def edge_weights(u_row) -> np.ndarray:
    """Row softmax over the three outgoing edge scores (max-stabilized)."""
    u = np.asarray(u_row, dtype=np.float64)
    e = np.exp(u - u.max())
    return e / e.sum()


def gcn_forward(alpha: np.ndarray, h0: np.ndarray, gcn: list[GCNLayer]) -> np.ndarray:
    """L layers of weighted neighbor aggregation + affine map + ReLU."""
    h = np.asarray(h0, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (h.shape[0], h.shape[0]):
        raise ValueError(f"edge-weight shape {alpha.shape} does not match {h.shape[0]} nodes")
    for layer in gcn:
        h = np.maximum((alpha @ h) @ layer.w.T + layer.b, 0.0)
    return h


def score_candidate(h1, head: FFNParams) -> float:
    """Sigmoid correctness probability from the candidate representation.

    Clamped away from exactly 0/1 so downstream logs stay finite.
    """
    h1 = np.asarray(h1, dtype=np.float64)
    a1 = np.maximum(head.w1 @ h1 + head.b1, 0.0)
    z = float((head.w2 @ a1 + head.b2)[0])
    p = float(sigmoid(z))
    return min(max(p, 1e-300), 1.0 - 1e-16)


def as2_loss(p_c: float, label: bool) -> float:
    """Binary cross entropy of one candidate score against its label."""
    if not (0.0 < p_c < 1.0):
        raise ValueError(f"score must lie strictly inside (0, 1), got {p_c}")
    return -np.log(p_c) if label else -np.log(1.0 - p_c)


def bce_from_logit(z: float, label: bool) -> float:
    """Numerically stable BCE evaluated at the pre-sigmoid logit."""
    # -log sigmoid(z) = logaddexp(0, -z); -log(1 - sigmoid(z)) = logaddexp(0, z)
    return float(np.logaddexp(0.0, -z) if label else np.logaddexp(0.0, z))


@dataclass
class WindowFeatures:
    """Alignment-derived constants for one window; training never changes them."""

    question_id: str
    window_id: str
    reps: np.ndarray  # (3, d) in NODE_ORDER
    costs: np.ndarray  # (3,)
    labels: tuple[bool, bool | None, bool | None]
    alignments: tuple[AlignmentResult, ...] | None = None
    unconverged: int = 0


def extract_features(
    items,
    store: EmbeddingStore,
    ft: FrequencyTable | None,
    settings: SinkhornSettings = SinkhornSettings(),
    keep_alignments: bool = False,
) -> list[WindowFeatures]:
    """Alignment features for ``(question, window, instance_id)`` items, in order.

    Every sentence alignment of the items (candidate, prev and next of each
    window) goes into one :func:`align_sentences` call, so a whole split is
    solved in one batch. Logs one info line with the batch's Sinkhorn
    statistics, and warns when some alignments did not converge.

    Raises :class:`MissingFrequencyTableError` when ``ft`` is None, and
    :class:`EmbeddingStoreError` naming the (instance, window, role) key when
    the vectors of a pair give a non-finite cost.
    """
    if ft is None:
        raise MissingFrequencyTableError("checkpoint carries no frequency table; cannot align")
    started = time.perf_counter()
    items = list(items)
    pairs = []
    for question, window, instance_id in items:
        q_vecs = store.sentence_vectors(instance_id, QUESTION_WINDOW_ID, ROLE_Q)
        for sent, role in zip((window.cand, window.prev, window.next), NODE_ROLES):
            s_vecs = None
            if not sent.is_padding:
                s_vecs = store.sentence_vectors(instance_id, window.id, role)
            pairs.append((question, sent, q_vecs, s_vecs))
    try:
        results = align_sentences(pairs, ft, settings)
    except NonFiniteCostError as exc:
        question, window, instance_id = items[exc.index // 3]
        key = (instance_id, window.id, NODE_ROLES[exc.index % 3])
        q_vecs = pairs[exc.index][2]
        if not np.all(np.isfinite(q_vecs[content_token_indices(question)])):
            key = (instance_id, QUESTION_WINDOW_ID, ROLE_Q)
        raise EmbeddingStoreError(
            f"non-finite embedding values: the vectors of (instance, window, role) = {key} "
            "give a non-finite transport cost"
        ) from None

    feats = []
    for w, (question, window, instance_id) in enumerate(items):
        rows = results[3 * w : 3 * w + 3]
        feats.append(WindowFeatures(
            question_id=instance_id,
            window_id=window.id,
            reps=np.stack([res.representation for res in rows]),
            costs=np.array([res.cost for res in rows]),
            labels=(bool(window.cand.label), window.prev.label, window.next.label),
            alignments=tuple(rows) if keep_alignments else None,
            unconverged=sum(0 if res.plan.converged else 1 for res in rows),
        ))
    _log_alignment_stats([res.plan for res, (_, sent, _, _) in zip(results, pairs)
                          if not sent.is_padding], time.perf_counter() - started)
    return feats


def _log_alignment_stats(plans: list[TransportPlan], seconds: float) -> None:
    unconverged = sum(0 if tp.converged else 1 for tp in plans)
    if unconverged:
        logger.warning("%d sentence alignments did not converge; using best iterates",
                       unconverged)
    if not logger.isEnabledFor(logging.INFO):
        return
    iters = [tp.iterations_used for tp in plans]
    p50, p95 = np.percentile(iters, [50, 95]) if iters else (0, 0)
    worst = max((tp.violation for tp in plans if tp.converged), default=0.0)
    logger.info(
        "aligned %d sentences in %.3f s: sinkhorn iterations p50/p95/max %g/%g/%d, "
        "%d unconverged, worst marginal violation %.3e over converged plans",
        len(plans), seconds, p50, p95, max(iters, default=0), unconverged, worst,
    )


def extract_window_features(
    question: Sentence,
    window: CandidateWindow,
    instance_id: str,
    store: EmbeddingStore,
    ft: FrequencyTable | None,
    settings: SinkhornSettings = SinkhornSettings(),
    keep_alignments: bool = False,
) -> WindowFeatures:
    """Align candidate/prev/next to the question and collect scorer inputs."""
    return extract_features([(question, window, instance_id)], store, ft, settings,
                            keep_alignments)[0]


def extract_instance_features(
    inst: QAInstance,
    store: EmbeddingStore,
    ft: FrequencyTable | None,
    settings: SinkhornSettings = SinkhornSettings(),
) -> list[WindowFeatures]:
    return extract_features(instance_windows([inst]), store, ft, settings)


def instance_windows(instances) -> list[tuple[Sentence, CandidateWindow, str]]:
    """``(question, window, instance_id)`` items of every window, in corpus order."""
    return [(inst.question, w, inst.question_id) for inst in instances for w in inst.windows]


@dataclass
class WindowForward:
    """Every intermediate of one scoring pass, for the backward sweep."""

    x_pairs: np.ndarray  # (9, d+2) dependency-FFN inputs, row-major over (i, j)
    z1_dep: np.ndarray  # (9, hidden) pre-activations
    a1_dep: np.ndarray  # (9, hidden)
    u: np.ndarray  # (3, 3) edge scores
    alpha: np.ndarray  # (3, 3) row-stochastic edge weights
    aggregated: list[np.ndarray]  # per layer: alpha @ h_{l-1}, (3, d)
    pre: list[np.ndarray]  # per layer: pre-ReLU activations, (3, d)
    hs: list[np.ndarray]  # h_0 .. h_L, (3, d)
    head_z1: np.ndarray  # (hidden,)
    head_a1: np.ndarray  # (hidden,)
    logit: float
    p: float
    loss_as2: float


def window_forward(feats: WindowFeatures, params: ModelParams) -> WindowForward:
    """Score one window from its alignment features, recording intermediates."""
    r = feats.reps
    d = r.shape[1]
    x_pairs = np.empty((9, d + 2))
    for i in range(3):
        for j in range(3):
            k = 3 * i + j
            x_pairs[k, :d] = r[i] * r[j]
            x_pairs[k, d] = feats.costs[i]
            x_pairs[k, d + 1] = feats.costs[j]
    z1_dep = x_pairs @ params.dep.w1.T + params.dep.b1
    a1_dep = np.maximum(z1_dep, 0.0)
    u = (a1_dep @ params.dep.w2.T + params.dep.b2).reshape(3, 3)

    shifted = np.exp(u - u.max(axis=1, keepdims=True))
    alpha = shifted / shifted.sum(axis=1, keepdims=True)

    hs = [r]
    aggregated: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    for layer in params.gcn:
        s = alpha @ hs[-1]
        z = s @ layer.w.T + layer.b
        aggregated.append(s)
        pre.append(z)
        hs.append(np.maximum(z, 0.0))

    h1 = hs[-1][0]
    head_z1 = params.head.w1 @ h1 + params.head.b1
    head_a1 = np.maximum(head_z1, 0.0)
    logit = float((params.head.w2 @ head_a1 + params.head.b2)[0])
    p = min(max(float(sigmoid(logit)), 1e-300), 1.0 - 1e-16)

    return WindowForward(
        x_pairs=x_pairs,
        z1_dep=z1_dep,
        a1_dep=a1_dep,
        u=u,
        alpha=alpha,
        aggregated=aggregated,
        pre=pre,
        hs=hs,
        head_z1=head_z1,
        head_a1=head_a1,
        logit=logit,
        p=p,
        loss_as2=bce_from_logit(logit, feats.labels[0]),
    )


def score_window(
    question: Sentence,
    window: CandidateWindow,
    instance_id: str,
    store: EmbeddingStore,
    ft: FrequencyTable,
    params: ModelParams,
    settings: SinkhornSettings = SinkhornSettings(),
) -> tuple[float, np.ndarray, WindowForward]:
    """Align, build the dependency graph, run the GCN, score the candidate.

    Returns the correctness probability, the final (3, d) node
    representations, and the full forward record.
    """
    feats = extract_window_features(question, window, instance_id, store, ft, settings)
    fwd = window_forward(feats, params)
    return fwd.p, fwd.hs[-1], fwd
