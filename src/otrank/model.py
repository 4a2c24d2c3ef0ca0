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
in small dataclasses. The forward pass runs over stacked windows and records
every intermediate (pre-activations, hidden activations) so the training
module can run the matching hand-written backward pass.
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
from .sinkhorn import (  # noqa: F401  (align_sentence: see the note in cli.py)
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


FORWARD_CHUNK = 16  # windows per stacked pass; bounds the (B, 9, hidden) temporaries

# Directed edge (i, j) is row 3 * i + j of the dependency-FFN inputs.
_EDGE_I = np.repeat(np.arange(3), 3)
_EDGE_J = np.tile(np.arange(3), 3)


@dataclass
class Forward:
    """Every intermediate of one stacked scoring pass over B windows, for the backward sweep."""

    x_pairs: np.ndarray  # (B, 9, d+2) dependency-FFN inputs, row-major over (i, j)
    z1_dep: np.ndarray  # (B, 9, hidden) pre-activations
    a1_dep: np.ndarray  # (B, 9, hidden)
    u: np.ndarray  # (B, 3, 3) edge scores
    alpha: np.ndarray  # (B, 3, 3) row-stochastic edge weights
    aggregated: list[np.ndarray]  # per layer: alpha @ h_{l-1}, (B, 3, d)
    pre: list[np.ndarray]  # per layer: pre-ReLU activations, (B, 3, d)
    hs: list[np.ndarray]  # h_0 .. h_L, (B, 3, d)
    head_z1: np.ndarray  # (B, hidden)
    head_a1: np.ndarray  # (B, hidden)
    logit: np.ndarray  # (B,)
    p: np.ndarray  # (B,) clamped away from exactly 0 and 1


def forward(reps: np.ndarray, costs: np.ndarray, params: ModelParams) -> Forward:
    """Score B windows from stacked ``(B, 3, d)`` reps and ``(B, 3)`` costs.

    Every product is a stack of the one-window products, in the one-window
    operand orientation, so each window's numbers are bit-equal to scoring it
    alone, whatever else is in the batch. Flattening a product over windows
    (one ``(B*9, d+2)`` GEMM, say) lets BLAS pick another kernel for the
    larger matrix, which moves bits.
    """
    b, _, d = reps.shape
    x_pairs = np.empty((b, 9, d + 2))
    for k, (i, j) in enumerate(zip(_EDGE_I, _EDGE_J)):  # in place: no (B, 9, d) temporaries
        np.multiply(reps[:, i], reps[:, j], out=x_pairs[:, k, :d])
    x_pairs[:, :, d] = costs[:, _EDGE_I]
    x_pairs[:, :, d + 1] = costs[:, _EDGE_J]
    z1_dep = x_pairs @ params.dep.w1.T
    z1_dep += params.dep.b1
    a1_dep = np.maximum(z1_dep, 0.0)
    u = (a1_dep @ params.dep.w2.T + params.dep.b2).reshape(b, 3, 3)

    shifted = np.exp(u - u.max(axis=2, keepdims=True))
    alpha = shifted / shifted.sum(axis=2, keepdims=True)

    hs = [reps]
    aggregated: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    for layer in params.gcn:
        s = alpha @ hs[-1]
        z = s @ layer.w.T + layer.b
        aggregated.append(s)
        pre.append(z)
        hs.append(np.maximum(z, 0.0))

    head_z1 = (params.head.w1 @ hs[-1][:, 0, :, None])[:, :, 0] + params.head.b1
    head_a1 = np.maximum(head_z1, 0.0)
    logit = (params.head.w2 @ head_a1[:, :, None])[:, 0, 0] + params.head.b2[0]
    p = np.clip(sigmoid(logit), 1e-300, 1.0 - 1e-16)
    return Forward(x_pairs=x_pairs, z1_dep=z1_dep, a1_dep=a1_dep, u=u, alpha=alpha,
                   aggregated=aggregated, pre=pre, hs=hs, head_z1=head_z1, head_a1=head_a1,
                   logit=logit, p=p)


def score_windows(feats: list[WindowFeatures], params: ModelParams) -> np.ndarray:
    """Correctness probabilities ``(N,)`` of the windows, in order.

    Stacks and runs ``FORWARD_CHUNK`` windows at a time, so memory stays flat
    however large the split.
    """
    p = np.empty(len(feats))
    for lo in range(0, len(feats), FORWARD_CHUNK):
        chunk = feats[lo : lo + FORWARD_CHUNK]
        p[lo : lo + len(chunk)] = forward(np.stack([f.reps for f in chunk]),
                                          np.stack([f.costs for f in chunk]), params).p
    return p


def add_in_order(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``acc + rows[0] + rows[1] + ...``, added left to right.

    This is what a ``+=`` loop over the rows computes, bit for bit: numpy
    reduces an outer axis sequentially, and ``acc + rows[0]`` is exact to
    reorder. A length-1 tensor would make the reduction one-dimensional,
    which numpy sums pairwise, so it is accumulated instead. ``rows`` is a
    scratch array: its first row is overwritten.
    """
    rows = rows.reshape((-1,) + acc.shape)
    rows[0] += acc
    if acc.size == 1:
        return np.cumsum(rows.reshape(-1))[-1:].reshape(acc.shape)
    return rows.sum(axis=0)


@dataclass
class WindowForward:
    """What callers read of one window's scoring pass, plus its ranking loss."""

    alpha: np.ndarray  # (3, 3) edge weights
    hs: list[np.ndarray]  # h_0 .. h_L, (3, d)
    p: float
    loss_as2: float  # binary cross entropy of the candidate label, from the logit


def window_forward(feats: WindowFeatures, params: ModelParams) -> WindowForward:
    """Score one window: the one-window call of :func:`forward`."""
    fwd = forward(feats.reps[None], feats.costs[None], params)
    logit = float(fwd.logit[0])
    # -log sigmoid(z) for a positive candidate, -log(1 - sigmoid(z)) otherwise.
    loss = np.logaddexp(0.0, -logit if feats.labels[0] else logit)
    return WindowForward(alpha=fwd.alpha[0], hs=[h[0] for h in fwd.hs], p=float(fwd.p[0]),
                         loss_as2=float(loss))
