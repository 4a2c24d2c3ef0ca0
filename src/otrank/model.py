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
the intermediates that the training module's hand-written backward pass
reads; ReLU layers keep only their activations, not their pre-activations.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .corpus import CandidateWindow, QAInstance, Sentence
from .embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_C,
    ROLE_N,
    ROLE_P,
    ROLE_Q,
    EmbeddingStore,
    FrequencyTable,
)
from .errors import EmbeddingStoreError
from .sinkhorn import (  # noqa: F401  (align_sentence: see the note in cli.py)
    Alignments,
    PlanGroup,
    SinkhornSettings,
    UnalignablePairError,
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
    """All trainable tensors, as views of one flat float64 buffer.

    Declaration order here fixes the layout of ``flat`` and the gradient and
    optimizer order. A gradient and each Adam moment is a flat buffer of the
    same layout, which :meth:`like` carves. The scorer's tensors (dep, gcn,
    head) lead, ``scorer_size`` floats in all, and are what a checkpoint
    holds; the MI discriminator ``disc`` is a training objective only. A
    loaded checkpoint's ``disc`` is zero, and nothing that scores reads it.
    """

    flat: np.ndarray  # (n,) the tensors below, back to back
    dep: FFNParams  # input d + 2
    gcn: list[GCNLayer]
    head: FFNParams  # input d
    disc: FFNParams  # input 2d

    @classmethod
    def zeros(cls, dim: int, hidden: int, layers: int) -> "ModelParams":
        """All-zero tensors of these sizes over a fresh buffer."""
        size = sum(math.prod(shape) for _, shape in _layout(dim, hidden, layers))
        return _carve(np.zeros(size), dim, hidden, layers)

    def like(self, flat: np.ndarray) -> "ModelParams":
        """The tensors of ``flat``, another buffer of this layout, as views of it."""
        return _carve(flat, self.dim, self.hidden, self.layers)

    @property
    def dim(self) -> int:
        return self.gcn[0].w.shape[0]

    @property
    def hidden(self) -> int:
        return self.dep.w1.shape[0]

    @property
    def layers(self) -> int:
        return len(self.gcn)


def scorer_size(dim: int, hidden: int, layers: int) -> int:
    """Float count of the scorer's tensors, dep, gcn and head, the leading run
    of ``ModelParams.flat``; a closed form, so a corrupt header's huge ``layers``
    builds no list."""
    return hidden * (2 * dim + 6) + 2 + layers * dim * (dim + 1)


def _layout(dim: int, hidden: int, layers: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, in declaration order."""

    def ffn(name: str, n_in: int):
        return [(f"{name}.w1", (hidden, n_in)), (f"{name}.b1", (hidden,)),
                (f"{name}.w2", (1, hidden)), (f"{name}.b2", (1,))]

    gcn = [(f"gcn.{l}.{key}", shape) for l in range(layers)
           for key, shape in (("w", (dim, dim)), ("b", (dim,)))]
    return ffn("dep", dim + 2) + gcn + ffn("head", dim) + ffn("disc", 2 * dim)


def _views(flat: np.ndarray, dim: int, hidden: int, layers: int) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    lo = 0
    for name, shape in _layout(dim, hidden, layers):
        hi = lo + math.prod(shape)
        out[name] = flat[lo:hi].reshape(shape)
        lo = hi
    if flat.shape != (lo,):
        raise ValueError(f"a buffer of shape {flat.shape} does not hold the {lo} parameters "
                         f"of d={dim}, hidden={hidden}, layers={layers}")
    return out


def _carve(flat: np.ndarray, dim: int, hidden: int, layers: int) -> ModelParams:
    t = _views(flat, dim, hidden, layers)

    def ffn(name: str) -> FFNParams:
        return FFNParams(*(t[f"{name}.{key}"] for key in ("w1", "b1", "w2", "b2")))

    gcn = [GCNLayer(w=t[f"gcn.{l}.w"], b=t[f"gcn.{l}.b"]) for l in range(layers)]
    return ModelParams(flat=flat, dep=ffn("dep"), gcn=gcn, head=ffn("head"), disc=ffn("disc"))


def init_model_params(rng: np.random.Generator, dim: int, hidden: int,
                      layers: int) -> ModelParams:
    """Seeded scaled-uniform init (+-1/sqrt(fan_in) weights, zero biases); the
    weights are drawn one after another in declaration order."""
    if layers < 1:
        raise ValueError("need at least one graph-convolution layer")
    params = ModelParams.zeros(dim, hidden, layers)
    for w in param_tensors(params).values():
        if w.ndim == 2:
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def param_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Named views of every trainable tensor in ``params.flat``, in declaration order."""
    return _views(params.flat, params.dim, params.hidden, params.layers)


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class FeatureSet:
    """Alignment-derived constants of N windows, stacked; training never changes them.

    Rows follow the items they were extracted from; columns follow
    :data:`NODE_ORDER`. ``labels`` is the answer mask: True where the sentence
    is a labelled answer, False for non-answers, unlabelled context and padding.
    """

    reps: np.ndarray  # (N, 3, d)
    costs: np.ndarray  # (N, 3)
    labels: np.ndarray  # (N, 3) bool answer mask

    def __post_init__(self):
        if self.labels.dtype != bool:
            raise ValueError("FeatureSet labels must be a bool answer mask, "
                             f"not {self.labels.dtype}")

    def take(self, rows) -> "FeatureSet":
        """The windows at ``rows`` (a slice gives views, an index array copies)."""
        return FeatureSet(reps=self.reps[rows], costs=self.costs[rows], labels=self.labels[rows])

    def __len__(self) -> int:
        return self.labels.shape[0]


def align_windows(
    items,
    store: EmbeddingStore,
    ft: FrequencyTable,
    settings: SinkhornSettings = SinkhornSettings(),
) -> Alignments:
    """Align the candidate, prev and next sentence of ``(question, window, instance_id)``
    items: three alignments per item, in :data:`NODE_ORDER`. Indexing the result
    gives each alignment's ``AlignmentResult``.

    Every sentence alignment goes into one :func:`align_sentences` call, so a
    whole split is solved in one batch. A question's vectors are looked up
    once per question object and instance id. Logs one info line with the
    batch's Sinkhorn statistics, and warns when some alignments did not
    converge.

    The store's vectors go to :func:`align_sentences` as held; it alone
    checks them. Raises :class:`EmbeddingStoreError` when a pair cannot be
    aligned, naming the (instance, window, role) key of the side at fault and
    the reason: both counts, or a non-finite cost.
    """
    started = time.perf_counter()
    items = list(items)
    question_vectors = {}  # the items hold every keyed question, so no id is reused

    def pairs():
        # The vectors as the store holds them: align_sentences widens only the
        # content rows it gathers, so no whole question or sentence is copied.
        for question, window, instance_id in items:
            key = (id(question), instance_id)
            if key not in question_vectors:
                question_vectors[key] = store.stored_vectors(instance_id, QUESTION_WINDOW_ID,
                                                             ROLE_Q)
            for sent, role in zip((window.cand, window.prev, window.next), NODE_ROLES):
                s_vecs = None
                if not sent.is_padding:
                    s_vecs = store.stored_vectors(instance_id, window.id, role)
                yield question, sent, question_vectors[key], s_vecs

    try:
        alignments = align_sentences(pairs(), ft, settings)
    except UnalignablePairError as exc:
        _, window, instance_id = items[exc.index // 3]
        key = ((instance_id, QUESTION_WINDOW_ID, ROLE_Q) if exc.question
               else (instance_id, window.id, NODE_ROLES[exc.index % 3]))
        raise EmbeddingStoreError(
            f"the embedding store's vectors for (instance, window, role) = {key} cannot be "
            f"aligned: {exc}") from None
    _log_alignment_stats(alignment_stats(alignments.groups), time.perf_counter() - started)
    return alignments


def extract_features(
    items,
    store: EmbeddingStore,
    ft: FrequencyTable,
    settings: SinkhornSettings = SinkhornSettings(),
) -> FeatureSet:
    """The :class:`FeatureSet` of ``(question, window, instance_id)`` items, in order:
    the arrays of :func:`align_windows`, three rows to a window."""
    items = list(items)
    alignments = align_windows(items, store, ft, settings)
    n = len(items)
    return FeatureSet(
        reps=alignments.reps.reshape(n, 3, store.dim),
        costs=alignments.costs.reshape(n, 3),
        labels=np.array([[bool(s.label) for s in (w.cand, w.prev, w.next)]
                         for _, w, _ in items], dtype=bool).reshape(n, 3),
    )


@dataclass(frozen=True)
class AlignmentStats:
    """The Sinkhorn numerics of one alignment batch."""

    count: int  # alignments solved
    iterations_p50: float
    iterations_p95: float
    iterations_max: int
    unconverged: int
    worst_violation: float  # the largest marginal violation over converged plans


def alignment_stats(groups: list[PlanGroup]) -> AlignmentStats:
    """The :class:`AlignmentStats` of the solved shape groups of one batch."""
    iters = np.concatenate([grp.iterations for grp in groups] or [np.zeros(0, np.int64)])
    converged = np.concatenate([grp.converged for grp in groups] or [np.zeros(0, bool)])
    violations = np.concatenate([grp.violations[grp.converged] for grp in groups]
                                or [np.zeros(0)])
    p50, p95 = np.percentile(iters, [50, 95]) if iters.size else (0.0, 0.0)
    return AlignmentStats(count=int(iters.size), iterations_p50=float(p50),
                          iterations_p95=float(p95), iterations_max=int(iters.max(initial=0)),
                          unconverged=int(np.count_nonzero(~converged)),
                          worst_violation=float(violations.max(initial=0.0)))


def _log_alignment_stats(stats: AlignmentStats, seconds: float) -> None:
    if stats.unconverged:
        logger.warning("%d sentence alignments did not converge; using best iterates",
                       stats.unconverged)
    logger.info(
        "aligned %d sentences in %.3f s: sinkhorn iterations p50/p95/max %g/%g/%d, "
        "%d unconverged, worst marginal violation %.3e over converged plans",
        stats.count, seconds, stats.iterations_p50, stats.iterations_p95,
        stats.iterations_max, stats.unconverged, stats.worst_violation,
    )


def extract_instance_features(
    inst: QAInstance,
    store: EmbeddingStore,
    ft: FrequencyTable,
    settings: SinkhornSettings = SinkhornSettings(),
) -> FeatureSet:
    return extract_features(instance_windows([inst]), store, ft, settings)


def instance_windows(instances) -> list[tuple[Sentence, CandidateWindow, str]]:
    """``(question, window, instance_id)`` items of every window, in corpus order."""
    return [(inst.question, w, inst.question_id) for inst in instances for w in inst.windows]


def store_keys(items) -> set[tuple[str, str, str]]:
    """The embedding-store keys that :func:`align_windows` looks up for
    ``(question, window, instance_id)`` items: each question's, and each
    non-padding sentence's."""
    keys = set()
    for _, window, instance_id in items:
        keys.add((instance_id, QUESTION_WINDOW_ID, ROLE_Q))
        for sent, role in zip((window.cand, window.prev, window.next), NODE_ROLES):
            if not sent.is_padding:
                keys.add((instance_id, window.id, role))
    return keys


# Windows per stacked pass. 64 ran the training step (d=16, hidden 400) faster
# than 16 or 32, since numpy's per-call cost is paid once per chunk. Scoring at
# d=768 with the flat GEMMs ran as fast at 32 as at 64 (benchmark eval_wide, 5
# seeds: median 438 against 435 windows/s, 2-vCPU x86_64, one BLAS thread), with
# 6 MB less peak memory at 32.
FORWARD_CHUNK = 64

# Directed edge (i, j) is row 3 * i + j of the dependency-FFN inputs.
_EDGE_I = np.repeat(np.arange(3), 3)
_EDGE_J = np.tile(np.arange(3), 3)


@dataclass
class Forward:
    """Every intermediate of one stacked scoring pass over B windows, for the backward sweep.

    ReLU layers keep only their activations: an activation is positive exactly
    where its pre-activation is, which is all the backward sweep reads of the
    latter.
    """

    x_pairs: np.ndarray  # (B, 9, d+2) dependency-FFN inputs, row-major over (i, j)
    a1_dep: np.ndarray  # (B, 9, hidden)
    u: np.ndarray  # (B, 3, 3) edge scores
    alpha: np.ndarray  # (B, 3, 3) row-stochastic edge weights
    aggregated: list[np.ndarray]  # per layer: alpha @ h_{l-1}, (B, 3, d)
    hs: list[np.ndarray]  # h_0 .. h_L, (B, 3, d)
    head_a1: np.ndarray  # (B, hidden)
    logit: np.ndarray  # (B,)
    p: np.ndarray  # (B,) clamped away from exactly 0 and 1


def forward(reps: np.ndarray, costs: np.ndarray, params: ModelParams) -> Forward:
    """Score B windows from stacked ``(B, 3, d)`` reps and ``(B, 3)`` costs.

    Dependency layer 1 and each GCN layer are one flat GEMM over the chunk,
    ``(B*9, d+2) @ w1.T`` and ``(B*3, d) @ W.T``, so a wide weight is read
    once per chunk rather than once per window; the other products are
    stacks of the one-window products. A row's bits can depend on the GEMM's
    shape and on the row's position in it (BLAS picks kernels and tiles by
    size), never on the other rows' values. At d=16 and d=768 with hidden
    400 each window's numbers are bit-equal to scoring it alone, whatever
    the batch; elsewhere they agree to rounding.
    """
    b, _, d = reps.shape
    hidden = len(params.dep.b1)
    x_pairs = np.empty((b, 9, d + 2))
    for k, (i, j) in enumerate(zip(_EDGE_I, _EDGE_J)):
        np.multiply(reps[:, i], reps[:, j], out=x_pairs[:, k, :d])
    x_pairs[:, :, d] = costs[:, _EDGE_I]
    x_pairs[:, :, d + 1] = costs[:, _EDGE_J]
    a1_dep = (x_pairs.reshape(b * 9, d + 2) @ params.dep.w1.T).reshape(b, 9, hidden)
    a1_dep += params.dep.b1
    np.maximum(a1_dep, 0.0, out=a1_dep)
    u = a1_dep @ params.dep.w2.T
    u += params.dep.b2
    u = u.reshape(b, 3, 3)

    alpha = u - u.max(axis=2, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=2, keepdims=True)

    hs = [reps]
    aggregated: list[np.ndarray] = []
    for layer in params.gcn:
        s = alpha @ hs[-1]
        h = (s.reshape(b * 3, d) @ layer.w.T).reshape(b, 3, d)
        h += layer.b
        aggregated.append(s)
        hs.append(np.maximum(h, 0.0, out=h))

    head_a1 = (params.head.w1 @ hs[-1][:, 0, :, None])[:, :, 0]
    head_a1 += params.head.b1
    np.maximum(head_a1, 0.0, out=head_a1)
    logit = (params.head.w2 @ head_a1[:, :, None])[:, 0, 0] + params.head.b2[0]
    p = np.clip(sigmoid(logit), 1e-300, 1.0 - 1e-16)
    return Forward(x_pairs=x_pairs, a1_dep=a1_dep, u=u, alpha=alpha, aggregated=aggregated,
                   hs=hs, head_a1=head_a1, logit=logit, p=p)


def score_windows(feats: FeatureSet, params: ModelParams) -> np.ndarray:
    """Correctness probabilities ``(N,)`` of the windows, in order.

    Runs ``FORWARD_CHUNK`` windows at a time, so memory stays flat however
    large the split. Each chunk is a contiguous slice of the stacked arrays.
    """
    p = np.empty(len(feats))
    for lo in range(0, len(feats), FORWARD_CHUNK):
        hi = lo + FORWARD_CHUNK
        p[lo:hi] = forward(feats.reps[lo:hi], feats.costs[lo:hi], params).p
    return p


@dataclass
class WindowForward:
    """What callers read of one window's scoring pass, plus its ranking loss."""

    alpha: np.ndarray  # (3, 3) edge weights
    hs: list[np.ndarray]  # h_0 .. h_L, (3, d)
    p: float
    loss_as2: float  # binary cross entropy of the candidate label, from the logit


def window_forward(feats: FeatureSet, k: int, params: ModelParams) -> WindowForward:
    """Score window ``k`` of ``feats`` alone: the one-window call of :func:`forward`."""
    fwd = forward(feats.reps[k : k + 1], feats.costs[k : k + 1], params)
    logit = float(fwd.logit[0])
    # -log sigmoid(z) for a positive candidate, -log(1 - sigmoid(z)) otherwise.
    loss = np.logaddexp(0.0, -logit if feats.labels[k, 0] else logit)
    return WindowForward(alpha=fwd.alpha[0], hs=[h[0] for h in fwd.hs], p=float(fwd.p[0]),
                         loss_as2=float(loss))
