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
import math
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
    Alignments,
    NonFiniteCostError,
    PlanGroup,
    SinkhornSettings,
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


@dataclass(frozen=True)
class FeatureSet:
    """Alignment-derived constants of N windows, stacked; training never changes them.

    Rows follow the items they were extracted from; columns follow
    :data:`NODE_ORDER`. A label code is 1 for an answer, 0 for a non-answer
    and -1 for unknown (padding, or a context sentence without a label).
    Compare codes with 1; -1 is truthy.
    """

    reps: np.ndarray  # (N, 3, d)
    costs: np.ndarray  # (N, 3)
    labels: np.ndarray  # (N, 3) int8 label codes

    def take(self, rows) -> "FeatureSet":
        """The windows at ``rows`` (a slice gives views, an index array copies)."""
        return FeatureSet(reps=self.reps[rows], costs=self.costs[rows], labels=self.labels[rows])

    def __len__(self) -> int:
        return self.labels.shape[0]


def _label_code(label: bool | None) -> int:
    return -1 if label is None else int(label)


def align_windows(
    items,
    store: EmbeddingStore,
    ft: FrequencyTable | None,
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

    Raises :class:`MissingFrequencyTableError` when ``ft`` is None, and
    :class:`EmbeddingStoreError` naming the (instance, window, role) key when
    a sentence's vector count differs from its token count or the vectors of
    a pair give a non-finite cost.
    """
    if ft is None:
        raise MissingFrequencyTableError("checkpoint carries no frequency table; cannot align")
    started = time.perf_counter()
    items = list(items)
    question_vectors = {}  # the items hold every keyed question, so no id is reused

    def pairs():
        # Lazily, so that each sentence's float64 vectors live only until its
        # content rows are taken.
        for question, window, instance_id in items:
            key = (id(question), instance_id)
            if key not in question_vectors:
                question_vectors[key] = _sentence_vectors(
                    store, question, (instance_id, QUESTION_WINDOW_ID, ROLE_Q))
            for sent, role in zip((window.cand, window.prev, window.next), NODE_ROLES):
                s_vecs = None
                if not sent.is_padding:
                    s_vecs = _sentence_vectors(store, sent, (instance_id, window.id, role))
                yield question, sent, question_vectors[key], s_vecs

    try:
        alignments = align_sentences(pairs(), ft, settings)
    except NonFiniteCostError as exc:
        question, window, instance_id = items[exc.index // 3]
        key = (instance_id, window.id, NODE_ROLES[exc.index % 3])
        q_vecs = question_vectors[(id(question), instance_id)]
        if not np.all(np.isfinite(q_vecs[content_token_indices(question)])):
            key = (instance_id, QUESTION_WINDOW_ID, ROLE_Q)
        raise EmbeddingStoreError(
            f"non-finite embedding values: the vectors of (instance, window, role) = {key} "
            "give a non-finite transport cost"
        ) from None
    _log_alignment_stats(alignments.groups, time.perf_counter() - started)
    return alignments


def _sentence_vectors(store: EmbeddingStore, sent: Sentence, key) -> np.ndarray:
    vecs = store.sentence_vectors(*key)
    if vecs.shape[0] != len(sent.tokens):
        raise EmbeddingStoreError(
            f"the embedding store holds {vecs.shape[0]} vectors for (instance, window, role) = "
            f"{key}, but the corpus sentence has {len(sent.tokens)} tokens"
        )
    return vecs


def extract_features(
    items,
    store: EmbeddingStore,
    ft: FrequencyTable | None,
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
        labels=np.array([(1 if w.cand.label else 0, _label_code(w.prev.label),
                          _label_code(w.next.label)) for _, w, _ in items],
                        dtype=np.int8).reshape(n, 3),
    )


def _log_alignment_stats(groups: list[PlanGroup], seconds: float) -> None:
    iters = np.concatenate([grp.iterations for grp in groups] or [np.zeros(0, np.int64)])
    converged = np.concatenate([grp.converged for grp in groups] or [np.zeros(0, bool)])
    unconverged = int(np.count_nonzero(~converged))
    if unconverged:
        logger.warning("%d sentence alignments did not converge; using best iterates",
                       unconverged)
    if not logger.isEnabledFor(logging.INFO):
        return
    violations = np.concatenate([grp.violations[grp.converged] for grp in groups]
                                or [np.zeros(0)])
    p50, p95 = np.percentile(iters, [50, 95]) if iters.size else (0, 0)
    logger.info(
        "aligned %d sentences in %.3f s: sinkhorn iterations p50/p95/max %g/%g/%d, "
        "%d unconverged, worst marginal violation %.3e over converged plans",
        iters.size, seconds, p50, p95, iters.max(initial=0), unconverged,
        violations.max(initial=0.0),
    )


def extract_instance_features(
    inst: QAInstance,
    store: EmbeddingStore,
    ft: FrequencyTable | None,
    settings: SinkhornSettings = SinkhornSettings(),
) -> FeatureSet:
    return extract_features(instance_windows([inst]), store, ft, settings)


def instance_windows(instances) -> list[tuple[Sentence, CandidateWindow, str]]:
    """``(question, window, instance_id)`` items of every window, in corpus order."""
    return [(inst.question, w, inst.question_id) for inst in instances for w in inst.windows]


# Windows per stacked pass. With one reused Workspace, 64 ran the training step
# (d=16, hidden 400) faster than 16 or 32, since numpy's per-call cost is paid once
# per chunk, for about 5 MB of buffers. Scoring at d=768 with the flat GEMMs ran
# as fast at 32 as at 64 (benchmark eval_wide, 5 seeds: median 438 against 435
# windows/s, 2-vCPU x86_64, one BLAS thread), with 6 MB less peak memory at 32.
FORWARD_CHUNK = 64

# Directed edge (i, j) is row 3 * i + j of the dependency-FFN inputs.
_EDGE_I = np.repeat(np.arange(3), 3)
_EDGE_J = np.tile(np.arange(3), 3)


class Workspace:
    """Named scratch arrays that the chunks of a training step or scoring pass reuse.

    :meth:`take` hands out the leading elements of a named flat buffer as a
    C-contiguous array of the asked shape. A buffer grows (at least doubling)
    when a larger shape is asked for and is reused otherwise, so once the
    first full chunk has run, a run of chunks allocates none of its large
    intermediates. What :meth:`take` returns holds stale values until
    written, and the next request of the same name hands out the same memory:
    an array stays valid only until then.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            # Doubling bounds the regrowths of a buffer whose size follows the data.
            grown = 0 if buf is None else 2 * buf.size
            buf = self._buffers[name] = np.empty(max(size, grown), dtype)
        return buf[:size].reshape(shape)


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


def forward(reps: np.ndarray, costs: np.ndarray, params: ModelParams,
            ws: Workspace | None = None) -> Forward:
    """Score B windows from stacked ``(B, 3, d)`` reps and ``(B, 3)`` costs.

    Dependency layer 1 and each GCN layer are one flat GEMM over the chunk,
    ``(B*9, d+2) @ w1.T`` and ``(B*3, d) @ W.T``, so a wide weight is read
    once per chunk rather than once per window; the other products are
    stacks of the one-window products. A row's bits can depend on the GEMM's
    shape and on the row's position in it (BLAS picks kernels and tiles by
    size), never on the other rows' values. At d=16 and d=768 with hidden
    400 each window's numbers are bit-equal to scoring it alone, whatever
    the batch; elsewhere they agree to rounding. Every intermediate but the
    ``(B,)`` ones is written into ``ws`` (a fresh :class:`Workspace` when
    None), so the record is valid until the next pass through the same
    workspace.
    """
    ws = Workspace() if ws is None else ws
    b, _, d = reps.shape
    hidden = len(params.dep.b1)
    x_pairs = ws.take("x_pairs", (b, 9, d + 2))
    for k, (i, j) in enumerate(zip(_EDGE_I, _EDGE_J)):
        np.multiply(reps[:, i], reps[:, j], out=x_pairs[:, k, :d])
    x_pairs[:, :, d] = costs[:, _EDGE_I]
    x_pairs[:, :, d + 1] = costs[:, _EDGE_J]
    a1_dep = ws.take("a1_dep", (b, 9, hidden))
    np.matmul(x_pairs.reshape(b * 9, d + 2), params.dep.w1.T, out=a1_dep.reshape(b * 9, hidden))
    a1_dep += params.dep.b1
    np.maximum(a1_dep, 0.0, out=a1_dep)
    u = np.matmul(a1_dep, params.dep.w2.T, out=ws.take("u", (b, 9, 1)))
    u += params.dep.b2
    u = u.reshape(b, 3, 3)

    alpha = ws.take("alpha", (b, 3, 3))
    np.subtract(u, u.max(axis=2, keepdims=True), out=alpha)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=2, keepdims=True)

    hs = [reps]
    aggregated: list[np.ndarray] = []
    for l, layer in enumerate(params.gcn):
        s = np.matmul(alpha, hs[-1], out=ws.take(f"aggregated.{l}", (b, 3, d)))
        h = ws.take(f"h.{l + 1}", (b, 3, d))
        np.matmul(s.reshape(b * 3, d), layer.w.T, out=h.reshape(b * 3, d))
        h += layer.b
        aggregated.append(s)
        hs.append(np.maximum(h, 0.0, out=h))

    head_a1 = np.matmul(params.head.w1, hs[-1][:, 0, :, None],
                        out=ws.take("head_a1", (b, len(params.head.b1), 1)))[:, :, 0]
    head_a1 += params.head.b1
    np.maximum(head_a1, 0.0, out=head_a1)
    logit = (params.head.w2 @ head_a1[:, :, None])[:, 0, 0] + params.head.b2[0]
    p = np.clip(sigmoid(logit), 1e-300, 1.0 - 1e-16)
    return Forward(x_pairs=x_pairs, a1_dep=a1_dep, u=u, alpha=alpha, aggregated=aggregated,
                   hs=hs, head_a1=head_a1, logit=logit, p=p)


def score_windows(feats: FeatureSet, params: ModelParams,
                  ws: Workspace | None = None) -> np.ndarray:
    """Correctness probabilities ``(N,)`` of the windows, in order.

    Runs ``FORWARD_CHUNK`` windows at a time through one workspace (``ws``, or
    a fresh one), so memory stays flat however large the split. Each chunk is
    a contiguous slice of the stacked arrays.
    """
    ws = Workspace() if ws is None else ws
    p = np.empty(len(feats))
    for lo in range(0, len(feats), FORWARD_CHUNK):
        hi = lo + FORWARD_CHUNK
        p[lo:hi] = forward(feats.reps[lo:hi], feats.costs[lo:hi], params, ws).p
    return p


def add_in_order(acc: np.ndarray, rows: np.ndarray) -> None:
    """``acc += rows[0] + rows[1] + ...``, in place, added left to right.

    This is what a ``+=`` loop over the rows computes, bit for bit: numpy
    reduces an outer axis sequentially, and ``acc + rows[0]`` is exact to
    reorder. A length-1 tensor would make the reduction one-dimensional,
    which numpy sums pairwise, so it is accumulated instead. Folding the rows
    in consecutive blocks gives the same bits. ``rows`` is a scratch array:
    its first row is overwritten.
    """
    rows = rows.reshape((-1,) + acc.shape)
    rows[0] += acc
    if acc.size == 1:
        acc[...] = np.cumsum(rows.reshape(-1))[-1]
    else:
        np.sum(rows, axis=0, out=acc)


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
    loss = np.logaddexp(0.0, -logit if feats.labels[k, 0] == 1 else logit)
    return WindowForward(alpha=fwd.alpha[0], hs=[h[0] for h in fwd.hs], p=float(fwd.p[0]),
                         loss_as2=float(loss))
