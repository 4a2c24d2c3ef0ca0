"""Mutual-information regularizer over the three sentence representations.

Within a window, sentences labeled as correct answers form the answer set.
A small discriminator network reads ordered pairs of final GCN
representations and is pushed (through a binary cross-entropy sum) toward 1
on answer/answer pairs and 0 on answer/non-answer pairs, encouraging answer
sentences to share information and answer/non-answer pairs not to.

Unknown context labels count as non-answers; self-pairs are excluded from
the positive set. Pairs never cross window boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FFNParams, Workspace, sigmoid


@dataclass(frozen=True)
class PairIndexSets:
    """Ordered index pairs over (candidate, prev, next) = (0, 1, 2)."""

    positive: tuple[tuple[int, int], ...]
    negative: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return bool(self.positive or self.negative)


def build_pair_sets(labels) -> PairIndexSets:
    """Enumerate answer/answer and answer/non-answer ordered pairs.

    ``labels`` holds the three label codes of a window (1 answer, 0 not, -1
    unknown; see :class:`otrank.model.FeatureSet`) or its three labels as
    ``True``/``False``/``None``. Only a label equal to 1 is an answer.
    """
    answers = [i for i, lab in enumerate(labels) if lab == 1]
    others = [i for i, lab in enumerate(labels) if lab != 1]
    positive = tuple((i, j) for i in answers for j in answers if i != j)
    negative = tuple((i, j) for i in answers for j in others)
    return PairIndexSets(positive=positive, negative=negative)


@dataclass(frozen=True)
class WindowPairs:
    """The ordered pairs of B windows, positives first, padded to the longest list."""

    i: np.ndarray  # (B, width) first node of each pair
    j: np.ndarray  # (B, width) second node
    count: np.ndarray  # (B,) pairs in use
    positive: np.ndarray  # (B,) how many of them are positive

    @classmethod
    def of(cls, sets: list[PairIndexSets]) -> "WindowPairs":
        lists = [s.positive + s.negative for s in sets]
        width = max((len(p) for p in lists), default=0)
        i = np.zeros((len(lists), width), dtype=np.intp)
        j = np.zeros((len(lists), width), dtype=np.intp)
        for w, pairs in enumerate(lists):
            for k, (a, b) in enumerate(pairs):
                i[w, k], j[w, k] = a, b
        return cls(i=i, j=j, count=np.array([len(p) for p in lists], dtype=np.intp),
                   positive=np.array([len(s.positive) for s in sets], dtype=np.intp))

    @classmethod
    def of_labels(cls, labels: np.ndarray) -> "WindowPairs":
        """The pairs of B windows from their ``(B, 3)`` label codes, by table lookup."""
        mask = (labels == 1) @ _ANSWER_BITS
        t = _PAIRS_BY_MASK
        return cls(i=t.i[mask], j=t.j[mask], count=t.count[mask], positive=t.positive[mask])


# Row m holds the pairs of a window whose answer nodes are the set bits of m.
_ANSWER_BITS = np.array([1, 2, 4])
_PAIRS_BY_MASK = WindowPairs.of([build_pair_sets([(m >> b) & 1 for b in range(3)])
                                 for m in range(8)])


@dataclass
class PairGroup:
    """The windows of a batch that have the same pair and positive counts."""

    rows: np.ndarray  # (G,) window positions in the batch, ascending
    i: np.ndarray  # (G, P)
    j: np.ndarray  # (G, P)
    n_positive: int
    seg: slice  # the group's rows of the flat MIForward arrays, window after window
    z: np.ndarray  # (G, P) discriminator logits, a view of MIForward.z


@dataclass
class MIForward:
    """Intermediates of the regularizer over a batch of windows, for backprop.

    Every pair of the batch is one row of the flat arrays, and each group is
    the consecutive segment ``seg`` of them.
    """

    groups: list[PairGroup]
    x: np.ndarray  # (sum P, 2d) concatenated pair inputs
    a1: np.ndarray  # (sum P, hidden) hidden activations
    z: np.ndarray  # (sum P,) discriminator logits
    loss: np.ndarray  # (B,) per-window terms; 0 for windows without pairs


def mi_forward(h: np.ndarray, pairs: WindowPairs, disc: FFNParams,
               ws: Workspace | None = None) -> MIForward:
    """Compute each window's regularizer term from final representations ``(B, 3, d)``.

    A window's term is ``sum(-log U)`` over its positive pairs plus
    ``sum(-log(1-U))`` over its negative pairs, evaluated stably from the
    discriminator logits; empty index sets contribute zero. Windows are
    grouped by pair and positive count and run as stacked ``(G, P, 2d)``
    products, which keep each window's numbers bit-equal to running it alone
    (one flat ``(sum P, 2d)`` GEMM would not). The groups' arrays are consecutive
    segments of flat ``ws`` buffers (a fresh :class:`Workspace` when None),
    which the record keeps.
    """
    ws = Workspace() if ws is None else ws
    b, _, d = h.shape
    hidden = disc.w1.shape[0]
    n = int(pairs.count.sum())
    x_all = ws.take("mi.x", (n, 2 * d))
    a1_all = ws.take("mi.a1", (n, hidden))
    z_all = ws.take("mi.z", (n,))
    loss = np.zeros(b)
    groups = []
    at = 0
    # One key per (pair count, positive count), ascending in both.
    stride = pairs.i.shape[1] + 1
    key = pairs.count * stride + pairs.positive
    for k in np.flatnonzero(np.bincount(key)):
        count, n_pos = divmod(int(k), stride)
        if count == 0:
            continue
        rows = np.flatnonzero(key == k)
        seg = slice(at, at + rows.size * count)
        at = seg.stop
        i, j = pairs.i[rows, :count], pairs.j[rows, :count]
        x = x_all[seg].reshape(rows.size, count, 2 * d)
        x[:, :, :d] = h[rows[:, None], i]
        x[:, :, d:] = h[rows[:, None], j]
        a1 = np.matmul(x, disc.w1.T, out=a1_all[seg].reshape(rows.size, count, hidden))
        a1 += disc.b1
        np.maximum(a1, 0.0, out=a1)
        z = np.matmul(a1, disc.w2.T[:, 0], out=z_all[seg].reshape(rows.size, count))
        z += disc.b2[0]
        # -log sigmoid(z) for positives, -log(1 - sigmoid(z)) for negatives.
        loss[rows] = (np.logaddexp(0.0, -z[:, :n_pos]).sum(axis=1)
                      + np.logaddexp(0.0, z[:, n_pos:]).sum(axis=1))
        groups.append(PairGroup(rows=rows, i=i, j=j, n_positive=n_pos, seg=seg, z=z))
    return MIForward(groups=groups, x=x_all, a1=a1_all, z=z_all, loss=loss)


def mi_loss(h, sets: PairIndexSets, disc: FFNParams) -> float:
    """Regularizer value for one window's final representations ``h`` (3 x d)."""
    h = np.asarray(h, dtype=np.float64)
    return float(mi_forward(h[None], WindowPairs.of([sets]), disc).loss[0])


def mi_backward(
    fwd: MIForward, disc: FFNParams, scale: float, grads: dict[str, np.ndarray],
    dh: np.ndarray, ws: Workspace | None = None,
) -> None:
    """Accumulate ``scale * d(loss)`` into the disc gradients and node grads ``dh`` (B, 3, d).

    Each disc weight gradient is one product over every pair of the batch, and
    each bias gradient one sum. The node gradients are added to ``dh`` group
    after group, pair after pair: the ``i`` row, then the ``j`` row. Scratch
    arrays come from ``ws`` (a fresh workspace when None).
    """
    n = fwd.z.size
    if n == 0:
        return
    ws = Workspace() if ws is None else ws
    d = dh.shape[2]
    hidden = disc.w1.shape[0]
    dz = sigmoid(fwd.z)  # d(-log(1 - sigmoid(z)))/dz for negatives
    for g in fwd.groups:
        dz[g.seg].reshape(g.z.shape)[:, :g.n_positive] -= 1.0  # d(-log sigmoid(z))/dz
    dz *= scale

    grads["disc.w2"] += np.matmul(dz[None], fwd.a1, out=ws.take("mi.product", (1, hidden)))
    grads["disc.b2"] += dz.sum()
    dz1 = np.multiply(dz[:, None], disc.w2[0], out=ws.take("mi.dz1", (n, hidden)))
    dz1 *= np.greater(fwd.a1, 0.0, out=ws.take("mi.mask", (n, hidden), bool))
    grads["disc.b1"] += dz1.sum(axis=0)
    grads["disc.w1"] += np.matmul(dz1.T, fwd.x, out=ws.take("mi.product", disc.w1.shape))

    dx = np.matmul(dz1, disc.w1, out=ws.take("mi.dx", (n, 2 * d)))
    for g in fwd.groups:
        dx_g = dx[g.seg].reshape(g.z.shape + (2 * d,))
        for k in range(g.z.shape[1]):
            dh[g.rows, g.i[:, k]] += dx_g[:, k, :d]
            dh[g.rows, g.j[:, k]] += dx_g[:, k, d:]
