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

from .model import FFNParams, add_in_order, sigmoid


@dataclass(frozen=True)
class PairIndexSets:
    """Ordered index pairs over (candidate, prev, next) = (0, 1, 2)."""

    positive: tuple[tuple[int, int], ...]
    negative: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return bool(self.positive or self.negative)


def build_pair_sets(labels: tuple[bool | None, bool | None, bool | None]) -> PairIndexSets:
    """Enumerate answer/answer and answer/non-answer ordered pairs.

    ``None`` (unknown) labels are treated as non-answers.
    """
    answers = [i for i, lab in enumerate(labels) if lab is True]
    others = [i for i, lab in enumerate(labels) if lab is not True]
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

    def take(self, rows) -> "WindowPairs":
        return WindowPairs(i=self.i[rows], j=self.j[rows], count=self.count[rows],
                           positive=self.positive[rows])


@dataclass
class PairGroup:
    """The windows of a batch that have the same pair and positive counts, stacked."""

    rows: np.ndarray  # (G,) window positions in the batch
    i: np.ndarray  # (G, P)
    j: np.ndarray  # (G, P)
    n_positive: int
    x: np.ndarray  # (G, P, 2d) concatenated pair inputs
    z1: np.ndarray  # (G, P, hidden)
    a1: np.ndarray  # (G, P, hidden)
    z: np.ndarray  # (G, P) discriminator logits


@dataclass
class MIForward:
    """Intermediates of the regularizer over a batch of windows, for backprop."""

    groups: list[PairGroup]
    loss: np.ndarray  # (B,) per-window terms; 0 for windows without pairs


def mi_forward(h: np.ndarray, pairs: WindowPairs, disc: FFNParams) -> MIForward:
    """Compute each window's regularizer term from final representations ``(B, 3, d)``.

    A window's term is ``sum(-log U)`` over its positive pairs plus
    ``sum(-log(1-U))`` over its negative pairs, evaluated stably from the
    discriminator logits; empty index sets contribute zero. Windows are
    grouped by pair count and run as stacked ``(G, P, 2d)`` products, which
    keep each window's numbers bit-equal to running it alone (one flat
    ``(sum P, 2d)`` GEMM would not).
    """
    loss = np.zeros(h.shape[0])
    groups = []
    for count, n_pos in np.unique(np.stack([pairs.count, pairs.positive], axis=1), axis=0):
        if count == 0:
            continue
        rows = np.flatnonzero((pairs.count == count) & (pairs.positive == n_pos))
        i, j = pairs.i[rows, :count], pairs.j[rows, :count]
        x = np.concatenate([h[rows[:, None], i], h[rows[:, None], j]], axis=2)
        z1 = x @ disc.w1.T + disc.b1
        a1 = np.maximum(z1, 0.0)
        z = a1 @ disc.w2.T[:, 0] + disc.b2[0]
        # -log sigmoid(z) for positives, -log(1 - sigmoid(z)) for negatives.
        loss[rows] = (np.logaddexp(0.0, -z[:, :n_pos]).sum(axis=1)
                      + np.logaddexp(0.0, z[:, n_pos:]).sum(axis=1))
        groups.append(PairGroup(rows=rows, i=i, j=j, n_positive=n_pos, x=x, z1=z1, a1=a1, z=z))
    return MIForward(groups=groups, loss=loss)


def mi_loss(h, sets: PairIndexSets, disc: FFNParams) -> float:
    """Regularizer value for one window's final representations ``h`` (3 x d)."""
    h = np.asarray(h, dtype=np.float64)
    return float(mi_forward(h[None], WindowPairs.of([sets]), disc).loss[0])


def mi_backward(
    fwd: MIForward, disc: FFNParams, scale: float, grads: dict[str, np.ndarray],
    dh: np.ndarray,
) -> None:
    """Accumulate ``scale * d(loss)`` into the disc gradients and node grads ``dh`` (B, 3, d).

    Each window's disc gradient is added to ``grads`` in window order, and its
    node gradients are added to ``dh`` pair after pair: the ``i`` row, then
    the ``j`` row.
    """
    d = dh.shape[2]
    if not fwd.groups:
        return
    # Windows without pairs add exact zeros, so only windows with pairs are stacked.
    rows = np.sort(np.concatenate([g.rows for g in fwd.groups]))
    contrib = {name: np.empty((len(rows),) + grads[name].shape)
               for name in ("disc.w1", "disc.b1", "disc.w2", "disc.b2")}
    for g in fwd.groups:
        at = np.searchsorted(rows, g.rows)
        sig = sigmoid(g.z)
        dz = np.empty_like(g.z)
        dz[:, :g.n_positive] = sig[:, :g.n_positive] - 1.0  # d(-log sigmoid(z))/dz
        dz[:, g.n_positive:] = sig[:, g.n_positive:]  # d(-log(1 - sigmoid(z)))/dz
        dz *= scale

        contrib["disc.w2"][at] = dz[:, None, :] @ g.a1
        contrib["disc.b2"][at, 0] = dz.sum(axis=1)
        dz1 = dz[:, :, None] * disc.w2[0]
        dz1 *= g.z1 > 0
        contrib["disc.w1"][at] = dz1.transpose(0, 2, 1) @ g.x
        contrib["disc.b1"][at] = dz1.sum(axis=1)

        dx = dz1 @ disc.w1  # (G, P, 2d)
        for k in range(g.i.shape[1]):
            dh[g.rows, g.i[:, k]] += dx[:, k, :d]
            dh[g.rows, g.j[:, k]] += dx[:, k, d:]
    for name, stacked in contrib.items():
        grads[name] = add_in_order(grads[name], stacked)
