"""Mutual-information regularizer over the three sentence representations.

Within a window, the sentences that the answer mask of
:class:`otrank.model.FeatureSet` marks form the answer set. A small
discriminator network reads ordered pairs of final GCN representations and is
pushed (through a binary cross-entropy sum) toward 1 on answer/answer pairs
and 0 on answer/other pairs, encouraging answer sentences to share information
and answer/other pairs not to.

Self-pairs are excluded from the positive set, and pairs never cross window
boundaries. :meth:`WindowPairs.of_labels` builds a batch's pairs from its
answer mask by broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FFNParams, sigmoid


@dataclass(frozen=True)
class WindowPairs:
    """The ordered pairs of a batch as one flat list of P pairs.

    Pairs run window after window, and each window's positives come first.
    """

    window: np.ndarray  # (P,) batch position of the pair's window, ascending
    i: np.ndarray  # (P,) first node of the pair
    j: np.ndarray  # (P,) second node
    positive: np.ndarray  # (P,) True for an answer/answer pair

    @classmethod
    def of_labels(cls, labels: np.ndarray) -> "WindowPairs":
        """The pairs of B windows from their ``(B, 3)`` answer mask: ``(i, j)`` is positive
        when both are answers and ``i != j``, negative when only ``i`` is. ``np.nonzero``
        over the ``(B, 2, 3, 3)`` grid of both sets lists them in the order above."""
        a, b = labels[:, :, None], labels[:, None, :]
        window, kind, i, j = np.nonzero(np.stack([a & b & ~np.eye(3, dtype=bool), a & ~b], 1))
        return cls(window=window, i=i, j=j, positive=kind == 0)


@dataclass
class MIForward:
    """Intermediates of the regularizer over a batch of windows, for backprop.

    Row p of the flat arrays is pair p of ``pairs``.
    """

    pairs: WindowPairs
    x: np.ndarray  # (P, 2d) concatenated pair inputs
    a1: np.ndarray  # (P, hidden) hidden activations
    z: np.ndarray  # (P,) discriminator logits
    loss: np.ndarray  # (B,) per-window terms; 0 for windows without pairs


def mi_forward(h: np.ndarray, pairs: WindowPairs, disc: FFNParams) -> MIForward:
    """Compute each window's regularizer term from final representations ``(B, 3, d)``.

    A window's term is ``sum(-log U)`` over its positive pairs plus
    ``sum(-log(1-U))`` over its negative pairs, evaluated stably from the
    discriminator logits; empty index sets contribute zero. Every pair of the
    batch is one row of a ``(P, 2d)`` input, run through one GEMM and one
    matrix-vector product; BLAS may round a row differently from running its
    window alone, so a term agrees with the per-window loop to rounding. Each
    sum adds a window's terms in pair order, as ``pos.sum() + neg.sum()`` does.
    """
    b, _, d = h.shape
    x = np.empty((pairs.i.size, 2 * d))
    x[:, :d] = h[pairs.window, pairs.i]
    x[:, d:] = h[pairs.window, pairs.j]
    a1 = x @ disc.w1.T
    a1 += disc.b1
    np.maximum(a1, 0.0, out=a1)
    z = a1 @ disc.w2[0]
    z += disc.b2[0]
    # -log sigmoid(z) for positives, -log(1 - sigmoid(z)) for negatives.
    term = np.logaddexp(0.0, np.where(pairs.positive, -z, z))
    pos, neg = pairs.positive, ~pairs.positive
    loss = (np.bincount(pairs.window[pos], term[pos], minlength=b)
            + np.bincount(pairs.window[neg], term[neg], minlength=b))
    return MIForward(pairs=pairs, x=x, a1=a1, z=z, loss=loss)


def mi_backward(
    fwd: MIForward, disc: FFNParams, scale: float, grads: dict[str, np.ndarray],
    dh: np.ndarray,
) -> None:
    """Accumulate ``scale * d(loss)`` into the disc gradients and node grads ``dh`` (B, 3, d).

    Each disc weight gradient is one product over every pair of the batch, and
    each bias gradient one sum. The node gradients are added to ``dh`` in one
    scatter, pair after pair: the ``i`` row, then the ``j`` row.
    """
    n = fwd.z.size
    if n == 0:
        return
    d = dh.shape[2]
    pairs = fwd.pairs
    dz = sigmoid(fwd.z)  # d(-log(1 - sigmoid(z)))/dz for negatives
    dz[pairs.positive] -= 1.0  # d(-log sigmoid(z))/dz
    dz *= scale

    grads["disc.w2"] += dz[None] @ fwd.a1
    grads["disc.b2"] += dz.sum()
    dz1 = dz[:, None] * disc.w2[0]
    dz1 *= fwd.a1 > 0.0
    grads["disc.b1"] += dz1.sum(axis=0)
    grads["disc.w1"] += dz1.T @ fwd.x

    dx = dz1 @ disc.w1
    windows = np.repeat(pairs.window, 2)
    nodes = np.stack([pairs.i, pairs.j], axis=1).reshape(2 * n)
    np.add.at(dh, (windows, nodes), dx.reshape(2 * n, d))
