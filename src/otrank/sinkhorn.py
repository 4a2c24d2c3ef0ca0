"""Entropic-regularized optimal transport between question and sentence words.

Couples two word point sets under their frequency marginals and a Euclidean
cost, then distills the coupling into (a) a transport cost used as a
question-relevance feature and (b) a "relevant context" word subset whose
mean embedding represents the sentence.

The solver runs in the log domain for stability at small regularization.
Updates are simultaneous half-steps of both dual potentials rather than
alternating full row/column scalings: averaging the previous potential with
its scaling update keeps the iteration convergent while making the whole
trajectory symmetric under swapping the two point sets, so the plan for the
swapped problem is exactly the transpose. The fixed point is the usual one:
``plan = diag(u) @ exp(-D/eps) @ diag(v)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence, content_token_indices
from .embeddings import FrequencyTable, marginal_distribution

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SinkhornSettings:
    """Solver knobs. ``eps`` is set per instance as ``eps_scale * mean(D)``."""

    eps_scale: float = 0.1
    max_iter: int = 500
    tol: float = 1e-6


@dataclass
class TransportPlan:
    plan: np.ndarray  # (n, m), nonnegative
    epsilon: float
    iterations_used: int
    converged: bool
    violation: float  # worst row or column marginal violation of ``plan``


@dataclass
class AlignmentResult:
    """Everything the scorer needs from aligning one sentence to the question.

    ``relevant`` indexes the *filtered* sentence token list; the
    ``*_token_indices`` tuples map filtered positions back to positions in
    the original token lists.
    """

    plan: TransportPlan
    cost: float
    relevant: tuple[int, ...]
    representation: np.ndarray  # (d,)
    question_token_indices: tuple[int, ...]
    sentence_token_indices: tuple[int, ...]


def cost_matrix(xs, ys) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(xs), len(ys))."""
    X = np.asarray(xs, dtype=np.float64)
    Y = np.asarray(ys, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("point sets must be 2-D arrays of row vectors")
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise ValueError("point sets must be nonempty")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class NonFiniteCostError(ValueError):
    """A cost matrix holds NaN or inf; ``index`` is its position in the batch."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _logsumexp(M: np.ndarray, axis: int) -> np.ndarray:
    mx = M.max(axis=axis)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return safe + np.log(np.exp(M - np.expand_dims(safe, axis)).sum(axis=axis))


def _build(f: np.ndarray, g: np.ndarray, D: np.ndarray, eps: np.ndarray) -> np.ndarray:
    # -inf potentials (zero marginal entries) exponentiate to exact zeros.
    return np.exp((f[:, :, None] + g[:, None, :] - D) / eps[:, None, None])


def sinkhorn_plan(
    p: np.ndarray,
    q: np.ndarray,
    D: np.ndarray,
    eps: float,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> TransportPlan:
    """Solve entropic OT between marginals ``p`` and ``q`` under cost ``D``.

    The one-problem call of :func:`sinkhorn_plans`, which documents the
    iteration, the convergence test and the best-iterate fallback.
    """
    return sinkhorn_plans([p], [q], [D], [eps], max_iter, tol)[0]


def sinkhorn_plans(ps, qs, costs, eps, max_iter: int = 500, tol: float = 1e-6
                   ) -> list[TransportPlan]:
    """Solve a batch of entropic OT problems; problem ``k`` is
    ``(ps[k], qs[k], costs[k], eps[k])``.

    Each problem iterates damped log-domain potential updates until the worst
    row or column marginal violation of its reconstructed plan falls below
    ``tol``. If the budget runs out, its result is the best iterate seen,
    with ``converged=False`` (callers keep going; a warning is logged per
    problem).

    Problems are grouped by their exact cost shape, and each group is solved
    as stacked ``(B, n, m)`` arrays without padding, so every problem goes
    through the same floating-point operations, in the same order, as when
    it is solved alone. Converged problems leave the active set after every
    iteration, so a slow problem only keeps itself iterating.
    """
    count = len(costs)
    if not len(ps) == len(qs) == len(eps) == count:
        raise ValueError("a batch needs one p, q, cost matrix and eps per problem")
    arrays = []
    groups: dict[tuple[int, int], list[int]] = {}
    for k in range(count):
        p = np.asarray(ps[k], dtype=np.float64)
        q = np.asarray(qs[k], dtype=np.float64)
        D = np.asarray(costs[k], dtype=np.float64)
        if D.ndim != 2 or p.shape != (D.shape[0],) or q.shape != (D.shape[1],):
            raise ValueError(f"{_where(k, count)}marginal shapes {p.shape}/{q.shape} "
                             f"do not match cost {D.shape}")
        arrays.append((p, q, D))
        groups.setdefault(D.shape, []).append(k)

    results: list[TransportPlan | None] = [None] * count
    unconverged = []
    for members in groups.values():
        P = np.stack([arrays[k][0] for k in members])
        Q = np.stack([arrays[k][1] for k in members])
        D = np.stack([arrays[k][2] for k in members])
        E = np.array([eps[k] for k in members], dtype=np.float64)
        _validate(members, count, P, Q, D, E)
        f, g, iters, viol, converged = _solve_group(P, Q, D, E, max_iter, tol)
        plans = _build(f, g, D, E)
        for b, k in enumerate(members):
            results[k] = TransportPlan(plan=plans[b], epsilon=float(E[b]),
                                       iterations_used=int(iters[b]),
                                       converged=bool(converged[b]), violation=float(viol[b]))
            if not converged[b]:
                unconverged.append(k)
    for k in sorted(unconverged):
        logger.warning("%ssinkhorn did not converge in %d iterations (best violation %.3e)",
                       _where(k, count), max_iter, results[k].violation)
    return results


def _where(k: int, count: int) -> str:
    return f"problem {k}: " if count > 1 else ""


def _validate(members, count, P, Q, D, E) -> None:
    bad = ~np.isfinite(D).all(axis=(1, 2))
    if bad.any():
        k = members[int(np.argmax(bad))]
        raise NonFiniteCostError(k, f"{_where(k, count)}cost matrix contains non-finite entries")
    bad = ~(E > 0)
    if bad.any():
        b = int(np.argmax(bad))
        raise ValueError(f"{_where(members[b], count)}regularization strength must be "
                         f"positive, got {E[b]}")
    for name, V in (("p", P), ("q", Q)):
        bad = np.any(V < 0, axis=1) | (np.abs(V.sum(axis=1) - 1.0) > 1e-9)
        if bad.any():
            k = members[int(np.argmax(bad))]
            raise ValueError(f"{_where(k, count)}marginal {name} must be nonnegative "
                             "and sum to 1")


def _solve_group(P, Q, D, E, max_iter: int, tol: float):
    """Iterate one shape group; returns the best potentials, their iteration and
    violation, and the converged flags, per problem.

    numpy sums a contiguous axis as ``a[0] + (a[1] + a[2] + ...)`` (pairwise
    from 9 terms on) but a strided axis strictly left to right, so each
    reduction keeps the layout of the single-problem solver: the f-update
    reduces the contiguous last axis, the g-update the strided axis 1 (it
    used to reduce the rows of the ``D.T`` view), and the column sums a
    contiguous transposed copy of the plan (they used to come from a plan
    rebuilt from ``D.T``). Stacking thus changes no bit.
    """
    B, n, m = D.shape
    with np.errstate(divide="ignore"):
        LP = np.log(P)
        LQ = np.log(Q)
    best_f = np.zeros((B, n))
    best_g = np.zeros((B, m))
    best_iter = np.zeros(B, dtype=np.int64)
    best_viol = np.full(B, np.inf)
    converged = np.zeros(B, dtype=bool)

    # The active set: group positions of the problems still iterating, and
    # their rows of every per-problem array.
    active = np.arange(B)
    f, g = np.zeros((B, n)), np.zeros((B, m))
    for it in range(1, max_iter + 1):
        e2, e3 = E[:, None], E[:, None, None]
        f_new = 0.5 * (f + e2 * LP - e2 * _logsumexp((g[:, None, :] - D) / e3, axis=2))
        g_new = 0.5 * (g + e2 * LQ - e2 * _logsumexp((f[:, :, None] - D) / e3, axis=1))
        f, g = f_new, g_new
        plan = _build(f, g, D, E)
        row = np.abs(plan.sum(axis=2) - P).max(axis=1)
        col_sums = np.ascontiguousarray(plan.transpose(0, 2, 1)).sum(axis=2)
        col = np.abs(col_sums - Q).max(axis=1)
        viol = np.where(col > row, col, row)  # Python's max(row, col), NaN included

        better = viol < best_viol[active]
        idx = active[better]
        best_f[idx] = f[better]
        best_g[idx] = g[better]
        best_iter[idx] = it
        best_viol[idx] = viol[better]
        done = viol <= tol
        if done.any():
            converged[active[done]] = True
            keep = ~done
            if not keep.any():
                break
            active, f, g = active[keep], f[keep], g[keep]
            P, Q, LP, LQ, D, E = P[keep], Q[keep], LP[keep], LQ[keep], D[keep], E[keep]
    return best_f, best_g, best_iter, best_viol, converged


def transport_cost(plan: np.ndarray, D: np.ndarray) -> float:
    """Frobenius inner product of a plan with its cost matrix."""
    plan = np.asarray(plan, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if plan.shape != D.shape:
        raise ValueError(f"shape mismatch: plan {plan.shape} vs cost {D.shape}")
    return float(np.sum(plan * D))


def relevant_context(plan: np.ndarray) -> list[int]:
    """Column indices selected by row-wise argmax, deduplicated and ascending.

    Ties resolve to the smallest column index.
    """
    plan = np.asarray(plan)
    if plan.ndim != 2 or plan.shape[0] == 0:
        raise ValueError("plan must have at least one row")
    return sorted({int(np.argmax(row)) for row in plan})


def sentence_representation(sentence_embeddings, relevant) -> np.ndarray:
    """Mean of the embedding vectors selected as relevant context."""
    vecs = np.asarray(sentence_embeddings, dtype=np.float64)
    idx = list(relevant)
    if not idx:
        raise ValueError("relevant set must be nonempty")
    if min(idx) < 0 or max(idx) >= vecs.shape[0]:
        raise ValueError("relevant index out of range")
    return vecs[idx].mean(axis=0)


def align_sentence(
    question: Sentence,
    s: Sentence,
    question_vectors,
    sentence_vectors,
    ft: FrequencyTable,
    settings: SinkhornSettings = SinkhornSettings(),
) -> AlignmentResult:
    """Full question-to-sentence alignment pipeline.

    The one-pair call of :func:`align_sentences`.
    """
    return align_sentences([(question, s, question_vectors, sentence_vectors)], ft, settings)[0]


@dataclass
class _Prepared:
    """One non-padding pair, ready for the solver."""

    p: np.ndarray
    q: np.ndarray
    D: np.ndarray
    eps: float
    sentence_vectors: np.ndarray
    question_token_indices: tuple[int, ...]
    sentence_token_indices: tuple[int, ...]


def _prepare(question: Sentence, s: Sentence, question_vectors, sentence_vectors,
             ft: FrequencyTable, settings: SinkhornSettings) -> AlignmentResult | _Prepared:
    q_vecs = np.asarray(question_vectors, dtype=np.float64)
    q_idx = content_token_indices(question)
    if not q_idx:
        raise ValueError("question has no tokens to align")
    if q_vecs.shape[0] != len(question.tokens):
        raise ValueError(
            f"question has {len(question.tokens)} tokens but {q_vecs.shape[0]} vectors"
        )
    q_tokens = [question.tokens[i] for i in q_idx]
    p = marginal_distribution(q_tokens, ft)

    if s.is_padding:
        dim = q_vecs.shape[1]
        plan = TransportPlan(
            plan=p[:, None].copy(), epsilon=0.0, iterations_used=0, converged=True,
            violation=0.0,
        )
        return AlignmentResult(
            plan=plan,
            cost=0.0,
            relevant=(0,),
            representation=np.zeros(dim),
            question_token_indices=tuple(q_idx),
            sentence_token_indices=(0,),
        )

    s_vecs = np.asarray(sentence_vectors, dtype=np.float64)
    if s_vecs.shape[0] != len(s.tokens):
        raise ValueError(f"sentence has {len(s.tokens)} tokens but {s_vecs.shape[0]} vectors")
    s_idx = content_token_indices(s)
    if not s_idx:
        raise ValueError("cannot align a sentence with no tokens")
    s_tokens = [s.tokens[j] for j in s_idx]

    D = cost_matrix(q_vecs[q_idx], s_vecs[s_idx])
    eps = settings.eps_scale * float(D.mean())
    if not (eps > 0):
        eps = 1e-12  # degenerate all-identical embeddings; any eps gives the outer product
    return _Prepared(p=p, q=marginal_distribution(s_tokens, ft), D=D, eps=eps,
                     sentence_vectors=s_vecs, question_token_indices=tuple(q_idx),
                     sentence_token_indices=tuple(s_idx))


def align_sentences(pairs, ft: FrequencyTable, settings: SinkhornSettings = SinkhornSettings()
                    ) -> list[AlignmentResult]:
    """Align a batch of ``(question, sentence, question_vectors, sentence_vectors)``
    pairs, solving every transport problem in one :func:`sinkhorn_plans` call.

    Per pair: filters both token lists, builds frequency marginals and the
    Euclidean cost, solves at ``eps = eps_scale * mean(D)``, and pools the
    relevant-context embeddings into the sentence representation.

    Padding sentences short-circuit: zero cost, zero representation, and the
    single padding token as relevant context.

    A non-finite cost matrix raises :class:`NonFiniteCostError` whose
    ``index`` is the pair's position in ``pairs``.
    """
    prepared = [_prepare(*pair, ft, settings) for pair in pairs]
    pending = [k for k, item in enumerate(prepared) if isinstance(item, _Prepared)]
    try:
        plans = sinkhorn_plans([prepared[k].p for k in pending], [prepared[k].q for k in pending],
                               [prepared[k].D for k in pending], [prepared[k].eps for k in pending],
                               settings.max_iter, settings.tol)
    except NonFiniteCostError as exc:
        k = pending[exc.index]
        raise NonFiniteCostError(k, f"pair {k}: cost matrix contains non-finite entries") from None
    for k, tp in zip(pending, plans):
        # Each prepared pair is dropped as soon as its result replaces it, and
        # the representation re-selects its filtered rows, so no copy of them
        # lives through the batch.
        x = prepared[k]
        rel = relevant_context(tp.plan)
        prepared[k] = AlignmentResult(
            plan=tp,
            cost=transport_cost(tp.plan, x.D),
            relevant=tuple(rel),
            representation=sentence_representation(
                x.sentence_vectors[list(x.sentence_token_indices)], rel
            ),
            question_token_indices=x.question_token_indices,
            sentence_token_indices=x.sentence_token_indices,
        )
    return prepared
