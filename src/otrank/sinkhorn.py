"""Entropic-regularized optimal transport between question and sentence words.

Couples two word point sets under their frequency marginals and a Euclidean
cost, then distills the coupling into (a) a transport cost used as a
question-relevance feature and (b) a "relevant context" word subset whose
mean embedding represents the sentence.

The solver iterates in the kernel domain (Cuturi 2013): the plan is
``diag(u) @ K @ diag(v)`` with ``K = exp((f_i + g_j - D_ij) / eps)``, and an
iteration is one product ``K v``, one product ``K^T u`` and elementwise
updates of the scalings ``u, v``, with no ``exp`` or ``log``.
Updates alternate full row and column scalings (Peyré & Cuturi 2019, §4.2):
``u <- p / (K v)``, then ``v <- q / (K^T u)`` with the new ``u``, from a
start that splits the costs evenly between the two sides. The iteration is
not symmetric in the two point sets, so each problem is solved in one
canonical orientation, its shorter side as rows (a square problem picks its
side by comparing bytes), and the swapped problem's plan is then exactly the
transpose. A problem equal to its own transpose takes a symmetric step
instead, so its plan is exactly symmetric.

Stability at small regularization comes from absorption (Schmitzer 2019,
§3): when a scaling leaves a fixed bound, ``eps * log`` of it is folded into
the potentials ``f, g`` and ``K`` is rebuilt, so the scalings stay bounded
and the iteration follows the log-domain one up to rounding.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence, content_token_indices, content_tokens
from .embeddings import FrequencyTable, marginal_distribution
from .errors import EpsScaleError

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


# A stack's costs are built a block of problems at a time, sized so that the
# block's (b, m, d) difference buffer stays in a core's L2 cache: each row of
# the block's question points is subtracted into it and then reduced from it,
# and at d=768 one buffer for a whole stack would be as large as its content
# rows and fall out of cache between the two passes.
_COST_BLOCK_BYTES = 256 * 1024


def cost_matrix(xs, ys) -> np.ndarray:
    """Pairwise Euclidean distances: ``(n, m)`` for ``(n, d)`` and ``(m, d)``
    point sets, ``(B, n, m)`` for ``(B, n, d)`` and ``(B, m, d)`` stacks.

    Built a block of problems at a time (at most ``_COST_BLOCK_BYTES`` of
    differences, at least one problem), one row of ``xs`` at a time into one
    reused difference buffer; each entry sums the same contiguous run over
    ``d``, so a stack's costs are bit-equal to its problems' built alone.
    """
    X = np.asarray(xs, dtype=np.float64)
    Y = np.asarray(ys, dtype=np.float64)
    if X.ndim not in (2, 3) or Y.ndim != X.ndim:
        raise ValueError("point sets must be 2-D arrays of row vectors or 3-D stacks of them")
    if X.shape[-2] == 0 or Y.shape[-2] == 0:
        raise ValueError("point sets must be nonempty")
    if X.shape[-1] != Y.shape[-1]:
        raise ValueError(f"dimension mismatch: {X.shape[-1]} vs {Y.shape[-1]}")
    if X.shape[:-2] != Y.shape[:-2]:
        raise ValueError(f"stack size mismatch: {X.shape[0]} vs {Y.shape[0]}")
    D = np.empty(X.shape[:-1] + Y.shape[-2:-1])
    Xs, Ys, Ds = (A.reshape((-1,) + A.shape[-2:]) for A in (X, Y, D))
    block = max(1, _COST_BLOCK_BYTES // max(1, Ys.itemsize * Ys.shape[1] * Ys.shape[2]))
    diff = np.empty((min(block, len(Ys)),) + Ys.shape[1:])
    for lo in range(0, len(Ys), block):
        x, y, out = Xs[lo : lo + block], Ys[lo : lo + block], Ds[lo : lo + block]
        buf = diff[: len(y)]
        for i in range(x.shape[1]):
            np.subtract(x[:, i, None, :], y, out=buf)
            np.sqrt(np.einsum("bjk,bjk->bj", buf, buf), out=out[:, i, :])
    return D


class UnalignablePairError(ValueError):
    """A side's vector count is not its token count, or a cost holds NaN or inf.

    ``index`` is the pair's position in its batch; ``question`` whether its
    question is at fault (None for :func:`sinkhorn_plans`, which has no sides).
    """

    def __init__(self, index: int, message: str, question: bool | None = None):
        super().__init__(message)
        self.index = index
        self.question = question


# A scaling is folded into its potential once it leaves [1 / _BOUND, _BOUND].
# Products and ratios of in-bound scalings with kernel rows (columns) whose
# largest entry is at least exp(_FLOOR) stay far from overflow and underflow.
# A plan row (column) keeps a log deficit down to _DEFICIT exactly: half of it
# in the kernel times an in-bound scaling is still a normal double.
_BOUND = 1e50
_FLOOR = -2.0 * np.log(_BOUND)
_DEFICIT = 2.0 * (np.log(np.finfo(np.float64).tiny) + np.log(_BOUND))


def _exp_masked(L: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``exp(L)`` where ``mask`` holds, 1 elsewhere; ``L`` is scratch."""
    L[~mask] = 0.0
    return np.exp(L, out=L)


def _product(K, w, out, scratch) -> None:
    """``K w`` of a contiguous ``(B, r, c)`` stack and ``(B, c)`` scalings into
    ``out`` ``(B, r)``.

    Each sum runs over a contiguous axis of a contiguous stack, as a lone
    problem's does (see :func:`_solve_groups`), through :func:`_row_sums`.
    """
    _row_sums(np.multiply(K, w[:, None, :], out=scratch[:K.size].reshape(K.shape)), out)


# numpy sums a contiguous run of fewer than 8 terms left to right.
_SHORT_RUN = 8
# Below this many runs, one reduction call costs less than one add per term;
# 128 to 1024 gave the same solve time on the benchmark's rerank inputs.
_FEW_ROWS = 512


def _row_sums(t: np.ndarray, out: np.ndarray) -> None:
    """``t.sum(axis=2, out=out)`` of a contiguous ``(B, r, c)`` stack, bit for bit.

    numpy adds a run of fewer than 8 terms left to right, and its reduction
    starts from ``+0.0``, so a sum of negative zeros is ``+0.0``. Such runs
    are summed here as the same ordered adds over strided slices, one per
    term, starting from ``t[..., 0] + 0.0``, which avoids the reduction's
    per-run cost: at ``(1500, 6, 6)`` the reduction takes 135 µs and the adds
    30 µs (x86_64, one BLAS thread). A run of 8 or more, which numpy adds in
    interleaved blocks, keeps the reduction, and so do fewer than 512 runs,
    where the adds' per-call cost is the larger part (at ``(20, 6, 6)``, 5.2
    against 2.7 µs).
    """
    B, r, c = t.shape
    if c >= _SHORT_RUN or B * r < _FEW_ROWS:
        t.sum(axis=2, out=out)
        return
    np.add(t[..., 0], 0.0, out=out)
    for j in range(1, c):
        out += t[..., j]


def _absorb(FG, uv, D, e3, n: int):
    """Fold the nonzero scalings into the potentials and rebuild the kernel.

    Returns the new potentials, scalings, kernel and its contiguous transpose.
    The kernel is ``exp((f_i + g_j - D_ij) / eps)`` wherever both scalings are
    nonzero and 1 elsewhere, where its products are exact zeros.

    A live row (column) whose largest kernel entry is below ``exp(_FLOOR)``
    keeps half of that log deficit in its scaling, so a plan row far below
    the smallest double stays the product of two representable factors. A
    potential whose row (column) lies below ``exp(_DEFICIT)`` is first raised
    to it; such a plan row is below 1e-515 either way.
    """
    e2 = e3[:, :, 0]
    live = uv > 0.0
    with np.errstate(divide="ignore"):
        FG = np.where(live, FG + e2 * np.log(uv), FG)
    L = FG[:, :n, None] + FG[:, None, n:]
    L -= D
    L /= e3
    real = live[:, :n, None] & live[:, None, n:]
    L[~real] = -np.inf
    top = np.concatenate([L.max(axis=2), L.max(axis=1)], axis=1)
    lift = np.where(live & (top < _DEFICIT), _DEFICIT - top, 0.0)
    if lift.any():
        FG += e2 * lift
        L += lift[:, :n, None] + lift[:, None, n:]
        top = np.concatenate([L.max(axis=2), L.max(axis=1)], axis=1)
    half = np.where(live & (top < _FLOOR), 0.5 * top, 0.0)
    if half.any():
        L -= half[:, :n, None] + half[:, None, n:]
        FG -= e2 * half
    K = _exp_masked(L, real)
    return (FG, np.where(half < 0.0, np.exp(half), live), K,
            np.ascontiguousarray(K.transpose(0, 2, 1)))


def _plans(F, G, u, v, D, e3) -> np.ndarray:
    """The plans ``u_i exp((f_i + g_j - D_ij) / eps) v_j`` of stacked potentials
    and scalings; ``e3`` is eps as ``(B, 1, 1)``."""
    w = u[:, :, None] * v[:, None, :]
    L = F[:, :, None] + G[:, None, :]
    L -= D
    L /= e3
    plan = _exp_masked(L, w > 0.0)
    plan *= w
    return plan


def sinkhorn_plan(
    p: np.ndarray,
    q: np.ndarray,
    D: np.ndarray,
    eps: float,
    max_iter: int = SinkhornSettings.max_iter,
    tol: float = SinkhornSettings.tol,
) -> TransportPlan:
    """Solve entropic OT between marginals ``p`` and ``q`` under cost ``D``.

    The one-problem call of :func:`sinkhorn_plans`, which documents the
    iteration, the convergence test and the best-iterate fallback.
    """
    return sinkhorn_plans([p], [q], [D], [eps], max_iter, tol)[0]


@dataclass
class PlanGroup:
    """The problems of one ``(n, m)`` shape as stacked arrays, cut from the
    padded stack of their summation bucket (see :func:`_solve_groups`)."""

    members: np.ndarray  # (B,) positions of the problems in their batch
    costs: np.ndarray  # (B, n, m)
    plans: np.ndarray  # (B, n, m); the best iterate where unconverged
    iterations: np.ndarray  # (B,) iteration of each plan
    converged: np.ndarray  # (B,) bool
    violations: np.ndarray  # (B,)

    def plan(self, b: int) -> TransportPlan:
        return TransportPlan(plan=self.plans[b], iterations_used=int(self.iterations[b]),
                             converged=bool(self.converged[b]),
                             violation=float(self.violations[b]))


def sinkhorn_plans(ps, qs, costs, eps, max_iter: int = SinkhornSettings.max_iter,
                   tol: float = SinkhornSettings.tol) -> list[TransportPlan]:
    """Solve a batch of entropic OT problems; problem ``k`` is
    ``(ps[k], qs[k], costs[k], eps[k])``.

    Each problem iterates alternating kernel-domain scaling updates in its
    canonical orientation, with absorption into its potentials (see
    :func:`_solve_groups` and :func:`_solve_group`), until the worst row or
    column marginal violation of its plan falls below ``tol``.
    If the budget runs out, its result is the best iterate seen, with
    ``converged=False`` (callers keep going; a warning is logged per
    problem).

    The entry point for loose arrays: the problems are checked, stacked by
    exact ``(n, m)`` shape and solved by :func:`_solve_groups`, one padded
    stack per summation bucket. The padding changes no bit: every problem's
    plan, iteration count and violation are those of solving it alone.
    Converged problems leave the active set after every iteration, so a slow
    problem only keeps itself iterating.
    """
    count = len(costs)
    if not len(ps) == len(qs) == len(eps) == count:
        raise ValueError("a batch needs one p, q, cost matrix and eps per problem")
    arrays = []
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k in range(count):
        p = np.asarray(ps[k], dtype=np.float64)
        q = np.asarray(qs[k], dtype=np.float64)
        D = np.asarray(costs[k], dtype=np.float64)
        if D.ndim != 2 or p.shape != (D.shape[0],) or q.shape != (D.shape[1],):
            raise ValueError(f"{_where(k, count)}marginal shapes {p.shape}/{q.shape} "
                             f"do not match cost {D.shape}")
        arrays.append((p, q, D))
        by_shape.setdefault(D.shape, []).append(k)
    stacks = []
    for members in by_shape.values():
        P, Q, D = (np.stack(column) for column in zip(*(arrays[k] for k in members)))
        stacks.append((np.array(members), P, Q, D,
                       np.array([eps[k] for k in members], dtype=np.float64)))
    results: list[TransportPlan | None] = [None] * count
    for grp in _solve_groups(stacks, count, max_iter, tol):
        for b, k in enumerate(grp.members):
            results[k] = grp.plan(b)
    return results


# numpy sums a contiguous run of up to 128 terms as blocks of 8 (eight
# interleaved accumulators) and then a left-to-right remainder. A longer run is
# split in two at a point that depends on its length.
_PAIRWISE_BLOCK = 128


def _extent_bucket(n: int) -> int:
    return n // 8 if n <= _PAIRWISE_BLOCK else n


def _bucket(n: int, m: int) -> tuple[int, int]:
    """The summation bucket of an ``(n, m)`` problem."""
    return _extent_bucket(n), _extent_bucket(m)


def _solve_groups(stacks, count: int, max_iter: int, tol: float) -> list[PlanGroup]:
    """Solve exact-shape stacks of problems, leaving each shape's results stacked.

    ``stacks`` holds one ``(members, P, Q, D, E)`` tuple per ``(n, m)`` shape:
    the problems' positions in a batch of ``count``, their marginals ``(B, n)``
    and ``(B, m)``, costs ``(B, n, m)`` and regularization strengths ``(B,)``.
    The result holds one :class:`PlanGroup` per stack, in order.

    Each problem is solved in its canonical orientation (see :func:`_orientation`).
    One solved as its transpose has its potentials and scalings swapped back
    before its plan, an elementwise product of them, is built. So the swapped
    problem ``(q, p, D^T)``, which has the same orientation, gets exactly the
    transposed plan, iteration count and violation.

    The oriented shapes are grouped by the bucket key ``(n // 8, m // 8)``.
    Each bucket is solved as one ``(B, N, M)`` stack, ``N`` and ``M`` its
    largest extents. Every sum of the iteration runs over the contiguous last
    axis of a contiguous stack, ``K`` or its contiguous transpose, as a lone
    problem's does. Padding rows and columns carry zero mass at zero cost, and
    each sum over a padded axis only gains trailing exact zeros, so no bit
    moves:

    - numpy adds a contiguous run of fewer than 8 terms left to right, and a
      run of 8 to 128 terms as whole blocks of 8 followed by a left-to-right
      remainder. Within a bucket the count of whole blocks is the same, so a
      trailing zero only lengthens the remainder. Above 128 terms the split
      point depends on the length, so such an extent is a bucket of its own;
    - the padding's scalings are 0 from the start and its kernel entries 1,
      so it adds exact zeros to every product; the column minima and row
      maxima of the start and every max skip it.

    The padding is marked by its own row and column masks, never by zero
    marginal entries. Real zero-marginal columns start with scaling 0 and
    real zero-marginal rows reach it in their first update, as in the
    one-problem solve; from then on their kernel entries are 1 as well.

    The results are cut back to the exact shapes, so the post-solve runs on
    exact shapes: a padded plan's flattened cost sum would regroup numpy's
    accumulators, and a padded row would take column 0 as its argmax.
    """
    by_bucket: dict[tuple[int, int], list[int]] = {}
    oriented = []
    for s, (members, P, Q, D, E) in enumerate(stacks):
        _validate(count, members, P, Q, D, E)
        swap, own = _orientation(P, Q, D)
        P, Q, D, _ = _orient(swap, (P, Q), (D, D.transpose(0, 2, 1)))
        oriented.append((swap, P, Q, D, own))
        by_bucket.setdefault(_bucket(*D.shape[1:]), []).append(s)

    groups: list[PlanGroup | None] = [None] * len(stacks)
    for bucket in by_bucket.values():
        shapes = [oriented[s][3].shape[1:] for s in bucket]
        bounds = np.cumsum([0] + [len(stacks[s][0]) for s in bucket]).tolist()
        spans = [(s, n, m, lo, hi)
                 for s, (n, m), lo, hi in zip(bucket, shapes, bounds, bounds[1:])]
        B, N, M = bounds[-1], max(n for n, _ in shapes), max(m for _, m in shapes)
        P, Q, D, E = np.zeros((B, N)), np.zeros((B, M)), np.zeros((B, N, M)), np.empty(B)
        rows, cols = np.zeros((B, N), dtype=bool), np.zeros((B, M), dtype=bool)
        sym = np.empty(B, dtype=bool)
        for s, n, m, lo, hi in spans:
            P[lo:hi, :n], Q[lo:hi, :m], D[lo:hi, :n, :m], sym[lo:hi] = oriented[s][1:]
            E[lo:hi] = stacks[s][4]
            rows[lo:hi, :n] = True
            cols[lo:hi, :m] = True
        FG, uv, iters, viol, converged = _solve_group(P, Q, D, E, rows, cols, sym, max_iter, tol)
        for s, n, m, lo, hi in spans:
            members, _, _, Ds, Es = stacks[s]
            F, G, u, v = _orient(oriented[s][0], (FG[lo:hi, :n], FG[lo:hi, N:N + m]),
                                 (uv[lo:hi, :n], uv[lo:hi, N:N + m]))
            groups[s] = PlanGroup(
                members=members, costs=Ds, plans=_plans(F, G, u, v, Ds, Es[:, None, None]),
                iterations=iters[lo:hi], converged=converged[lo:hi], violations=viol[lo:hi])
    unconverged = sorted((int(k), float(v)) for grp in groups
                         for k, v in zip(grp.members[~grp.converged],
                                         grp.violations[~grp.converged]))
    for k, violation in unconverged:
        logger.warning("%ssinkhorn did not converge in %d iterations (best violation %.3e)",
                       _where(k, count), max_iter, violation)
    return groups


def _orientation(P, Q, D) -> tuple[np.ndarray, np.ndarray]:
    """Per problem of an exact-shape stack: whether it is solved as its
    transpose ``(q, p, D^T)``, and whether it equals its transpose.

    The canonical orientation has the shorter side as rows. A square problem
    compares the bytes of ``(p, D)`` with those of ``(q, D^T)``, both C
    order, and is transposed when the second is smaller, so it and its
    swapped problem pick the same orientation. A problem whose two byte
    strings are equal has no canonical side; it keeps its own and is solved
    by a symmetric step (see :func:`_solve_group`).
    """
    B, n, m = D.shape
    if n != m:
        return np.full(B, n > m), np.zeros(B, dtype=bool)
    X = np.concatenate([P, D.reshape(B, -1)], axis=1).view(np.uint8)
    Y = np.concatenate([Q, D.transpose(0, 2, 1).reshape(B, -1)], axis=1).view(np.uint8)
    differ = X != Y
    first = differ.argmax(axis=1)
    b = np.arange(B)
    return differ[b, first] & (Y[b, first] < X[b, first]), ~differ[b, first]


def _orient(swap, *pairs) -> list[np.ndarray]:
    """Each ``(x, y)`` pair of stacks as ``(y, x)`` for the problems ``swap``
    marks; a stack that is swapped only in part is square."""
    out = []
    for x, y in pairs:
        if swap.all():
            out += [y, x]
        elif swap.any():
            where = swap.reshape((-1,) + (1,) * (x.ndim - 1))
            out += [np.where(where, y, x), np.where(where, x, y)]
        else:
            out += [x, y]
    return out


def _where(k: int, count: int) -> str:
    return f"problem {k}: " if count > 1 else ""


def _validate(count, members, P, Q, D, E) -> None:
    bad = ~np.isfinite(D).all(axis=(1, 2))
    if bad.any():
        k = members[int(np.argmax(bad))]
        raise UnalignablePairError(k, f"{_where(k, count)}cost matrix contains non-finite entries")
    bad = ~((E > 0) & np.isfinite(E))
    if bad.any():
        b = int(np.argmax(bad))
        raise ValueError(f"{_where(members[b], count)}regularization strength must be "
                         f"positive and finite, got {E[b]}")
    for name, V in (("p", P), ("q", Q)):
        bad = (~np.isfinite(V).all(axis=1) | np.any(V < 0, axis=1)
               | (np.abs(V.sum(axis=1) - 1.0) > 1e-9))
        if bad.any():
            k = members[int(np.argmax(bad))]
            raise ValueError(f"{_where(k, count)}marginal {name} must be finite, "
                             "nonnegative and sum to 1")


def _solve_group(P, Q, D, E, rows, cols, sym, max_iter: int, tol: float):
    """Iterate one bucket's padded stack; returns the best potentials and
    scalings (each as one ``(B, n + m)`` array, rows first), their iteration
    and violation, and the converged flags, per problem.

    ``rows`` and ``cols`` mark the real (unpadded) entries; the scalings of
    the others start, and stay, at 0 (see :func:`_solve_groups`). ``sym``
    marks the problems equal to their own transpose.

    The state is potentials ``f, g`` and scalings ``u, v`` with plan
    ``u_i exp((f_i + g_j - D_ij) / eps) v_j``; the kernel ``K`` is the middle
    factor. An iteration is the row scaling ``u <- p / (K v)``, then the
    column scaling ``v <- q / (K^T u)`` with the new ``u``. After it the
    plan's columns ``v * K^T u`` match ``q`` to rounding, and its rows are
    ``u * K v``, where ``K v`` of the new ``v`` is also the next row step's
    product: an iteration costs one ``K v`` and one ``K^T u``.

    The start splits the costs evenly between the two sides. Columns start
    at ``g_j = (min_i D_ij + eps log q_j) / 2`` with unit scalings (0 for a
    column without mass, which so never enters a row's largest entry), and
    the first row step divides each row of the kernel by its largest entry,
    whose log it keeps in the potential ``f``, so it is exact however far a
    row lies from every column. The first column step goes half way,
    ``v <- sqrt(v * q / (K^T u))``. When a sentence restates the question,
    the two point sets nearly coincide and the kernel is nearly a
    permutation: no step moves mass between its nearly separate blocks, so
    how each block's scale is shared between ``u`` and ``v`` stays about
    where the first iteration left it, and only an even split is near the
    solution's (README, "Start"). After the first row step
    the scalings are absorbed into the potentials and the kernel is rebuilt
    (see :func:`_absorb`), and again after a column step that takes a
    nonzero scaling out of ``[1 / _BOUND, _BOUND]``.

    A problem equal to its own transpose has a symmetric solution, ``f = g``
    and ``u = v``, but an alternating step breaks the symmetry and leaves the
    blocks' shares where it broke them. Such a problem instead takes the
    averaged step of symmetric Sinkhorn (Feydy et al. 2019),
    ``u <- sqrt(u * p / (K u))``, ``v = u``, from zero potentials: its first
    step divides each row of ``exp(-D / eps)`` by its largest entry as above
    and keeps half of that factor's log in ``f = g``. Its plan is exactly
    symmetric.

    Each product multiplies a contiguous stack (``K``, or its contiguous
    transpose) by the scalings and sums its contiguous last axis, which is how
    a lone problem sums, so stacking changes no bit (see
    :func:`_solve_groups`). Every other step is elementwise, a max, or a
    reduction that does not depend on the order of its terms. Working in
    place applies the same float operations to every element, so it changes
    no bit either.
    """
    B, n, m = D.shape
    k = min(n, m)  # a symmetric problem's rows and columns lie in the first k
    e3 = E[:, None, None]
    PQ = np.concatenate([P, Q], axis=1)
    uv = np.concatenate([rows, cols & (Q > 0.0)], axis=1).astype(np.float64)
    live = uv[:, None, n:] > 0.0
    b = np.min(D, axis=1, where=rows[:, :, None], initial=np.inf)
    with np.errstate(divide="ignore"):
        g = np.where(live[:, 0] & ~sym[:, None], 0.5 * (b + E[:, None] * np.log(Q)), 0.0)
    # The first kernel is its own product buffer and is dropped before the
    # kernel of the first absorption is built.
    R = g[:, None, :] - D
    FG = np.concatenate([-np.max(R, axis=2, where=live, initial=-np.inf), g], axis=1)
    del b, g
    R += FG[:, :n, None]
    R /= e3
    _exp_masked(R, live & rows[:, :, None])
    prod = np.empty((B, n + m))  # K v, then K^T u
    _product(R, uv[:, n:], prod[:, :n], R.reshape(-1))
    del R
    any_sym = bool(sym.any())
    if any_sym:  # the half-step keeps half of the row shift on each side
        FG[sym, :n] *= 0.5
        FG[sym, n:n + k] = FG[sym, :k]
    best_FG = np.zeros((B, n + m))
    best_uv = uv.copy()
    best_iter = np.zeros(B, dtype=np.int64)
    best_viol = np.full(B, np.inf)

    # The active set: group positions of the problems still iterating, and
    # their rows of every per-problem array but the costs.
    active = np.arange(B)
    for it in range(1, max_iter + 1):
        if any_sym:
            step = PQ[:, :n] / prod[:, :n]
            step[sym] = np.sqrt(uv[sym, :n] * step[sym])
            uv[:, :n] = step
            uv[sym, n:n + k] = uv[sym, :k]
        else:
            np.divide(PQ[:, :n], prod[:, :n], out=uv[:, :n])
        if it == 1:
            FG, uv, K, Kt = _absorb(FG, uv, D, e3, n)
            scratch = np.empty(D.size)
        _product(Kt, uv[:, :n], prod[:, n:], scratch)
        steps = ~sym[:, None] if any_sym else True  # a symmetric problem keeps v = u
        np.divide(PQ[:, n:], prod[:, n:], out=uv[:, n:], where=steps)
        if it == 1:
            np.sqrt(uv[:, n:], out=uv[:, n:], where=steps)
        far = ((uv > _BOUND) | ((uv < 1.0 / _BOUND) & (uv > 0.0))).any(axis=1)
        if far.any():
            idx = np.flatnonzero(far)
            FG[idx], uv[idx], K[idx], Kt[idx] = _absorb(FG[idx], uv[idx], D[active[idx]],
                                                        e3[idx], n)
            sums = np.empty((len(idx), m))  # the absorbed plans' column sums
            _product(Kt[idx], uv[idx, :n], sums, scratch)
            prod[idx, n:] = sums
        _product(K, uv[:, n:], prod[:, :n], scratch)
        gap = uv * prod
        gap -= PQ
        viol = np.abs(gap, out=gap).max(axis=1)

        better = viol < best_viol[active]
        idx = active[better]
        best_FG[idx] = FG[better]
        best_uv[idx] = uv[better]
        best_iter[idx] = it
        best_viol[idx] = viol[better]
        done = viol <= tol
        if done.any():
            keep = ~done
            if not keep.any():
                break
            active, FG, uv, prod = active[keep], FG[keep], uv[keep], prod[keep]
            PQ, e3, sym = PQ[keep], e3[keep], sym[keep]
            any_sym = bool(sym.any())
            # One stack at a time, so only one old stack is alive with its copy;
            # the costs are only read when absorbing, by group position.
            K = K[keep]
            Kt = Kt[keep]
    # A problem retires at its first violation within tol, which is below every
    # earlier one, so its best iterate is that last one.
    return best_FG, best_uv, best_iter, best_viol, best_viol <= tol


def transport_costs(plans: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Frobenius inner products of stacked plans ``(B, n, m)`` with their costs: ``(B,)``.

    Each problem's products are summed as one contiguous run, which is how
    numpy sums a single contiguous ``(n, m)`` array.
    """
    if plans.shape != costs.shape:
        raise ValueError(f"shape mismatch: plan {plans.shape[1:]} vs cost {costs.shape[1:]}")
    return (plans * costs).reshape(len(plans), -1).sum(axis=1)


def relevant_contexts(plans: np.ndarray) -> np.ndarray:
    """Relevant-context masks ``(B, m)`` of stacked plans ``(B, n, m)``: column
    ``j`` of plan ``b`` is relevant when it is the argmax of some row.

    Ties resolve to the smallest column index.
    """
    if plans.ndim != 3 or plans.shape[1] == 0:
        raise ValueError("plan must have at least one row")
    B, _, m = plans.shape
    mask = np.zeros((B, m), dtype=bool)
    mask[np.arange(B)[:, None], plans.argmax(axis=2)] = True
    return mask


def sentence_representations(vectors: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """Means ``(B, d)`` of the rows of stacked vectors ``(B, m, d)`` that the
    masks ``(B, m)`` select.

    numpy sums the ``k`` rows of a ``(k, d)`` array left to right when
    ``d > 1`` but pairwise when ``d == 1``. So the problems are gathered by
    their count ``k`` of relevant rows into ``(B_k, k, d)`` stacks, each of
    which numpy reduces as it reduces each problem's ``(k, d)`` rows alone.
    """
    counts = relevant.sum(axis=1)
    if not counts.all():
        raise ValueError("relevant set must be nonempty")
    B, _, d = vectors.shape
    out = np.empty((B, d))
    for k in np.unique(counts):
        rows = counts == k
        out[rows] = vectors[relevant & rows[:, None]].reshape(-1, k, d).mean(axis=1)
    return out


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


@dataclass(frozen=True, eq=False)
class Alignments(Sequence):
    """The alignments of a batch of pairs, stacked: row ``k`` is pair ``k``'s.

    Indexing derives pair ``k``'s :class:`AlignmentResult` from the pair and
    its problem's row: the index tuples by :func:`content_token_indices`, a
    padding pair's plan by :func:`marginal_distribution`.
    """

    reps: np.ndarray  # (K, d) sentence representations; zero for padding
    costs: np.ndarray  # (K,) transport costs; zero for padding
    groups: list[PlanGroup]  # the problems of the non-padding pairs, by shape
    locate: np.ndarray  # (K, 2) group and row of each pair's problem; -1 for padding
    pairs: list[tuple]  # the pairs as given
    ft: FrequencyTable

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        question, s, _, _ = self.pairs[k]
        g, b = self.locate[k]
        if g < 0:
            p = marginal_distribution(content_tokens(question), self.ft)
            plan = TransportPlan(plan=p[:, None], iterations_used=0, converged=True,
                                 violation=0.0)
            relevant = s_idx = (0,)
        else:
            grp = self.groups[g]
            plan = grp.plan(b)
            relevant = tuple(np.flatnonzero(relevant_contexts(grp.plans[b:b + 1])[0]).tolist())
            s_idx = tuple(content_token_indices(s))
        return AlignmentResult(plan=plan, cost=float(self.costs[k]), relevant=relevant,
                               representation=self.reps[k],
                               question_token_indices=tuple(content_token_indices(question)),
                               sentence_token_indices=s_idx)


def align_sentences(pairs, ft: FrequencyTable, settings: SinkhornSettings = SinkhornSettings()
                    ) -> Alignments:
    """Align a batch of ``(question, sentence, question_vectors, sentence_vectors)``
    pairs, solving every transport problem in one batch.

    Per pair: filters both token lists, builds frequency marginals and the
    Euclidean cost, solves at ``eps = eps_scale * mean(D)``, and pools the
    relevant-context embeddings into the sentence representation. Both sides
    are prepared alike, the one check of a pair's inputs: each has its
    vector count checked, its content indices taken and its content words
    numbered, a question once per question object and vector array, a
    sentence once per pair. The rest runs on one stack per exact ``(n, m)``
    shape:

    - its content rows are gathered from the vectors as given (say, float32
      views of a store's bytes) into float64 ``(B, m, d)`` sentence and
      ``(B, n, d)`` question stacks, which is exact; a question's rows are
      gathered once per run of consecutive pairs that share it. The sentence
      stack is the cost build's sentence side and, after the solve, what
      pooling reads; it is dropped once pooled. The question stack is built
      once the sentence stack is filled and lives only through the cost
      build;
    - its marginals are one ``(B, n)`` and one ``(B, m)`` gather of smoothed
      counts, each distinct word looked up in ``ft`` once per call, divided
      by their row sums. A row of a contiguous ``(B, m)`` array sums as a
      lone ``(m,)`` array does, so each row is bit-equal to
      :func:`marginal_distribution` of its words;
    - one :func:`cost_matrix` call builds its costs, one row mean its
      ``eps``, :func:`_solve_groups` solves it, and relevant contexts, costs
      and pooling run on its stacked plans.

    So every result is bit-equal to building and solving each pair alone.

    Padding sentences short-circuit: zero cost, zero representation, and the
    single padding token as relevant context.

    A pair that cannot be aligned raises :class:`UnalignablePairError` with
    its position in ``pairs`` and its side at fault: for a vector count, the
    side checked (the question first); for a non-finite cost, the question
    if its content rows hold NaN or inf, else the sentence. An unconverged
    warning names the position too. All pairs need one vector dimension.
    An ``eps_scale`` whose ``eps`` overflows for finite costs, or whose plans
    come out non-finite, raises :class:`~otrank.errors.EpsScaleError`.
    """
    pairs = list(pairs)
    words: dict[str, int] = {}  # the distinct content words of both sides, numbered

    def prepare(k: int, what: str, sent: Sentence, vectors):
        """The vectors as given, content indices and content word numbers of one side."""
        vecs = np.asarray(vectors)
        if vecs.shape[0] != len(sent.tokens):
            raise UnalignablePairError(k, f"{what} has {len(sent.tokens)} tokens but "
                                       f"{vecs.shape[0]} vectors", what == "question")
        idx = tuple(content_token_indices(sent))
        if not idx:
            raise ValueError(f"{what} has no tokens to align")
        return vecs, idx, [words.setdefault(sent.tokens[j].normalized, len(words)) for j in idx]

    # Keyed on the objects' ids; ``pairs`` holds the objects, so no id is reused.
    prepared: dict[tuple[int, int], tuple] = {}
    # Per exact (n, m) shape: each pair's position and its two prepared sides.
    by_shape: dict[tuple[int, int], list[tuple]] = {}
    for k, (question, s, question_vectors, sentence_vectors) in enumerate(pairs):
        key = (id(question), id(question_vectors))
        if key not in prepared:
            prepared[key] = prepare(k, "question", question, question_vectors)
        if not s.is_padding:
            q, side = prepared[key], prepare(k, "sentence", s, sentence_vectors)
            by_shape.setdefault((len(q[1]), len(side[1])), []).append((k, q, side))
    dims = ({q[0].shape[1] for q in prepared.values()}
            | {side[0].shape[1] for members in by_shape.values() for _, _, side in members})
    if len(dims) > 1:
        raise ValueError(f"pairs of one batch need one vector dimension, got {sorted(dims)}")
    d = dims.pop() if dims else 0
    weights = np.array([ft.smoothed(word) for word in words], dtype=np.float64)

    def rows(sides, length: int) -> np.ndarray:
        # A run of one side (a question that consecutive pairs share) is
        # gathered once and broadcast over its rows.
        out = np.empty((len(sides), length, d))
        lo = 0
        for hi in range(1, len(sides) + 1):
            if hi == len(sides) or sides[hi] is not sides[lo]:
                vecs, idx, _ = sides[lo]
                out[lo:hi] = vecs[list(idx)]
                lo = hi
        return out

    def marginals(sides) -> np.ndarray:
        W = weights[np.array([numbers for _, _, numbers in sides])]
        return W / W.sum(axis=1, keepdims=True)

    stacks, content = [], []
    for (n, m), members in by_shape.items():
        ks, qs, ss = zip(*members)
        ks = np.array(ks)
        Y = rows(ss, m)
        D = cost_matrix(rows(qs, n), Y)
        with np.errstate(over="ignore"):  # an eps that overflows raises below
            E = settings.eps_scale * D.reshape(len(ks), -1).mean(axis=1)
        E[~(E > 0)] = 1e-12  # degenerate all-identical embeddings; any eps gives the outer product
        # A non-finite cost can make eps non-finite too; the solve blames its vectors.
        if not np.isfinite(E).all() and np.isfinite(D).all():
            raise EpsScaleError(f"sinkhorn eps_scale = {settings.eps_scale} makes the "
                                "regularization strength eps = eps_scale * mean(cost) overflow")
        stacks.append((ks, marginals(qs), marginals(ss), D, E))
        content.append(Y)
    count = len(pairs)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # plans checked below
            groups = _solve_groups(stacks, count, settings.max_iter, settings.tol)
    except UnalignablePairError as exc:
        question, _, question_vectors, _ = pairs[exc.index]
        vecs, idx, _ = prepared[(id(question), id(question_vectors))]
        side = "sentence" if np.isfinite(vecs[list(idx)]).all() else "question"
        raise UnalignablePairError(exc.index, f"{side} vectors give a non-finite transport cost",
                                   side == "question") from None
    del stacks  # the groups keep the costs; the marginals need not outlive the solve

    reps = np.zeros((count, d))
    costs = np.zeros(count)
    locate = np.full((count, 2), -1)
    for g, grp in enumerate(groups):
        if not np.isfinite(grp.plans).all():
            raise EpsScaleError(f"sinkhorn eps_scale = {settings.eps_scale} is below the "
                                "solver's range for these costs: its plans hold NaN or inf")
        costs[grp.members] = transport_costs(grp.plans, grp.costs)
        reps[grp.members] = sentence_representations(content[g], relevant_contexts(grp.plans))
        content[g] = None  # pooled: the shape's content rows are not read again
        locate[grp.members, 0] = g
        locate[grp.members, 1] = np.arange(len(grp.members))
    return Alignments(reps, costs, groups, locate, pairs, ft)
