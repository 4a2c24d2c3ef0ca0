"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with plain Python loops, scalars,
and exact rational arithmetic where possible, never reusing the library's
vectorized code paths.
"""

from __future__ import annotations

import itertools
import logging
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# Distances, transport, pooling
# ---------------------------------------------------------------------------


def euclidean_cost_oracle(X, Y):
    out = [[0.0] * len(Y) for _ in range(len(X))]
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            out[i][j] = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    return out


def transport_cost_oracle(plan, D):
    total = 0.0
    for i in range(len(D)):
        for j in range(len(D[0])):
            total += plan[i][j] * D[i][j]
    return total


def mean_oracle(vectors, idx):
    chosen = [vectors[i] for i in idx]
    return [sum(col) / len(chosen) for col in zip(*chosen)]


# The per-pair cost build (its arithmetic, without its input checks) and
# post-solve functions as they stood before the stacked passes, kept verbatim:
# the stacked operations must reproduce them bit for bit.


def cost_matrix_per_pair(X, Y) -> np.ndarray:
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def transport_cost_per_pair(plan, D) -> float:
    plan = np.asarray(plan, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if plan.shape != D.shape:
        raise ValueError(f"shape mismatch: plan {plan.shape} vs cost {D.shape}")
    return float(np.sum(plan * D))


def relevant_context_per_pair(plan) -> list[int]:
    plan = np.asarray(plan)
    if plan.ndim != 2 or plan.shape[0] == 0:
        raise ValueError("plan must have at least one row")
    return sorted({int(np.argmax(row)) for row in plan})


def sentence_representation_per_pair(sentence_embeddings, relevant):
    vecs = np.asarray(sentence_embeddings, dtype=np.float64)
    idx = list(relevant)
    if not idx:
        raise ValueError("relevant set must be nonempty")
    if min(idx) < 0 or max(idx) >= vecs.shape[0]:
        raise ValueError("relevant index out of range")
    return vecs[idx].mean(axis=0)


def lp_transport_oracle(p, q, D) -> float:
    """Exact optimal transport cost via enumeration of basic feasible solutions.

    Vertices of the transportation polytope are supported on at most
    n + m - 1 cells; every such support whose basic solution is feasible is
    a candidate vertex, and a linear objective attains its optimum at one of
    them.
    """
    D = np.asarray(D, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, m = D.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    nb = n + m - 1
    b = np.concatenate([p, q])[:-1]  # the last constraint is redundant
    best = math.inf
    for basis in itertools.combinations(range(n * m), nb):
        A = np.zeros((nb, nb))
        for k, cell in enumerate(basis):
            i, j = cells[cell]
            A[i, k] = 1.0
            if n + j < n + m - 1:
                A[n + j, k] += 1.0
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        plan = np.zeros((n, m))
        for k, cell in enumerate(basis):
            plan[cells[cell]] = x[k]
        if np.max(np.abs(plan.sum(1) - p)) > 1e-7 or np.max(np.abs(plan.sum(0) - q)) > 1e-7:
            continue
        best = min(best, float((plan * D).sum()))
    return best


# ---------------------------------------------------------------------------
# Per-problem Sinkhorn loops
# ---------------------------------------------------------------------------


def _logsumexp_rows_loop(M):
    mx = np.max(M, axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return safe + np.log(np.sum(np.exp(M - safe[:, None]), axis=1))


def sinkhorn_plan_loop(p, q, D, eps, max_iter=500, tol=1e-6):
    """The damped simultaneous half-step solver that alternating Sinkhorn
    replaced, kept verbatim as a witness of the old path: the library must
    reach the same limit in at most half its iterations.

    Returns ``(plan, iterations_used, converged, best_violation)``, and logs
    one warning on the ``oracles`` logger when the budget runs out.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    n, m = D.shape
    with np.errstate(divide="ignore"):
        lp = np.log(p)
        lq = np.log(q)
    Dt = D.T
    f = np.zeros(n)
    g = np.zeros(m)

    def build(a, b, C):
        return np.exp((a[:, None] + b[None, :] - C) / eps)

    best_viol = np.inf
    best_plan = build(f, g, D)
    best_iter = 0
    for it in range(1, max_iter + 1):
        f_new = 0.5 * (f + eps * lp - eps * _logsumexp_rows_loop((g[None, :] - D) / eps))
        g_new = 0.5 * (g + eps * lq - eps * _logsumexp_rows_loop((f[None, :] - Dt) / eps))
        f, g = f_new, g_new
        plan = build(f, g, D)
        plan_t = build(g, f, Dt)
        viol = max(
            np.max(np.abs(plan.sum(axis=1) - p)),
            np.max(np.abs(plan_t.sum(axis=1) - q)),
        )
        if viol < best_viol:
            best_viol, best_plan, best_iter = viol, plan, it
        if viol <= tol:
            return plan, it, True, viol
    logging.getLogger("oracles").warning(
        "sinkhorn did not converge in %d iterations (best violation %.3e)", max_iter, best_viol
    )
    return best_plan, best_iter, False, best_viol


def _warn_unconverged(max_iter, best_viol):
    logging.getLogger("oracles").warning(
        "sinkhorn did not converge in %d iterations (best violation %.3e)", max_iter, best_viol
    )


def _canonical(loop):
    """``loop`` run in a problem's canonical orientation, its shorter side as
    rows: a square problem is transposed when the bytes of ``(q, D^T)`` sort
    before those of ``(p, D)``. A transposed problem's plan is transposed back.
    ``loop`` is told whether the problem equals its own transpose."""

    def solve(p, q, D, eps, max_iter=500, tol=1e-6):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        D = np.ascontiguousarray(D, dtype=np.float64)
        n, m = D.shape
        X, Y = p.tobytes() + D.tobytes(), q.tobytes() + D.T.tobytes()
        if n > m or (n == m and Y < X):
            plan, iterations, converged, violation = loop(
                q, p, np.ascontiguousarray(D.T), eps, max_iter, tol, False)
            return plan.T, iterations, converged, violation
        return loop(p, q, D, eps, max_iter, tol, n == m and X == Y)

    solve.__doc__ = loop.__doc__
    return solve


@_canonical
def sinkhorn_log_loop(p, q, D, eps, max_iter, tol, sym):
    """Alternating Sinkhorn in the log domain, one problem at a time, in the
    canonical orientation: ``f <- eps log p - eps LSE_j((g_j - D_ij) / eps)``,
    then ``g`` from the new ``f``, from ``g_j = (min_i D_ij + eps log q_j) / 2``
    (``-inf`` where ``q_j = 0``); the first ``g`` step goes half way. A
    problem equal to its own transpose (``sym``) instead takes the symmetric
    half-step ``f <- (f + eps log p - eps LSE_j((f_j - D_ij) / eps)) / 2``,
    ``g = f``, from ``f = 0``. Same returns and warning as
    :func:`sinkhorn_plan_loop`.
    """
    n, m = D.shape
    with np.errstate(divide="ignore"):
        lp = np.log(p)
        lq = np.log(q)
    f = np.zeros(n)
    g = np.zeros(m) if sym else np.where(q > 0, 0.5 * (D.min(axis=0) + eps * lq), -np.inf)

    def build(f, g):
        return np.exp((f[:, None] + g[None, :] - D) / eps)

    best_viol = np.inf
    best_plan = build(f, g)
    best_iter = 0
    for it in range(1, max_iter + 1):
        if sym:
            f = 0.5 * (f + eps * lp - eps * _logsumexp_rows_loop((f[None, :] - D) / eps))
            g = f
        else:
            f = eps * lp - eps * _logsumexp_rows_loop((g[None, :] - D) / eps)
            step = eps * lq - eps * _logsumexp_rows_loop((f[None, :] - D.T) / eps)
            g = 0.5 * (g + step) if it == 1 else step
        plan = build(f, g)
        viol = max(np.max(np.abs(plan.sum(axis=1) - p)), np.max(np.abs(plan.sum(axis=0) - q)))
        if viol < best_viol:
            best_viol, best_plan, best_iter = viol, plan, it
        if viol <= tol:
            return plan, it, True, viol
    _warn_unconverged(max_iter, best_viol)
    return best_plan, best_iter, False, best_viol


# The kernel-domain solver's constants, frozen with the loop below.
_KERNEL_BOUND = 1e50
_KERNEL_FLOOR = -2.0 * np.log(_KERNEL_BOUND)
_KERNEL_DEFICIT = 2.0 * (np.log(np.finfo(np.float64).tiny) + np.log(_KERNEL_BOUND))


def _kernel_absorb(f, g, u, v, D, eps):
    """Fold the nonzero scalings into the potentials and rebuild the kernel.
    A potential whose live row (column) of the log kernel peaks below the
    deficit bound is raised to it; then a live row (column) peaking below the
    floor keeps half of its peak in its scaling."""
    live_u, live_v = u > 0, v > 0
    with np.errstate(divide="ignore"):
        f = np.where(live_u, f + eps * np.log(u), f)
        g = np.where(live_v, g + eps * np.log(v), g)
    L = (f[:, None] + g[None, :] - D) / eps
    live = live_u[:, None] & live_v[None, :]

    def peaks(L):
        masked = np.where(live, L, -np.inf)
        return masked.max(axis=1), masked.max(axis=0)

    row_top, col_top = peaks(L)
    r = np.where(live_u & (row_top < _KERNEL_DEFICIT), _KERNEL_DEFICIT - row_top, 0.0)
    c = np.where(live_v & (col_top < _KERNEL_DEFICIT), _KERNEL_DEFICIT - col_top, 0.0)
    if r.any() or c.any():
        f, g = f + eps * r, g + eps * c
        L = L + (r[:, None] + c[None, :])
        row_top, col_top = peaks(L)
    s = np.where(live_u & (row_top < _KERNEL_FLOOR), 0.5 * row_top, 0.0)
    t = np.where(live_v & (col_top < _KERNEL_FLOOR), 0.5 * col_top, 0.0)
    K = np.exp(np.where(live, L - (s[:, None] + t[None, :]), 0.0))
    return (f - eps * s, g - eps * t, np.where(s < 0, np.exp(s), np.where(live_u, 1.0, 0.0)),
            np.where(t < 0, np.exp(t), np.where(live_v, 1.0, 0.0)), K)


def _out_of_bound(x):
    return bool(((x > _KERNEL_BOUND) | ((x < 1.0 / _KERNEL_BOUND) & (x > 0))).any())


@_canonical
def sinkhorn_kernel_loop(p, q, D, eps, max_iter, tol, sym):
    """The kernel-domain solver with absorption, one problem at a time.

    The batched solver must reproduce it bit for bit. Same returns and
    warning as :func:`sinkhorn_log_loop`, whose trajectory it follows up to
    rounding: the plan is ``u_i exp((f_i + g_j - D_ij) / eps) v_j`` and an
    iteration is ``u <- p / (K v)``, then ``v <- q / (K^T u)``. The columns
    start at ``g_j = (min_i D_ij + eps log q_j) / 2`` with unit scalings (0
    where ``q_j = 0``), the first row step divides each row of the kernel by
    its largest entry, and the first column step is ``v <- sqrt(q / (K^T u))``.
    A problem equal to its own transpose (``sym``) iterates
    ``u <- sqrt(u * p / (K v))``, ``v = u``, from ``f = g`` half the row
    minima of ``D``. The first row step is absorbed, and so is any step that
    leaves a scaling out of bounds.
    """
    n, m = D.shape
    g = np.zeros(m)
    if not sym:
        with np.errstate(divide="ignore"):
            g = np.where(q > 0, 0.5 * (D.min(axis=0) + eps * np.log(q)), 0.0)
    L = g[None, :] - D
    a = np.where(q[None, :] > 0, -L, np.inf).min(axis=1)
    K = np.exp(np.where(q[None, :] > 0, (L + a[:, None]) / eps, 0.0))
    f = 0.5 * a if sym else a
    g = f if sym else g
    u, v = np.ones(n), np.where(q > 0, 1.0, 0.0)
    Kv = (K * v[None, :]).sum(axis=1)

    def plan_of(f, g, u, v):
        w = u[:, None] * v[None, :]
        return np.exp(np.where(w > 0, (f[:, None] + g[None, :] - D) / eps, 0.0)) * w

    best_viol = np.inf
    best = (np.zeros(n), np.zeros(m), u, v)
    best_iter = 0
    for it in range(1, max_iter + 1):
        u = np.sqrt(u * (p / Kv)) if sym else p / Kv
        if sym:
            v = u
        if it == 1:
            f, g, u, v, K = _kernel_absorb(f, g, u, v, D, eps)
            Kt = np.ascontiguousarray(K.T)
        Ktu = (Kt * u[None, :]).sum(axis=1)
        if not sym:
            v = np.sqrt(q / Ktu) if it == 1 else q / Ktu
        if _out_of_bound(u) or _out_of_bound(v):
            f, g, u, v, K = _kernel_absorb(f, g, u, v, D, eps)
            Kt = np.ascontiguousarray(K.T)
            Ktu = (Kt * u[None, :]).sum(axis=1)
        Kv = (K * v[None, :]).sum(axis=1)
        viol = max(np.max(np.abs(u * Kv - p)), np.max(np.abs(v * Ktu - q)))
        if viol < best_viol:
            best_viol, best, best_iter = viol, (f, g, u, v), it
        if viol <= tol:
            return plan_of(f, g, u, v), it, True, viol
    _warn_unconverged(max_iter, best_viol)
    return plan_of(*best), best_iter, False, best_viol


def reference_window_features(question, window, instance_id, store, ft, settings):
    """One window's ``(reps, costs, unconverged)``, aligned sentence by sentence.

    The per-window extraction as it stood before batching, now on
    :func:`sinkhorn_kernel_loop`, with the per-pair cost build and post-solve
    functions above. It reuses the library's token filtering and marginals,
    which the batched extractor must call with the same inputs; each has its
    own oracle test.
    """
    from otrank.corpus import content_token_indices
    from otrank.embeddings import QUESTION_WINDOW_ID, marginal_distribution

    q_vecs = np.asarray(store.stored_vectors(instance_id, QUESTION_WINDOW_ID, "q"), np.float64)
    q_idx = content_token_indices(question)
    p = marginal_distribution([question.tokens[i] for i in q_idx], ft)
    reps = np.zeros((3, store.dim))
    costs = np.zeros(3)
    unconverged = 0
    for row, (sent, role) in enumerate(((window.cand, "c"), (window.prev, "p"),
                                        (window.next, "n"))):
        if sent.is_padding:
            continue
        s_vecs = np.asarray(store.stored_vectors(instance_id, window.id, role), np.float64)
        s_idx = content_token_indices(sent)
        s_pts = s_vecs[s_idx]
        D = cost_matrix_per_pair(q_vecs[q_idx], s_pts)
        eps = settings.eps_scale * float(D.mean())
        if not (eps > 0):
            eps = 1e-12
        q = marginal_distribution([sent.tokens[j] for j in s_idx], ft)
        plan, _, converged, _ = sinkhorn_kernel_loop(p, q, D, eps, settings.max_iter,
                                                       settings.tol)
        rel = relevant_context_per_pair(plan)
        reps[row] = sentence_representation_per_pair(s_pts, rel)
        costs[row] = transport_cost_per_pair(plan, D)
        unconverged += 0 if converged else 1
    return reps, costs, unconverged


# ---------------------------------------------------------------------------
# Scalar feed-forward pieces
# ---------------------------------------------------------------------------


def ffn_scalar_oracle(x, w1, b1, w2, b2) -> float:
    hidden = []
    for k in range(len(b1)):
        z = b1[k]
        for t in range(len(x)):
            z += w1[k][t] * x[t]
        hidden.append(z if z > 0 else 0.0)
    out = b2[0]
    for k in range(len(hidden)):
        out += w2[0][k] * hidden[k]
    return out


def softmax_oracle(row):
    mx = max(row)
    exps = [math.exp(v - mx) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def sigmoid_oracle(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def discriminator_oracle(h_i, h_j, disc) -> float:
    """The regularizer's pair probability U(h_i, h_j): sigmoid FFN on [h_i; h_j].

    Clamped away from exactly 0 and 1, so its logs stay finite.
    """
    x = np.concatenate([np.asarray(h_i, dtype=np.float64), np.asarray(h_j, dtype=np.float64)])
    a1 = np.maximum(disc.w1 @ x + disc.b1, 0.0)
    z = float((disc.w2 @ a1 + disc.b2)[0])
    return min(max(sigmoid_oracle(z), 1e-300), 1.0 - 1e-16)


# ---------------------------------------------------------------------------
# Straight-line scalar recomputation of the whole window scoring pipeline
# ---------------------------------------------------------------------------


def _lse(values):
    mx = max(values)
    if not math.isfinite(mx):
        mx = 0.0
    return mx + math.log(sum(math.exp(v - mx) for v in values))


def scalar_sinkhorn(p, q, D, eps, max_iter, tol):
    n, m = len(p), len(q)
    lp = [math.log(v) if v > 0 else -math.inf for v in p]
    lq = [math.log(v) if v > 0 else -math.inf for v in q]
    f = [0.0] * n
    g = [0.0] * m

    def plan_of(fv, gv):
        return [
            [math.exp((fv[i] + gv[j] - D[i][j]) / eps) for j in range(m)] for i in range(n)
        ]

    best_viol, best_plan = math.inf, plan_of(f, g)
    for _ in range(max_iter):
        f = [eps * lp[i] - eps * _lse([(g[j] - D[i][j]) / eps for j in range(m)])
             for i in range(n)]
        g = [eps * lq[j] - eps * _lse([(f[i] - D[i][j]) / eps for i in range(n)])
             for j in range(m)]
        plan = plan_of(f, g)
        viol = 0.0
        for i in range(n):
            viol = max(viol, abs(sum(plan[i]) - p[i]))
        for j in range(m):
            viol = max(viol, abs(sum(plan[i][j] for i in range(n)) - q[j]))
        if viol < best_viol:
            best_viol, best_plan = viol, plan
        if viol <= tol:
            return plan
    return best_plan


def scalar_align(q_tokens, q_vectors, s_tokens, s_vectors, is_padding, freq_counts,
                 eps_scale, max_iter, tol):
    """Scalar replay of one sentence alignment.

    ``*_tokens`` are (normalized, is_content) pairs; ``freq_counts`` maps
    normalized words to raw question counts (smoothing applied here).
    Returns (cost, representation list).
    """

    def content_idx(tokens):
        kept = [i for i, (_, c) in enumerate(tokens) if c]
        return kept if kept else list(range(len(tokens)))

    def marginal(tokens, idx):
        w = [max(freq_counts.get(tokens[i][0], 0), 1) for i in idx]
        s = sum(w)
        return [v / s for v in w]

    q_idx = content_idx(q_tokens)
    d = len(q_vectors[0])
    if is_padding:
        return 0.0, [0.0] * d
    s_idx = content_idx(s_tokens)
    X = [q_vectors[i] for i in q_idx]
    Y = [s_vectors[j] for j in s_idx]
    D = euclidean_cost_oracle(X, Y)
    mean_d = sum(sum(row) for row in D) / (len(X) * len(Y))
    eps = eps_scale * mean_d
    if not eps > 0:
        eps = 1e-12
    plan = scalar_sinkhorn(marginal(q_tokens, q_idx), marginal(s_tokens, s_idx),
                           D, eps, max_iter, tol)
    cost = transport_cost_oracle(plan, D)
    relevant = sorted({max(range(len(row)), key=lambda j: (row[j], -j)) for row in plan})
    rep = mean_oracle(Y, relevant)
    return cost, rep


def scalar_score_window(reps, costs, dep, gcn_layers, head):
    """Scalar replay of de scoring stage from alignment features.

    ``dep``/``head`` are (w1, b1, w2, b2) nested lists; ``gcn_layers`` is a
    list of (w, b). Returns (p, final representations).
    """
    d = len(reps[0])
    u = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            x = [reps[i][t] * reps[j][t] for t in range(d)] + [costs[i], costs[j]]
            u[i][j] = ffn_scalar_oracle(x, *dep)
    alpha = [softmax_oracle(row) for row in u]

    h = [list(r) for r in reps]
    for w, b in gcn_layers:
        agg = [[sum(alpha[i][j] * h[j][t] for j in range(3)) for t in range(d)]
               for i in range(3)]
        nxt = []
        for i in range(3):
            row = []
            for k in range(d):
                z = b[k]
                for t in range(d):
                    z += w[k][t] * agg[i][t]
                row.append(z if z > 0 else 0.0)
            nxt.append(row)
        h = nxt

    z = ffn_scalar_oracle(h[0], *head)
    p = sigmoid_oracle(z)
    p = min(max(p, 1e-300), 1.0 - 1e-16)
    return p, h


# ---------------------------------------------------------------------------
# Ranking metrics, straight from the definitions
# ---------------------------------------------------------------------------


def ap_oracle(ranked_labels) -> float:
    total = sum(1 for lab in ranked_labels if lab)
    acc = Fraction(0)
    hits = 0
    for k, lab in enumerate(ranked_labels, start=1):
        if lab:
            hits += 1
            acc += Fraction(hits, k)
    return float(acc / total)


def rr_oracle(ranked_labels) -> float:
    for k, lab in enumerate(ranked_labels, start=1):
        if lab:
            return float(Fraction(1, k))
    raise AssertionError("needs a positive label")


def p1_oracle(ranked_labels) -> int:
    return int(bool(ranked_labels[0]))


# ---------------------------------------------------------------------------
# Frozen per-window training step and scorer
# ---------------------------------------------------------------------------
#
# The forward pass, the regularizer and the hand-written backward pass as they
# stood before batching, kept verbatim apart from their names: one window at a
# time, one ``+=`` per window and tensor. The stacked training step and scorer
# must reproduce them bit for bit at the shipped shapes (d=16 and d=768 with
# hidden 400) and to rounding elsewhere. They read one ``Window`` record per window.


class Window(NamedTuple):
    """One window's features, labels as ``True``/``False``/``None`` in node order.

    Only ``True`` marks an answer; ``None`` (unknown) counts as a non-answer.
    """

    reps: np.ndarray  # (3, d)
    costs: np.ndarray  # (3,)
    labels: tuple


def feature_set(windows):
    """The library's stacked ``FeatureSet`` of a nonempty list of ``Window`` records."""
    from otrank.model import FeatureSet

    return FeatureSet(reps=np.stack([w.reps for w in windows]),
                      costs=np.stack([w.costs for w in windows]),
                      labels=np.array([[bool(lab) for lab in w.labels] for w in windows]))


def window_records(feats):
    """The ``Window`` records of a ``FeatureSet``, with its answer mask as labels."""
    return [Window(feats.reps[k], feats.costs[k], tuple(feats.labels[k].tolist()))
            for k in range(len(feats))]


def pair_sets_oracle(labels):
    """One window's ordered node pairs as ``(positive, negative)`` tuples.

    Positives are the answer/answer pairs without self-pairs, negatives the
    answer/other pairs, each in row-major order over the nodes. A true label
    (``True`` or a set mask bit) is an answer; ``False`` and ``None`` are not.
    """
    answers = [i for i, lab in enumerate(labels) if lab]
    others = [i for i, lab in enumerate(labels) if not lab]
    positive = tuple((i, j) for i in answers for j in answers if i != j)
    negative = tuple((i, j) for i in answers for j in others)
    return positive, negative


class _Record:
    def __init__(self, **fields):
        self.__dict__.update(fields)


def _sigmoid_loop(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce_from_logit_loop(z, label):
    return float(np.logaddexp(0.0, -z) if label else np.logaddexp(0.0, z))


def window_forward_loop(feats, params):
    """One window's scoring pass with every intermediate recorded."""
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
    aggregated = []
    pre = []
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
    p = min(max(float(_sigmoid_loop(logit)), 1e-300), 1.0 - 1e-16)

    return _Record(
        x_pairs=x_pairs, z1_dep=z1_dep, a1_dep=a1_dep, u=u, alpha=alpha,
        aggregated=aggregated, pre=pre, hs=hs, head_z1=head_z1, head_a1=head_a1,
        logit=logit, p=p, loss_as2=_bce_from_logit_loop(logit, feats.labels[0]),
    )


def mi_forward_loop(h, sets, disc):
    """One window's regularizer term with its intermediates, from the
    ``(positive, negative)`` pairs of :func:`pair_sets_oracle`."""
    positive, negative = sets
    pairs = positive + negative
    d = h.shape[1]
    if not pairs:
        empty = np.zeros((0, 0))
        return _Record(pairs=(), n_positive=0, x=np.zeros((0, 2 * d)),
                       z1=empty, a1=empty, z=np.zeros(0), loss=0.0)
    x = np.stack([np.concatenate([h[i], h[j]]) for i, j in pairs])
    z1 = x @ disc.w1.T + disc.b1
    a1 = np.maximum(z1, 0.0)
    z = a1 @ disc.w2.T[:, 0] + disc.b2[0]
    n_pos = len(positive)
    loss = float(np.logaddexp(0.0, -z[:n_pos]).sum() + np.logaddexp(0.0, z[n_pos:]).sum())
    return _Record(pairs=pairs, n_positive=n_pos, x=x, z1=z1, a1=a1, z=z, loss=loss)


def mi_backward_loop(fwd, disc, scale, grads, dh):
    if not fwd.pairs:
        return
    n_pos = fwd.n_positive
    sig = _sigmoid_loop(fwd.z)
    dz = np.empty_like(fwd.z)
    dz[:n_pos] = sig[:n_pos] - 1.0
    dz[n_pos:] = sig[n_pos:]
    dz *= scale

    grads["disc.w2"] += (dz @ fwd.a1)[None, :]
    grads["disc.b2"] += dz.sum(keepdims=True)
    da1 = dz[:, None] * disc.w2[0][None, :]
    dz1 = da1 * (fwd.z1 > 0)
    grads["disc.w1"] += dz1.T @ fwd.x
    grads["disc.b1"] += dz1.sum(axis=0)

    dx = dz1 @ disc.w1
    d = dh.shape[1]
    for k, (i, j) in enumerate(fwd.pairs):
        dh[i] += dx[k, :d]
        dh[j] += dx[k, d:]


def forward_losses_loop(batch, params, gamma):
    """Forward every window; returns (fwd records, mi records, as2 mean, mi mean)."""
    fwds = [window_forward_loop(f, params) for f in batch]
    as2 = float(np.mean([f.loss_as2 for f in fwds]))
    if gamma == 0.0:
        return fwds, None, as2, 0.0
    mis = [
        mi_forward_loop(fwd.hs[-1], pair_sets_oracle(f.labels), params.disc)
        for f, fwd in zip(batch, fwds)
    ]
    return fwds, mis, as2, float(np.mean([m.loss for m in mis]))


def window_backward_loop(feats, params, fwd, mi_fwd, s_as2, s_mi, grads):
    """Accumulate one window's gradient contribution into ``grads``."""
    h_final = fwd.hs[-1]
    dh = np.zeros_like(h_final)

    y = 1.0 if feats.labels[0] else 0.0
    dlogit = s_as2 * (float(_sigmoid_loop(fwd.logit)) - y)
    grads["head.w2"] += dlogit * fwd.head_a1[None, :]
    grads["head.b2"] += dlogit
    da1 = dlogit * params.head.w2[0]
    dz1 = da1 * (fwd.head_z1 > 0)
    grads["head.w1"] += np.outer(dz1, h_final[0])
    grads["head.b1"] += dz1
    dh[0] += params.head.w1.T @ dz1

    if mi_fwd is not None and s_mi != 0.0:
        mi_backward_loop(mi_fwd, params.disc, s_mi, grads, dh)

    dalpha = np.zeros((3, 3))
    for l in range(len(params.gcn) - 1, -1, -1):
        layer = params.gcn[l]
        dz = dh * (fwd.pre[l] > 0)
        grads[f"gcn.{l}.w"] += dz.T @ fwd.aggregated[l]
        grads[f"gcn.{l}.b"] += dz.sum(axis=0)
        ds = dz @ layer.w
        dalpha += ds @ fwd.hs[l].T
        dh = fwd.alpha.T @ ds

    du = fwd.alpha * (dalpha - np.sum(dalpha * fwd.alpha, axis=1, keepdims=True))

    du9 = du.reshape(9)
    grads["dep.w2"] += (du9 @ fwd.a1_dep)[None, :]
    grads["dep.b2"] += du9.sum()
    da1_dep = du9[:, None] * params.dep.w2[0][None, :]
    dz1_dep = da1_dep * (fwd.z1_dep > 0)
    grads["dep.w1"] += dz1_dep.T @ fwd.x_pairs
    grads["dep.b1"] += dz1_dep.sum(axis=0)


def named_tensors(params):
    """Every trainable tensor of ``params`` by name, in declaration order, read
    from its fields."""
    out = {f"dep.{k}": getattr(params.dep, k) for k in ("w1", "b1", "w2", "b2")}
    for l, layer in enumerate(params.gcn):
        out[f"gcn.{l}.w"] = layer.w
        out[f"gcn.{l}.b"] = layer.b
    for name in ("head", "disc"):
        out.update({f"{name}.{k}": getattr(getattr(params, name), k)
                    for k in ("w1", "b1", "w2", "b2")})
    return out


def loss_and_gradients_loop(batch, params, cfg):
    """Joint loss and every gradient tensor, window after window."""
    if not batch:
        raise ValueError("batch must be nonempty")
    fwds, mis, as2, mi = forward_losses_loop(batch, params, cfg.gamma)
    loss = as2 if cfg.gamma == 0.0 else as2 + cfg.gamma * mi
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} on a batch of {len(batch)} windows")
    grads = {name: np.zeros_like(t) for name, t in named_tensors(params).items()}
    s_as2 = 1.0 / len(batch)
    s_mi = cfg.gamma / len(batch)
    for k, (feats, fwd) in enumerate(zip(batch, fwds)):
        window_backward_loop(feats, params, fwd, None if mis is None else mis[k],
                             s_as2, s_mi, grads)
    return loss, grads


def adam_step_loop(params, grads, m, v, t, cfg):
    """Adam's step ``t`` (counted from 1), tensor by tensor and in place, on the
    named tensors ``params`` with the named gradients ``grads`` and moments
    ``m`` and ``v``."""
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, theta in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        theta -= cfg.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.adam_eps)
