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
# Frozen per-problem Sinkhorn loop
# ---------------------------------------------------------------------------


def _logsumexp_rows_loop(M):
    mx = np.max(M, axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return safe + np.log(np.sum(np.exp(M - safe[:, None]), axis=1))


def sinkhorn_plan_loop(p, q, D, eps, max_iter=500, tol=1e-6):
    """The single-problem solver as it stood before batching, kept verbatim.

    The batched solver must reproduce it bit for bit. Returns
    ``(plan, iterations_used, converged, best_violation)``, and logs one
    warning on the ``oracles`` logger when the budget runs out.
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


def reference_window_features(question, window, instance_id, store, ft, settings):
    """One window's ``(reps, costs, unconverged)``, aligned sentence by sentence.

    The per-window extraction as it stood before batching, on
    :func:`sinkhorn_plan_loop`. It reuses the library's per-alignment helpers
    (token filtering, marginals, costs, pooling), which the batched extractor
    must call with the same inputs; each has its own oracle test.
    """
    from otrank.corpus import content_token_indices
    from otrank.embeddings import QUESTION_WINDOW_ID, marginal_distribution
    from otrank.sinkhorn import (
        cost_matrix,
        relevant_context,
        sentence_representation,
        transport_cost,
    )

    q_vecs = store.sentence_vectors(instance_id, QUESTION_WINDOW_ID, "q")
    q_idx = content_token_indices(question)
    p = marginal_distribution([question.tokens[i] for i in q_idx], ft)
    reps = np.zeros((3, store.dim))
    costs = np.zeros(3)
    unconverged = 0
    for row, (sent, role) in enumerate(((window.cand, "c"), (window.prev, "p"),
                                        (window.next, "n"))):
        if sent.is_padding:
            continue
        s_vecs = store.sentence_vectors(instance_id, window.id, role)
        s_idx = content_token_indices(sent)
        s_pts = s_vecs[s_idx]
        D = cost_matrix(q_vecs[q_idx], s_pts)
        eps = settings.eps_scale * float(D.mean())
        if not (eps > 0):
            eps = 1e-12
        q = marginal_distribution([sent.tokens[j] for j in s_idx], ft)
        plan, _, converged, _ = sinkhorn_plan_loop(p, q, D, eps, settings.max_iter, settings.tol)
        rel = relevant_context(plan)
        reps[row] = sentence_representation(s_pts, rel)
        costs[row] = transport_cost(plan, D)
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
        f_new = [
            0.5 * (f[i] + eps * lp[i] - eps * _lse([(g[j] - D[i][j]) / eps for j in range(m)]))
            for i in range(n)
        ]
        g_new = [
            0.5 * (g[j] + eps * lq[j] - eps * _lse([(f[i] - D[i][j]) / eps for i in range(n)]))
            for j in range(m)
        ]
        f, g = f_new, g_new
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
