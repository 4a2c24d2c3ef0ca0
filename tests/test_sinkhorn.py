"""Optimal transport: costs, plans, relevant context, sentence pooling."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrank import sinkhorn
from otrank.corpus import (
    content_token_indices,
    content_tokens,
    make_sentence,
    padding_sentence,
)
from otrank.embeddings import (
    QUESTION_WINDOW_ID,
    ROLE_C,
    ROLE_Q,
    EmbeddingStore,
    FrequencyTable,
    load_embedding_store,
    marginal_distribution,
    write_embedding_store,
)
from otrank.errors import EmbeddingKeyError, EpsScaleError
from otrank.model import NODE_ROLES, instance_windows, window_pairs
from otrank.sinkhorn import (
    SinkhornSettings,
    UnalignablePairError,
    align_sentence,
    align_sentences,
    cost_matrix,
    relevant_contexts,
    sentence_representations,
    sinkhorn_plan,
    sinkhorn_plans,
    transport_costs,
)

from oracles import (
    cost_matrix_per_pair,
    euclidean_cost_oracle,
    lp_transport_oracle,
    mean_oracle,
    relevant_context_per_pair,
    sentence_representation_per_pair,
    sinkhorn_kernel_loop,
    sinkhorn_log_loop,
    sinkhorn_plan_loop,
    transport_cost_oracle,
    transport_cost_per_pair,
)


def random_marginal(rng, n):
    return rng.dirichlet(np.ones(n))


class TestCostMatrix:
    def test_three_four_five(self):
        D = cost_matrix([[0.0, 0.0]], [[3.0, 4.0]])
        assert D.shape == (1, 1)
        assert D[0, 0] == pytest.approx(5.0, abs=1e-15)

    def test_identical_vectors(self):
        v = [[1.0, -2.0, 0.5]]
        assert cost_matrix(v, v)[0, 0] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 6))
        Y = rng.normal(size=(4, 6))
        D = cost_matrix(X, Y)
        np.testing.assert_allclose(D, euclidean_cost_oracle(X, Y), atol=1e-12)

    def test_swap_transposes(self):
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))
        np.testing.assert_array_equal(cost_matrix(X, Y), cost_matrix(Y, X).T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cost_matrix([[1.0, 2.0]], [[1.0, 2.0, 3.0]])

    def test_empty_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            cost_matrix(np.zeros((0, 3)), np.zeros((2, 3)))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        D = cost_matrix(rng.normal(size=(5, 3)), rng.normal(size=(6, 3)))
        assert np.all(D >= 0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), B=st.integers(1, 5), d=st.sampled_from([1, 16, 768]),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_bitwise_equal_to_per_pair_costs(self, data, B, d, seed):
        extent = st.one_of(st.integers(1, 20), st.just(129))
        n = data.draw(extent)
        # At d=768 a 129 x 129 per-pair reference difference would take 100 MB.
        m = data.draw(st.integers(1, 20) if d == 768 and n == 129 else extent)
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(B, n, d)), rng.normal(size=(B, m, d))
        if data.draw(st.booleans()):
            Y[:, 0] = X[:, 0]  # exact zero distances
        D = cost_matrix(X, Y)
        assert D.shape == (B, n, m)
        means = D.reshape(B, -1).mean(axis=1)
        for b in range(B):
            want = cost_matrix_per_pair(X[b], Y[b])
            np.testing.assert_array_equal(D[b], want, strict=True)
            np.testing.assert_array_equal(cost_matrix(X[b], Y[b]), want, strict=True)
            assert _bits(means[b]) == _bits(float(want.mean()))
        with pytest.raises(ValueError, match="stack size mismatch"):
            cost_matrix(X, np.concatenate([Y, Y[:1]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            cost_matrix(X, np.concatenate([Y, Y[..., :1]], axis=2))
        with pytest.raises(ValueError):
            cost_matrix(X, Y[0])

    @pytest.mark.parametrize("B,n,m,d,block", [(40, 6, 6, 768, 7), (900, 3, 5, 16, 409),
                                               (3, 2, 50, 768, 1)])
    def test_stack_spanning_blocks_bitwise_equal_to_lone_problems(self, B, n, m, d, block):
        # Partial last blocks, and blocks of one problem: 50 x 768 differences
        # exceed the bound alone.
        assert max(1, sinkhorn._COST_BLOCK_BYTES // (8 * m * d)) == block
        rng = np.random.default_rng(B)
        X, Y = rng.normal(size=(B, n, d)), rng.normal(size=(B, m, d))
        Y[::3, 0] = X[::3, 0]  # exact zero distances
        D = cost_matrix(X, Y)
        for b in range(B):
            np.testing.assert_array_equal(D[b], cost_matrix_per_pair(X[b], Y[b]), strict=True)
            np.testing.assert_array_equal(D[b], cost_matrix(X[b], Y[b]), strict=True)


class TestSinkhornPlan:
    def test_one_by_one(self):
        tp = sinkhorn_plan(np.ones(1), np.ones(1), np.array([[3.7]]), eps=0.5,
                           max_iter=200, tol=1e-12)
        assert tp.converged
        assert tp.plan[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_cost_gives_outer_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = rng.integers(1, 9, size=2)
            p, q = random_marginal(rng, n), random_marginal(rng, m)
            tp = sinkhorn_plan(p, q, np.zeros((n, m)), eps=0.7, max_iter=2000, tol=1e-12)
            assert tp.converged
            assert np.max(np.abs(tp.plan - np.outer(p, q))) <= 1e-8

    def test_lp_agreement_small_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, m = rng.integers(2, 5, size=2)
            D = cost_matrix(rng.normal(size=(n, 8)), rng.normal(size=(m, 8)))
            p, q = random_marginal(rng, n), random_marginal(rng, m)
            exact = lp_transport_oracle(p, q, D)
            tp = sinkhorn_plan(p, q, D, eps=0.01 * D.mean(), max_iter=200000, tol=1e-9)
            cost = transport_costs(tp.plan[None], D[None])[0]
            assert cost == pytest.approx(exact, rel=0.02)

    def test_non_finite_cost_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sinkhorn_plan(np.ones(1), np.ones(1), np.array([[np.inf]]), eps=0.1)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sinkhorn_plan(np.ones(1), np.ones(1), np.array([[1.0]]), eps=0.0)

    def test_bad_marginals_rejected(self):
        with pytest.raises(ValueError, match="marginal"):
            sinkhorn_plan(np.array([0.4, 0.4]), np.ones(1), np.zeros((2, 1)), eps=0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            sinkhorn_plan(np.ones(2) / 2, np.ones(3) / 3, np.zeros((2, 2)), eps=0.1)

    def test_feasibility_of_converged_plans(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, m = rng.integers(1, 13, size=2)
            D = cost_matrix(rng.normal(size=(n, 16)), rng.normal(size=(m, 16)))
            p, q = random_marginal(rng, n), random_marginal(rng, m)
            eps = 0.1 * D.mean() if D.mean() > 0 else 1e-9
            tp = sinkhorn_plan(p, q, D, eps, max_iter=500, tol=1e-6)
            assert tp.converged
            assert np.max(np.abs(tp.plan.sum(axis=1) - p)) <= 1e-6
            assert np.max(np.abs(tp.plan.sum(axis=0) - q)) <= 1e-6
            assert np.all(tp.plan >= 0)

    def test_entropic_cost_monotone_in_eps(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n, m = rng.integers(2, 6, size=2)
            D = cost_matrix(rng.normal(size=(n, 8)), rng.normal(size=(m, 8)))
            p, q = random_marginal(rng, n), random_marginal(rng, m)
            costs = []
            for scale in (1.0, 0.1, 0.01):
                tp = sinkhorn_plan(p, q, D, scale * D.mean(), max_iter=200000, tol=1e-10)
                assert tp.converged
                costs.append(transport_costs(tp.plan[None], D[None])[0])
            assert costs[0] >= costs[1] - 1e-9
            assert costs[1] >= costs[2] - 1e-9

    def test_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n, m = rng.integers(1, 8, size=2)
            D = cost_matrix(rng.normal(size=(n, 4)), rng.normal(size=(m, 4)))
            p, q = random_marginal(rng, n), random_marginal(rng, m)
            eps = 0.3 * max(D.mean(), 1e-9)
            a = sinkhorn_plan(p, q, D, eps, max_iter=400, tol=1e-8)
            b = sinkhorn_plan(q, p, D.T, eps, max_iter=400, tol=1e-8)
            assert a.iterations_used == b.iterations_used
            assert a.converged == b.converged
            np.testing.assert_array_equal(a.plan, b.plan.T)

    def test_square_swap_symmetry_is_exact(self):
        # A square problem picks its side by comparing bytes. Each problem
        # here is stacked with its swapped one, and exactly one of the two is
        # solved transposed, so the 8 x 8 stack is transposed only in part.
        rng = np.random.default_rng(23)
        problems = []
        for n in (2, 3, 5, 8, 8, 8):
            D = cost_matrix(rng.normal(size=(n, 4)), rng.normal(size=(n, 4)))
            p, q = random_marginal(rng, n), random_marginal(rng, n)
            assert p.tobytes() + D.tobytes() != q.tobytes() + D.T.tobytes()
            problems += [(p, q, D, 0.3 * D.mean()), (q, p, D.T, 0.3 * D.mean())]
        got = sinkhorn_plans(*(list(col) for col in zip(*problems)), 400, 1e-8)
        for a, b in zip(got[::2], got[1::2]):
            assert (a.iterations_used, a.converged, a.violation) == (
                b.iterations_used, b.converged, b.violation)
            np.testing.assert_array_equal(a.plan, b.plan.T)
        for tp, problem in zip(got, problems):
            np.testing.assert_array_equal(tp.plan, sinkhorn_plan(*problem, 400, 1e-8).plan)

    def test_problem_equal_to_its_transpose_has_a_symmetric_plan(self):
        # Such a problem has no canonical side; it takes the symmetric step,
        # which keeps u = v, from half the row minima of its costs, some of
        # which lie off its diagonal.
        rng = np.random.default_rng(26)
        C = cost_matrix(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
        D = C + C.T
        p = random_marginal(rng, 6)
        assert D.tobytes() == D.T.tobytes() and (D.min(axis=1) < np.diag(D)).any()
        tp = sinkhorn_plan(p, p, D, 0.1 * D.mean())
        assert tp.converged
        np.testing.assert_array_equal(tp.plan, tp.plan.T)
        plan, iterations, converged, _ = sinkhorn_log_loop(p, p, D, 0.1 * D.mean())
        assert converged and tp.iterations_used == iterations
        assert np.max(np.abs(tp.plan - plan)) <= 1e-9

    def test_nonconvergence_returns_best_iterate(self, caplog):
        rng = np.random.default_rng(8)
        D = cost_matrix(rng.normal(size=(4, 4)), rng.normal(size=(5, 4)))
        p, q = random_marginal(rng, 4), random_marginal(rng, 5)
        with caplog.at_level(logging.WARNING, logger="otrank.sinkhorn"):
            tp = sinkhorn_plan(p, q, D, eps=0.01 * D.mean(), max_iter=3, tol=1e-9)
        assert not tp.converged
        assert tp.iterations_used <= 3
        assert np.all(tp.plan >= 0)
        assert any("did not converge" in r.message for r in caplog.records)


class _Count(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _count_warnings(logger_name, fn):
    handler = _Count()
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        return fn(), handler.count
    finally:
        logger.removeHandler(handler)


@st.composite
def problem_batches(draw):
    """Mixed-shape batches: each drawn shape, plus 1x1, 1xm and nx1, holds one
    or more problems; some marginals have zero entries. Extents reach 20, so
    a batch can span several summation buckets of the padded solver on both
    axes."""
    shape = st.tuples(st.integers(1, 20), st.integers(1, 20))
    pool = draw(st.lists(shape, min_size=1, max_size=4))
    pool += [(1, 1), (1, pool[0][1]), (pool[0][0], 1)]
    shapes = pool + draw(st.lists(st.sampled_from(pool), max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.01, 0.1, 0.5]))
    problems = []
    for n, m in shapes:
        D = cost_matrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
        p, q = random_marginal(rng, n), random_marginal(rng, m)
        for v in (p, q):
            if v.size > 1 and draw(st.booleans()):
                v[rng.integers(v.size)] = 0.0
                v /= v.sum()
        eps = scale * D.mean() if D.mean() > 0 else 1e-12
        problems.append((p, q, D, eps))
    order = rng.permutation(len(problems))
    return [problems[k] for k in order]


def _problems(shapes, seed, zeros):
    """One problem per shape at eps 0.1 * mean cost; with ``zeros``, one entry of
    each marginal longer than 1 is zero."""
    rng = np.random.default_rng(seed)
    problems = []
    for n, m in shapes:
        D = cost_matrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
        p, q = random_marginal(rng, n), random_marginal(rng, m)
        for v in (p, q):
            if zeros and v.size > 1:
                v[rng.integers(v.size)] = 0.0
                v /= v.sum()
        problems.append((p, q, D, 0.1 * D.mean()))
    return problems


class TestBatchedSolver:
    @settings(max_examples=60, deadline=None)
    @given(problems=problem_batches(), max_iter=st.sampled_from([0, 1, 4, 30, 500]),
           tol=st.sampled_from([1e-6, 1e-9]))
    def test_bitwise_equal_to_the_per_problem_loop(self, problems, max_iter, tol):
        ps, qs, Ds, eps = (list(col) for col in zip(*problems))
        got, got_warnings = _count_warnings(
            "otrank.sinkhorn", lambda: sinkhorn_plans(ps, qs, Ds, eps, max_iter, tol)
        )
        want, want_warnings = _count_warnings(
            "oracles",
            lambda: [sinkhorn_kernel_loop(*problem, max_iter, tol) for problem in problems],
        )
        assert got_warnings == want_warnings
        for tp, (plan, iterations, converged, violation) in zip(got, want):
            # When unconverged, ``plan`` is the best iterate.
            np.testing.assert_array_equal(tp.plan, plan, strict=True)
            assert tp.iterations_used == iterations
            assert tp.converged == converged
            assert tp.violation == violation

    @pytest.mark.parametrize("max_iter", [1, 500])
    def test_single_column_problems_share_a_padded_bucket(self, max_iter):
        # A (9, 1) problem shares a bucket with the (9, 2) ones and is padded
        # to two columns: its K v sums gain a trailing exact zero and its
        # K^T u sums run over the same contiguous rows, so no bit moves.
        for seed in range(8):
            problems = _problems([(9, 1), (9, 2), (10, 2), (9, 1), (10, 2)], seed, zeros=True)
            self._assert_bitwise_equal_to_the_loop(problems, max_iter)

    @pytest.mark.parametrize("max_iter", [1, 30])
    def test_extents_past_the_pairwise_block_are_not_padded(self, max_iter):
        # numpy splits a run of more than 128 terms at a length-dependent point.
        problems = _problems([(128, 2), (129, 2), (2, 128), (2, 129), (3, 250), (3, 255)],
                             17, zeros=False)
        self._assert_bitwise_equal_to_the_loop(problems, max_iter)

    @staticmethod
    def _assert_bitwise_equal_to_the_loop(problems, max_iter):
        ps, qs, Ds, eps = (list(col) for col in zip(*problems))
        for tp, problem in zip(sinkhorn_plans(ps, qs, Ds, eps, max_iter, 1e-9), problems):
            plan, iterations, converged, violation = sinkhorn_kernel_loop(*problem, max_iter, 1e-9)
            np.testing.assert_array_equal(tp.plan, plan, strict=True)
            assert (tp.iterations_used, tp.converged, tp.violation) == (
                iterations, converged, violation)

    def test_one_problem_call_is_the_batch_entry(self):
        rng = np.random.default_rng(14)
        problems = []
        for n, m in ((3, 4), (3, 4), (2, 5), (1, 1)):
            D = cost_matrix(rng.normal(size=(n, 4)), rng.normal(size=(m, 4)))
            problems.append((random_marginal(rng, n), random_marginal(rng, m), D, 0.1 * D.mean()))
        batch = sinkhorn_plans(*(list(col) for col in zip(*problems)))
        for tp, problem in zip(batch, problems):
            alone = sinkhorn_plan(*problem)
            np.testing.assert_array_equal(tp.plan, alone.plan)
            assert (tp.iterations_used, tp.converged) == (alone.iterations_used, alone.converged)

    def test_empty_batch(self):
        assert sinkhorn_plans([], [], [], []) == []

    def test_non_finite_cost_names_its_problem(self):
        D = np.ones((2, 2))
        bad = D.copy()
        bad[1, 0] = np.nan
        p = np.full(2, 0.5)
        with pytest.raises(UnalignablePairError, match="problem 2") as info:
            sinkhorn_plans([p] * 3, [p] * 3, [D, D, bad], [0.1] * 3)
        assert info.value.index == 2

    def test_mismatched_batch_lengths_rejected(self):
        with pytest.raises(ValueError, match="one p, q"):
            sinkhorn_plans([np.ones(1)], [], [np.ones((1, 1))], [0.1])

    def test_nan_marginal_entry_names_its_problem(self):
        D = np.ones((2, 2))
        p = np.full(2, 0.5)
        with pytest.raises(ValueError, match="problem 1: marginal q must be finite"):
            sinkhorn_plans([p, p], [p, np.array([np.nan, 0.5])], [D, D], [0.1, 0.1])
        with pytest.raises(ValueError, match="marginal p must be finite"):
            sinkhorn_plan(np.array([np.nan, 0.5]), p, D, eps=0.1)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_eps_names_its_problem(self, eps):
        D = np.ones((2, 2))
        p = np.full(2, 0.5)
        with pytest.raises(ValueError, match="problem 2: regularization strength must be "
                                             "positive and finite"):
            sinkhorn_plans([p] * 3, [p] * 3, [D] * 3, [0.1, 0.1, eps])


# The kernel-domain plan against the log-domain one. Both round the same
# exact iteration; the log domain's plan alone carries a relative error of
# about max(D / eps) ulps (up to ~200 at eps_scale 0.01), so 1e-13 on entries
# at most 1 is a rounding-level bound.
LOG_DOMAIN_PLAN_TOL = 1e-13


def _random_problems(seed, scale, count):
    """Mixed shapes up to 20 x 20 in 3-D, eps ``scale * mean(D)``; half the
    marginals longer than 1 get one zero entry."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        n, m = rng.integers(1, 21, size=2)
        D = cost_matrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
        p, q = random_marginal(rng, n), random_marginal(rng, m)
        for v in (p, q):
            if v.size > 1 and rng.random() < 0.5:
                v[rng.integers(v.size)] = 0.0
                v /= v.sum()
        problems.append((p, q, D, scale * D.mean()))
    return problems


def _assert_feasible(tp, p, q):
    assert np.isfinite(tp.plan).all() and np.all(tp.plan >= 0)
    if tp.converged:
        assert np.max(np.abs(tp.plan.sum(axis=1) - p)) <= 1e-6
        assert np.max(np.abs(tp.plan.sum(axis=0) - q)) <= 1e-6


class TestKernelDomain:
    """The kernel-domain solver against the alternating log-domain loop."""

    @settings(max_examples=40, deadline=None)
    @given(problems=problem_batches(), tol=st.sampled_from([1e-6, 1e-9]))
    def test_follows_the_log_domain_loop(self, problems, tol):
        ps, qs, Ds, eps = (list(col) for col in zip(*problems))
        for tp, problem in zip(sinkhorn_plans(ps, qs, Ds, eps, 500, tol), problems):
            plan, iterations, converged, _ = sinkhorn_log_loop(*problem, 500, tol)
            assert tp.converged == converged
            # An unconverged problem's best iterate is picked among violations
            # equal to rounding on a plateau, so only a converged plan is
            # compared.
            if converged:
                assert tp.iterations_used == iterations
                assert relevant_context_per_pair(tp.plan) == relevant_context_per_pair(plan)
                assert np.max(np.abs(tp.plan - plan)) <= LOG_DOMAIN_PLAN_TOL

    @pytest.mark.parametrize("scale", [0.003, 0.001])
    def test_small_eps_converges_as_the_log_domain_does(self, scale):
        # Without absorption, exp(-D / eps) underflows in these batches and
        # the kernel iteration converges none of them at 0.001.
        problems = _random_problems(0, scale, 50)
        assert max(float((D / eps).max()) for _, _, D, eps in problems) > 745
        ps, qs, Ds, eps = (list(col) for col in zip(*problems))
        got = sinkhorn_plans(ps, qs, Ds, eps)
        want = [sinkhorn_log_loop(*problem) for problem in problems]
        assert [tp.converged for tp in got] == [converged for _, _, converged, _ in want]
        assert sum(tp.converged for tp in got) > 0
        damped = [sinkhorn_plan_loop(*problem)[2] for problem in problems]
        assert sum(tp.converged for tp in got) >= sum(damped)
        for tp, (p, q, _, _) in zip(got, problems):
            _assert_feasible(tp, p, q)

    def test_row_whose_kernel_underflows(self):
        # Question point 0 lies so far from every sentence point that all of
        # exp(-D[0] / eps) is zero, while the other rows are ordinary.
        rng = np.random.default_rng(21)
        X, Y = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        X[0] += 80.0
        D = cost_matrix(X, Y)
        eps = 0.1
        assert not np.exp(-D[0] / eps).any() and np.exp(-D[1:] / eps).all()
        p, q = random_marginal(rng, 4), random_marginal(rng, 5)
        other = _problems([(3, 5)], 22, zeros=True)[0]
        tp, _ = sinkhorn_plans([p, other[0]], [q, other[1]], [D, other[2]], [eps, other[3]])
        plan, iterations, converged, _ = sinkhorn_log_loop(p, q, D, eps)
        assert tp.converged and converged
        _assert_feasible(tp, p, q)
        assert np.max(np.abs(tp.plan - plan)) <= 1e-9

    def test_row_past_the_deficit_bound_is_lifted(self):
        # Column 2 starts with half its distance to row 0, its nearest, but
        # row 0 also lies near column 0, so after the first row step column 2
        # sits near exp(-2995) of every row, past what two doubles hold, and
        # is lifted. The solve converges, stays finite and keeps its swap
        # symmetry.
        X = np.array([[0.0, 0.0], [20.0, 0.0]])
        Y = np.array([[0.0, 0.1], [20.0, 0.1], [0.0, 60.0]])
        D = cost_matrix(X, Y)
        p, q, eps = np.array([0.6, 0.4]), np.array([0.2, 0.4, 0.4]), 0.01
        g = 0.5 * (D.min(axis=0) + eps * np.log(q))
        a = (D - g).min(axis=1)
        assert ((a[:, None] + g - D)[:, 2] / eps).max() < sinkhorn._DEFICIT
        tp = sinkhorn_plan(p, q, D, eps)
        swapped = sinkhorn_plan(q, p, D.T, eps)
        plan, _, converged, _ = sinkhorn_log_loop(p, q, D, eps)
        assert tp.converged and converged
        _assert_feasible(tp, p, q)
        np.testing.assert_array_equal(swapped.plan, tp.plan.T)
        assert np.max(np.abs(tp.plan - plan)) <= 1e-9

    def test_row_whose_nearest_column_has_no_mass(self):
        # Each of row 0's other columns lies near another row, so none is
        # lifted, and row 0's kernel entries on them underflow against
        # column 0. Column 0 has no mass, so its scaling is 0 from the start
        # and row 0 is shifted by its nearest live column instead; otherwise
        # row 0's first product would be zero.
        X = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 25.1]])
        Y = np.array([[0.0, 0.1], [20.0, 0.1], [0.0, 25.0], [20.0, 0.2]])
        D = cost_matrix(X, Y)
        p, q, eps = np.array([0.2, 0.4, 0.4]), np.array([0.0, 0.3, 0.4, 0.3]), 0.01
        assert not np.exp((D[0, 0] - D[0, 1:]) / eps).any()
        tp = sinkhorn_plan(p, q, D, eps)
        plan, _, converged, _ = sinkhorn_log_loop(p, q, D, eps)
        assert tp.converged and converged
        _assert_feasible(tp, p, q)
        assert np.max(np.abs(tp.plan - plan)) <= 1e-9


class TestAgainstTheDampedWitness:
    """The alternating solver against the damped half-step loop it replaced:
    the same limit, in at most half the iterations."""

    def test_converges_to_the_same_plans(self):
        problems = _random_problems(0, 0.1, 200)
        ps, qs, Ds, eps = (list(col) for col in zip(*problems))
        for tp, problem in zip(sinkhorn_plans(ps, qs, Ds, eps, 5000, 1e-12), problems):
            plan, _, converged, _ = sinkhorn_plan_loop(*problem, 5000, 1e-12)
            assert tp.converged and converged
            assert np.max(np.abs(tp.plan - plan)) <= 1e-9

    def test_takes_at_most_half_the_iterations(self):
        problems = _random_problems(0, 0.1, 200)
        ps, qs, Ds, eps = (list(col) for col in zip(*problems))
        got = sinkhorn_plans(ps, qs, Ds, eps, 500, 1e-6)
        want = [sinkhorn_plan_loop(*problem, 500, 1e-6) for problem in problems]
        assert all(tp.converged for tp in got) and all(w[2] for w in want)
        assert 2 * sum(tp.iterations_used for tp in got) <= sum(w[1] for w in want)


def _restatements(seed, count, noise=0.0, permute=False):
    """Sentences paired with a restatement of their own content words, as
    static word vectors give them: ``X`` against ``X`` (or a permutation of
    it, or ``X`` plus Gaussian ``noise``) at d=16, with one frequency
    marginal for both sides, so the costs are near zero on a permutation."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        n = int(rng.integers(2, 13))
        X = rng.normal(size=(n, 16))
        p = random_marginal(rng, n)
        order = rng.permutation(n) if permute else np.arange(n)
        D = cost_matrix(X, X[order] + noise * rng.normal(size=X.shape))
        problems.append((p, p[order], D, 0.1 * D.mean()))
    return problems


class TestRestatements:
    """A candidate whose content words restate the question's: the kernel is
    nearly a permutation, and how each of its nearly separate blocks shares
    its scale between the two sides barely moves under any Sinkhorn step, so
    the start has to put it where the solution has it."""

    def test_self_pairs_take_the_witness_iterations(self):
        problems = _restatements(31, 200)
        assert all(D.tobytes() == D.T.tobytes() for _, _, D, _ in problems)
        got = sinkhorn_plans(*(list(col) for col in zip(*problems)))
        for tp, problem in zip(got, problems):
            _, iterations, converged, _ = sinkhorn_plan_loop(*problem)
            assert tp.converged and converged
            assert tp.iterations_used <= iterations <= 3
            np.testing.assert_array_equal(tp.plan, tp.plan.T)

    def test_permuted_self_pairs_converge(self):
        problems = _restatements(32, 200, permute=True)
        got = sinkhorn_plans(*(list(col) for col in zip(*problems)))
        assert all(tp.converged for tp in got)
        want = [sinkhorn_plan_loop(*problem)[1] for problem in problems]
        assert sum(tp.iterations_used for tp in got) <= sum(want)

    @pytest.mark.parametrize("noise", [0.01, 0.1])
    def test_noisy_self_pairs_converge_nearly_as_often_as_the_witness(self, noise):
        problems = _restatements(33, 200, noise=noise)
        got = sinkhorn_plans(*(list(col) for col in zip(*problems)))
        want = [sinkhorn_plan_loop(*problem)[2] for problem in problems]
        assert 10 * sum(tp.converged for tp in got) >= 9 * sum(want)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def plan_groups(draw):
    """One shape group: plans, costs, vectors, and masks of any size to pool by.
    Shapes and mask sizes cross numpy's 9- and 128-term pairwise-sum blocks;
    plans drawn from a few levels have argmax ties, and some vectors are -0.0."""
    B = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 3, 8, 9, 10, 17, 40]))
    m = draw(st.sampled_from([1, 2, 7, 8, 9, 10, 16, 127, 128, 129, 140]))
    d = draw(st.sampled_from([1, 2, 16, 768]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        plans = rng.integers(0, 3, size=(B, n, m)) / 3.0  # ties
    else:
        plans = rng.random((B, n, m)) / (n * m)
    costs = rng.random((B, n, m)) * 4.0
    vectors = rng.normal(size=(B, m, d))
    vectors[rng.random((B, m)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -0.0
    masks = rng.random((B, m)) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    masks[np.arange(B), rng.integers(m, size=B)] = True
    return plans, costs, vectors, masks


class TestGroupedPostSolve:
    """The group operations against the per-pair functions they replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(group=plan_groups())
    def test_bitwise_equal_to_the_per_pair_functions(self, group):
        plans, costs, vectors, masks = group
        relevant = relevant_contexts(plans)
        totals = transport_costs(plans, costs)
        for b in range(len(plans)):
            rel = relevant_context_per_pair(plans[b])
            alone = np.flatnonzero(relevant_contexts(plans[b][None])[0]).tolist()
            assert np.flatnonzero(relevant[b]).tolist() == rel == alone
            assert _bits(totals[b]) == _bits(transport_cost_per_pair(plans[b], costs[b]))
            assert _bits(transport_costs(plans[b][None], costs[b][None])[0]) == _bits(totals[b])
        # The rows in reverse, so a problem's row numbers are not its positions.
        B, m, d = vectors.shape
        rows = vectors.reshape(-1, d)[::-1]
        numbers = (B * m - 1 - np.arange(B * m)).reshape(B, m)
        for mask in (relevant, masks):
            reps = sentence_representations(rows, numbers, mask)
            for b in range(len(plans)):
                idx = np.flatnonzero(mask[b]).tolist()
                want = sentence_representation_per_pair(vectors[b], idx)
                assert _bits(reps[b]) == _bits(want)
                alone = sentence_representations(vectors[b], np.arange(m)[None], mask[b][None])[0]
                assert _bits(alone) == _bits(want)

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sentence_representations(np.zeros((3, 1)), np.arange(6).reshape(2, 3) % 3,
                                     np.array([[True, False, False], [False, False, False]]))


class TestTransportCost:
    def test_single_cell(self):
        assert transport_costs(np.array([[[1.0]]]), np.array([[[2.5]]]))[0] == 2.5

    def test_zero_cost_matrix(self):
        assert transport_costs(np.full((3, 2), 0.2)[None], np.zeros((1, 3, 2)))[0] == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        plan = rng.random((2, 2))
        D = rng.random((2, 2))
        assert transport_costs(plan[None], D[None])[0] == pytest.approx(
            transport_cost_oracle(plan, D), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            transport_costs(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))


class TestRelevantContext:
    @staticmethod
    def _columns(plan) -> list[int]:
        return np.flatnonzero(relevant_contexts(np.array(plan)[None])[0]).tolist()

    def test_two_rows_two_columns(self):
        assert self._columns([[0.1, 0.4], [0.3, 0.2]]) == [0, 1]

    def test_union_collapses(self):
        assert self._columns([[0.5, 0.1], [0.9, 0.2]]) == [0]

    def test_tie_breaks_to_smallest_index(self):
        assert self._columns([[0.25, 0.25]]) == [0]

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            relevant_contexts(np.zeros((0, 3))[None])


class TestSentenceRepresentation:
    def test_mean_of_two(self):
        rep = sentence_representations(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1]]),
                                       np.array([[True, True]]))[0]
        np.testing.assert_allclose(rep, [0.5, 0.5])

    def test_singleton(self):
        rep = sentence_representations(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1, 0]]),
                                       np.array([[True, False]]))[0]
        np.testing.assert_array_equal(rep, [3.0, 4.0])

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(10)
        vecs = rng.normal(size=(5, 3))
        idx = [0, 2, 4]
        np.testing.assert_allclose(
            sentence_representations(vecs, np.arange(5)[None], np.isin(np.arange(5), idx)[None])[0],
            mean_oracle(vecs.tolist(), idx), atol=1e-12
        )

    def test_float32_rows_give_the_bits_of_their_widening(self):
        rows = np.random.default_rng(14).normal(size=(7, 5)).astype(np.float32)
        numbers = np.array([[6, 0, 3], [2, 2, 5]])
        mask = np.array([[True, False, True], [True, True, True]])
        got = sentence_representations(rows, numbers, mask)
        assert got.dtype == np.float64
        assert _bits(got) == _bits(sentence_representations(rows.astype(np.float64), numbers,
                                                            mask))

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sentence_representations(np.zeros((2, 2)), np.array([[0, 1]]),
                                     np.zeros((1, 2), dtype=bool))


class TestAlignSentence:
    def test_self_alignment_near_zero_cost(self, tiny_ft):
        q = make_sentence("galaxies collide slowly")
        rng = np.random.default_rng(11)
        vecs = 3.0 * rng.normal(size=(3, 4))
        res = align_sentence(q, q, vecs, vecs, tiny_ft,
                             SinkhornSettings(eps_scale=0.02, max_iter=5000, tol=1e-10))
        assert res.cost == pytest.approx(0.0, abs=1e-6)
        assert res.relevant == (0, 1, 2)

    def test_padding_sentence_rule(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[0]
        qv = tiny_store.stored_vectors("q1", QUESTION_WINDOW_ID, ROLE_Q)
        res = align_sentence(inst.question, padding_sentence(), qv, None, tiny_ft)
        assert res.cost == 0.0
        np.testing.assert_array_equal(res.representation, np.zeros(4))
        assert res.relevant == (0,)
        assert res.plan.plan.shape[1] == 1
        np.testing.assert_allclose(res.plan.plan.sum(), 1.0, atol=1e-12)

    def test_golden_fixture_pair(self, tiny_corpus, tiny_store, tiny_ft):
        # Frozen from the reference run of this fixture (dim 4, store seed 42).
        inst = tiny_corpus.instances[0]
        w = inst.windows[0]
        res = align_sentence(
            inst.question,
            w.cand,
            tiny_store.stored_vectors("q1", QUESTION_WINDOW_ID, ROLE_Q),
            tiny_store.stored_vectors("q1", "q1-w1", ROLE_C),
            tiny_ft,
        )
        assert res.question_token_indices == (1, 5)  # planet, moons
        assert res.sentence_token_indices == (0, 1, 3, 5, 6)
        assert res.relevant == (0, 4)
        assert res.plan.converged
        assert res.cost == pytest.approx(1.9527325177653714, abs=1e-9)
        golden_plan = np.array(
            [
                [0.0027973484850343784, 0.15903286041472958, 0.11308936136663013,
                 0.025127607888715316, 0.1999522065158207],
                [0.19720265151496563, 0.04096713958527042, 0.08691063863336988,
                 0.1748723921112847, 4.779348417933753e-05],
            ]
        )
        np.testing.assert_allclose(res.plan.plan, golden_plan, atol=1e-9)
        golden_rep = np.array(
            [-0.522211604129839, 0.0555748933252907, 0.8356374732888329,
             -0.5226464323139788]
        )
        np.testing.assert_allclose(res.representation, golden_rep, atol=1e-12)

    def test_stopword_only_sentence_uses_fallback(self, tiny_ft):
        q = make_sentence("galaxies collide")
        s = make_sentence("it is")
        rng = np.random.default_rng(12)
        res = align_sentence(q, s, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), tiny_ft)
        assert res.sentence_token_indices == (0, 1)

    def test_vector_count_mismatch(self, tiny_ft):
        q = make_sentence("galaxies collide")
        s = make_sentence("stars merge")
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="tokens but"):
            align_sentence(q, s, rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), tiny_ft)


def _tiny_pairs(corpus, roles=NODE_ROLES):
    """The ``(question, sentence, question_key, sentence_key)`` pairs of the
    corpus's windows whose role is in ``roles``."""
    return [pair for k, pair in enumerate(window_pairs(instance_windows(corpus.instances)))
            if NODE_ROLES[k % 3] in roles]


class TestAlignSentences:
    def test_batch_matches_pair_by_pair(self, tiny_corpus, tiny_store, tiny_ft):
        pairs = _tiny_pairs(tiny_corpus)
        batch = align_sentences(tiny_store, pairs, tiny_ft)
        assert len(batch) == len(pairs)
        assert any(key is None for _, _, _, key in pairs)
        for res, (question, s, question_key, key) in zip(batch, pairs):
            vectors = None if key is None else tiny_store.stored_vectors(*key)
            alone = align_sentence(question, s, tiny_store.stored_vectors(*question_key),
                                   vectors, tiny_ft)
            np.testing.assert_array_equal(res.plan.plan, alone.plan.plan)
            np.testing.assert_array_equal(res.representation, alone.representation)
            assert res.cost == alone.cost
            assert res.relevant == alone.relevant

    def test_questions_in_runs_and_interleaved(self, tiny_ft):
        # Questions of one shape and one set of words, each with vectors of its
        # own (one question object under two keys too), met in runs and
        # alternately: every pair keeps its own question's rows.
        rng = np.random.default_rng(16)
        q1, q2 = make_sentence("galaxies collide"), make_sentence("galaxies collide")
        s = make_sentence("stars merge")
        store = EmbeddingStore(dim=4)
        for qid in ("a", "b", "c"):
            store.add_sentence(qid, QUESTION_WINDOW_ID, ROLE_Q, rng.normal(size=(2, 4)))
        pairs = []
        for k, (q, qid) in enumerate(((q1, "a"), (q1, "a"), (q2, "b"), (q1, "a"), (q1, "c"),
                                      (q2, "b"), (q2, "b"))):
            store.add_sentence(qid, f"w{k}", ROLE_C, rng.normal(size=(2, 4)))
            pairs.append((q, s, (qid, QUESTION_WINDOW_ID, ROLE_Q), (qid, f"w{k}", ROLE_C)))
        batch = align_sentences(store, pairs, tiny_ft)
        assert len(batch.groups) == 1
        for res, (question, s, question_key, key) in zip(batch, pairs):
            alone = align_sentence(question, s, store.stored_vectors(*question_key),
                                   store.stored_vectors(*key), tiny_ft)
            assert res.cost == alone.cost
            np.testing.assert_array_equal(res.plan.plan, alone.plan.plan, strict=True)
            np.testing.assert_array_equal(res.representation, alone.representation, strict=True)

    @pytest.mark.parametrize("side", ["question", "sentence"])
    @pytest.mark.parametrize("fault", ["short", "inf"])
    def test_non_finite_vector_names_the_pair(self, tiny_ft, side, fault):
        # The faulty pair comes behind a good pair and a padding pair; a faulty
        # question is first met there.
        q, q2 = make_sentence("galaxies collide"), make_sentence("galaxies collide")
        s = make_sentence("stars merge")
        rng = np.random.default_rng(15)
        qv, good = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        bad = (qv if side == "question" else good).copy()
        if fault == "short":
            bad = bad[:1]
        else:
            bad[1, 2] = np.inf  # a content row of either side
        store = EmbeddingStore(dim=4)
        question_key, good_key = ("i", QUESTION_WINDOW_ID, ROLE_Q), ("i", "w1", ROLE_C)
        bad_key = ("j", QUESTION_WINDOW_ID, ROLE_Q) if side == "question" else ("i", "w2", ROLE_C)
        for key, vectors in ((question_key, qv), (good_key, good), (bad_key, bad)):
            store.add_sentence(*key, vectors)
        last = ((q2, s, bad_key, good_key) if side == "question"
                else (q, s, question_key, bad_key))
        pairs = [(q, s, question_key, good_key), (q, padding_sentence(), question_key, None),
                 last]
        with pytest.raises(UnalignablePairError, match=side) as info:
            align_sentences(store, pairs, tiny_ft)
        assert info.value.index == 2
        assert info.value.question is (side == "question")

    @pytest.mark.parametrize("scale,says", [(1e308, "overflow"), (1e-30, "NaN or inf")])
    def test_eps_scale_out_of_the_solvers_range_is_named(self, tiny_corpus, tiny_store,
                                                          tiny_ft, scale, says):
        # A scale valid on its own gives an eps that overflows, or plans that do not
        # come out finite, for the tiny corpus's costs.
        pairs = _tiny_pairs(tiny_corpus, roles=(ROLE_C,))
        with pytest.raises(EpsScaleError, match=re.escape(f"eps_scale = {scale} ") + f".*{says}"):
            align_sentences(tiny_store, pairs, tiny_ft, SinkhornSettings(eps_scale=scale))

    def test_a_key_the_store_lacks_is_named(self, tiny_corpus, tiny_store, tiny_ft):
        question, s, question_key, _ = _tiny_pairs(tiny_corpus)[0]
        with pytest.raises(EmbeddingKeyError, match="no-such-window"):
            align_sentences(tiny_store, [(question, s, question_key,
                                          ("q1", "no-such-window", ROLE_C))], tiny_ft)

    def test_sentence_without_tokens_is_rejected(self, tiny_ft):
        # The store holds no sentence without a vector.
        q, empty = make_sentence("galaxies collide"), make_sentence("")
        qv = np.random.default_rng(17).normal(size=(2, 4))
        with pytest.raises(ValueError, match="at least one token vector"):
            align_sentence(q, empty, qv, np.zeros((0, 4)), tiny_ft)

    def test_padding_question_has_no_tokens_to_align(self, tiny_ft):
        s = make_sentence("stars merge")
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError, match="question has no tokens to align"):
            align_sentence(padding_sentence(), s, np.zeros((1, 4)), rng.normal(size=(2, 4)),
                           tiny_ft)

    def test_non_finite_cost_is_blamed_on_its_vectors_at_any_eps_scale(self, tiny_ft):
        q, s = make_sentence("galaxies collide"), make_sentence("stars merge")
        rng = np.random.default_rng(19)
        bad = rng.normal(size=(2, 4))
        bad[0, 1] = np.inf
        with pytest.raises(UnalignablePairError, match="sentence vectors") as info:
            align_sentence(q, s, rng.normal(size=(2, 4)), bad, tiny_ft,
                           SinkhornSettings(eps_scale=1e308))
        assert info.value.question is False

    def test_float32_vectors_give_the_bits_of_their_widening(self, tiny_corpus, tiny_store,
                                                              tiny_ft, tmp_path):
        # The tiny store read back holds float32 rows; a store built from their
        # float64 widenings, under the same keys, aligns to the same bits.
        write_embedding_store(tmp_path / "emb.bin", tiny_store)
        narrow = load_embedding_store(tmp_path / "emb.bin")
        wide = EmbeddingStore(dim=narrow.dim)
        for key, vectors in narrow.sorted_items():
            wide.add_sentence(*key, vectors)
        assert (narrow.matrix.dtype, wide.matrix.dtype) == (np.float32, np.float64)
        pairs = _tiny_pairs(tiny_corpus)
        got, want = (align_sentences(store, pairs, tiny_ft) for store in (narrow, wide))
        np.testing.assert_array_equal(got.reps, want.reps, strict=True)
        np.testing.assert_array_equal(got.costs, want.costs, strict=True)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.plan.plan, b.plan.plan, strict=True)
            assert a.relevant == b.relevant
            assert a.plan.iterations_used == b.plan.iterations_used


_VOCAB = [f"word{i}" for i in range(12)]


def _solver_stacks(store, pairs, ft):
    """The ``(members, P, Q, D, E)`` stacks that ``align_sentences`` hands the
    solver, and its result."""
    stacks = []
    solve = sinkhorn._solve_groups

    def capture(batch, *args):
        stacks.extend(batch)
        return solve(batch, *args)

    with mock.patch.object(sinkhorn, "_solve_groups", capture):
        alignments = align_sentences(store, pairs, ft, SinkhornSettings(max_iter=1))
    return stacks, alignments


def _word_lists(max_size):
    return st.lists(st.integers(1, 140).flatmap(
        lambda m: st.lists(st.sampled_from(_VOCAB), min_size=m, max_size=m)),
        min_size=1, max_size=max_size)


class TestGatheredMarginals:
    # Each sentence comes with its reversal, so every shape stacks at least two
    # rows; lengths up to 140 cross numpy's summation boundaries at 8 and 128.
    # Both sides draw on one vocabulary, so words are shared and repeated
    # within and across them; every question also meets a padding sentence.
    @settings(max_examples=60, deadline=None)
    @given(questions=_word_lists(3), sentences=_word_lists(4),
           counts=st.dictionaries(st.sampled_from(_VOCAB[:8]),
                                  st.integers(0, 2**53 - 1) | st.integers(0, 3)))
    def test_rows_equal_marginal_distribution_bitwise(self, questions, sentences, counts):
        # Words outside ``counts`` are unseen, and a count of 0 floors to 1 too.
        ft = FrequencyTable(counts=counts, num_questions=1)
        rng = np.random.default_rng(len(sentences))
        sents = [make_sentence(" ".join(ws)) for words in sentences
                 for ws in (words, words[::-1])]
        store, pairs = EmbeddingStore(dim=2), []
        for i, words in enumerate(questions):
            question = make_sentence(" ".join(words))
            question_key = (f"q{i}", QUESTION_WINDOW_ID, ROLE_Q)
            store.add_sentence(*question_key, rng.normal(size=(len(question.tokens), 2)))
            for j, s in enumerate(sents):
                store.add_sentence(f"q{i}", f"w{j}", ROLE_C, rng.normal(size=(len(s.tokens), 2)))
                pairs.append((question, s, question_key, (f"q{i}", f"w{j}", ROLE_C)))
            pairs.append((question, padding_sentence(), question_key, None))
        want = [marginal_distribution(content_tokens(s), ft) for s in sents]
        stacks, alignments = _solver_stacks(store, pairs, ft)
        rows = 0
        for members, P, Q, _, _ in stacks:
            for b, k in enumerate(members):
                question = pairs[k][0]
                assert P[b].tobytes() == marginal_distribution(content_tokens(question),
                                                               ft).tobytes()
                assert Q[b].tobytes() == want[k % (len(sents) + 1)].tobytes()
                rows += 1
        assert rows == len(questions) * len(sents)
        for k, (question, s, _, _) in enumerate(pairs):
            res = alignments[k]
            assert res.question_token_indices == tuple(content_token_indices(question))
            assert res.sentence_token_indices == (
                (0,) if s.is_padding else tuple(content_token_indices(s)))
            if s.is_padding:
                p = marginal_distribution(content_tokens(question), ft)
                assert res.plan.plan.shape == (len(p), 1)
                assert res.plan.plan.tobytes() == p.tobytes()


class TestShortRunSums:
    VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -3.5, 0.1,
                       1e300, -1e300, 1.5e307])

    @pytest.mark.parametrize("c", range(1, 9))
    def test_ordered_adds_equal_the_reduction(self, c):
        rng = np.random.default_rng(c)
        # Both sides of the run count below which the reduction is kept.
        for B, r in ((1, 3), (7, 5), (sinkhorn._FEW_ROWS, 1), (sinkhorn._FEW_ROWS // 2, 3)):
            for trial in range(4):
                t = rng.choice(self.VALUES, size=(B, r, c))
                if trial % 2:
                    t = np.where(rng.random(t.shape) < 0.5, t, rng.normal(size=t.shape))
                if trial == 3:
                    t[: B // 2] = -0.0
                out = np.full((B, r + 2), np.nan)
                sinkhorn._row_sums(t, out[:, 1 : r + 1])
                assert out[:, 1 : r + 1].tobytes() == t.sum(axis=2).tobytes()
                assert np.isnan(out[:, [0, r + 1]]).all()
