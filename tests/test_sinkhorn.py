"""Optimal transport: costs, plans, relevant context, sentence pooling."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrank.corpus import ROLE_CANDIDATE, ROLE_PREV, make_sentence, padding_sentence
from otrank.embeddings import QUESTION_WINDOW_ID, ROLE_C, ROLE_Q
from otrank.sinkhorn import (
    NonFiniteCostError,
    SinkhornSettings,
    align_sentence,
    align_sentences,
    cost_matrix,
    relevant_context,
    sentence_representation,
    sinkhorn_plan,
    sinkhorn_plans,
    transport_cost,
)

from oracles import (
    euclidean_cost_oracle,
    lp_transport_oracle,
    mean_oracle,
    sinkhorn_plan_loop,
    transport_cost_oracle,
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
            cost = transport_cost(tp.plan, D)
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
                costs.append(transport_cost(tp.plan, D))
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
    or more problems; some marginals have zero entries."""
    shape = st.tuples(st.integers(1, 10), st.integers(1, 10))
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
            lambda: [sinkhorn_plan_loop(*problem, max_iter, tol) for problem in problems],
        )
        assert got_warnings == want_warnings
        for tp, (plan, iterations, converged, violation) in zip(got, want):
            # When unconverged, ``plan`` is the best iterate.
            np.testing.assert_array_equal(tp.plan, plan, strict=True)
            assert tp.iterations_used == iterations
            assert tp.converged == converged
            assert tp.violation == violation

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
        with pytest.raises(NonFiniteCostError, match="problem 2") as info:
            sinkhorn_plans([p] * 3, [p] * 3, [D, D, bad], [0.1] * 3)
        assert info.value.index == 2

    def test_mismatched_batch_lengths_rejected(self):
        with pytest.raises(ValueError, match="one p, q"):
            sinkhorn_plans([np.ones(1)], [], [np.ones((1, 1))], [0.1])


class TestTransportCost:
    def test_single_cell(self):
        assert transport_cost(np.array([[1.0]]), np.array([[2.5]])) == 2.5

    def test_zero_cost_matrix(self):
        assert transport_cost(np.full((3, 2), 0.2), np.zeros((3, 2))) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        plan = rng.random((2, 2))
        D = rng.random((2, 2))
        assert transport_cost(plan, D) == pytest.approx(
            transport_cost_oracle(plan, D), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            transport_cost(np.zeros((2, 2)), np.zeros((2, 3)))


class TestRelevantContext:
    def test_two_rows_two_columns(self):
        assert relevant_context(np.array([[0.1, 0.4], [0.3, 0.2]])) == [0, 1]

    def test_union_collapses(self):
        assert relevant_context(np.array([[0.5, 0.1], [0.9, 0.2]])) == [0]

    def test_tie_breaks_to_smallest_index(self):
        assert relevant_context(np.array([[0.25, 0.25]])) == [0]

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            relevant_context(np.zeros((0, 3)))


class TestSentenceRepresentation:
    def test_mean_of_two(self):
        rep = sentence_representation([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        np.testing.assert_allclose(rep, [0.5, 0.5])

    def test_singleton(self):
        rep = sentence_representation([[1.0, 2.0], [3.0, 4.0]], [0])
        np.testing.assert_array_equal(rep, [1.0, 2.0])

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(10)
        vecs = rng.normal(size=(5, 3))
        idx = [0, 2, 4]
        np.testing.assert_allclose(
            sentence_representation(vecs, idx), mean_oracle(vecs.tolist(), idx), atol=1e-12
        )

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sentence_representation(np.zeros((2, 2)), [])


class TestAlignSentence:
    def test_self_alignment_near_zero_cost(self, tiny_ft):
        q = make_sentence("galaxies collide slowly", ROLE_CANDIDATE)
        rng = np.random.default_rng(11)
        vecs = 3.0 * rng.normal(size=(3, 4))
        res = align_sentence(q, q, vecs, vecs, tiny_ft,
                             SinkhornSettings(eps_scale=0.02, max_iter=5000, tol=1e-10))
        assert res.cost == pytest.approx(0.0, abs=1e-6)
        assert res.relevant == (0, 1, 2)

    def test_padding_sentence_rule(self, tiny_corpus, tiny_store, tiny_ft):
        inst = tiny_corpus.instances[0]
        qv = tiny_store.sentence_vectors("q1", QUESTION_WINDOW_ID, ROLE_Q)
        res = align_sentence(inst.question, padding_sentence(ROLE_PREV), qv, None, tiny_ft)
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
            tiny_store.sentence_vectors("q1", QUESTION_WINDOW_ID, ROLE_Q),
            tiny_store.sentence_vectors("q1", "q1-w1", ROLE_C),
            tiny_ft,
        )
        assert res.question_token_indices == (1, 5)  # planet, moons
        assert res.sentence_token_indices == (0, 1, 3, 5, 6)
        assert res.relevant == (0, 4)
        assert res.plan.converged
        assert res.cost == pytest.approx(1.9527314514996632, abs=1e-9)
        golden_plan = np.array(
            [
                [0.0027973150021331607, 0.15903277686147163, 0.11308892136556371,
                 0.025127348223622135, 0.1999527007921437],
                [0.19720220375644246, 0.040967515405147946, 0.08691114343677939,
                 0.17487228108881767, 4.779406587746399e-05],
            ]
        )
        np.testing.assert_allclose(res.plan.plan, golden_plan, atol=1e-9)
        golden_rep = np.array(
            [-0.522211604129839, 0.0555748933252907, 0.8356374732888329,
             -0.5226464323139788]
        )
        np.testing.assert_allclose(res.representation, golden_rep, atol=1e-12)

    def test_stopword_only_sentence_uses_fallback(self, tiny_ft):
        q = make_sentence("galaxies collide", ROLE_CANDIDATE)
        s = make_sentence("it is", ROLE_CANDIDATE)
        rng = np.random.default_rng(12)
        res = align_sentence(q, s, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), tiny_ft)
        assert res.sentence_token_indices == (0, 1)

    def test_vector_count_mismatch(self, tiny_ft):
        q = make_sentence("galaxies collide", ROLE_CANDIDATE)
        s = make_sentence("stars merge", ROLE_CANDIDATE)
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="tokens but"):
            align_sentence(q, s, rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), tiny_ft)


class TestAlignSentences:
    def test_batch_matches_pair_by_pair(self, tiny_corpus, tiny_store, tiny_ft):
        pairs = []
        for inst in tiny_corpus.instances:
            qv = tiny_store.sentence_vectors(inst.question_id, QUESTION_WINDOW_ID, ROLE_Q)
            for w in inst.windows:
                for sent, role in ((w.cand, "c"), (w.prev, "p"), (w.next, "n")):
                    sv = None if sent.is_padding else tiny_store.sentence_vectors(
                        inst.question_id, w.id, role)
                    pairs.append((inst.question, sent, qv, sv))
        batch = align_sentences(pairs, tiny_ft)
        assert len(batch) == len(pairs)
        for res, pair in zip(batch, pairs):
            alone = align_sentence(*pair, tiny_ft)
            np.testing.assert_array_equal(res.plan.plan, alone.plan.plan)
            np.testing.assert_array_equal(res.representation, alone.representation)
            assert res.cost == alone.cost
            assert res.relevant == alone.relevant

    def test_non_finite_vector_names_the_pair(self, tiny_ft):
        q = make_sentence("galaxies collide", ROLE_CANDIDATE)
        s = make_sentence("stars merge", ROLE_CANDIDATE)
        rng = np.random.default_rng(15)
        qv, good = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        bad = good.copy()
        bad[1, 2] = np.inf
        pad = padding_sentence(ROLE_PREV)
        with pytest.raises(NonFiniteCostError) as info:
            align_sentences([(q, s, qv, good), (q, pad, qv, None), (q, s, qv, bad)], tiny_ft)
        assert info.value.index == 2
