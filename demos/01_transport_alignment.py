#!/usr/bin/env python3
"""Walkthrough of the optimal-transport word alignment.

We align a question against a candidate sentence using toy 2-D embeddings
placed by hand, so you can see exactly which words attract transport mass,
what the plan looks like, and how the sentence representation is pooled.
"""

import numpy as np

from otrank import (
    FrequencyTable,
    SinkhornSettings,
    align_sentence,
    cost_matrix,
    sinkhorn_plan,
)
from otrank.corpus import make_sentence
from otrank.sinkhorn import relevant_contexts, sentence_representations, transport_costs

# =========================================================================
# 1. Raw Sinkhorn on a tiny 2x3 problem.
#
# Two source points, three target points. The cost matrix holds pairwise
# Euclidean distances; the solver couples the uniform marginals while the
# entropy term (eps) keeps the plan smooth.
# =========================================================================

X = np.array([[0.0, 0.0], [4.0, 0.0]])
Y = np.array([[0.1, 0.0], [4.2, 0.1], [2.0, 3.0]])
D = cost_matrix(X, Y)
print("cost matrix:\n", np.round(D, 3))

p = np.array([0.5, 0.5])
q = np.array([0.4, 0.4, 0.2])
tp = sinkhorn_plan(p, q, D, eps=0.1 * D.mean(), max_iter=500, tol=1e-9)
print("converged:", tp.converged, "after", tp.iterations_used, "iterations")
print("plan:\n", np.round(tp.plan, 4))

# The plan is a coupling: its marginals reproduce p and q.
assert np.allclose(tp.plan.sum(axis=1), p, atol=1e-8)
assert np.allclose(tp.plan.sum(axis=0), q, atol=1e-8)

# Mass flows to nearby points: source 0 -> target 0, source 1 -> target 1.
assert tp.plan[0, 0] > tp.plan[0, 1]
assert tp.plan[1, 1] > tp.plan[1, 0]

# The post-solve steps take stacks of problems; [None] makes a stack of one.
print("transport cost:", round(transport_costs(tp.plan[None], D[None])[0], 4))

# Row-wise argmax picks the "relevant" target for each source point.
print("relevant targets:", np.flatnonzero(relevant_contexts(tp.plan[None])[0]).tolist())

# =========================================================================
# 2. Full sentence alignment.
#
# Words are tokenized and filtered (stopwords/punctuation drop out), the
# frequency table supplies the marginals, and the relevant-context mean
# becomes the sentence representation.
# =========================================================================

question = make_sentence("Which comet visits every century ?")
candidate = make_sentence("The comet returns once a century .")
print("\nquestion tokens kept:",
      [t.normalized for t in question.tokens if t.is_content])
print("candidate tokens kept:",
      [t.normalized for t in candidate.tokens if t.is_content])

# Hand-placed embeddings: "comet"<->"comet" and "century"<->"century" are
# close across the sentences; the other words sit elsewhere.
vocab_points = {
    "comet": [0.0, 0.0], "visits": [2.0, 1.0], "century": [4.0, 0.0],
    "returns": [2.2, 1.4], "once": [1.0, 3.0],
}
q_vecs = np.array([vocab_points.get(t.normalized, [9.0, 9.0]) for t in question.tokens])
c_vecs = np.array([vocab_points.get(t.normalized, [9.0, 9.0]) for t in candidate.tokens])

ft = FrequencyTable(counts={"comet": 3, "century": 2, "visits": 1}, num_questions=5)
res = align_sentence(question, candidate, q_vecs, c_vecs, ft,
                     SinkhornSettings(eps_scale=0.05, max_iter=2000, tol=1e-9))

kept = [candidate.tokens[j].normalized for j in res.sentence_token_indices]
print("alignment cost:", round(res.cost, 4))
print("relevant words:", [kept[j] for j in res.relevant])
print("pooled representation:", np.round(res.representation, 3))

# The matching words are picked up as relevant context.
assert "comet" in [kept[j] for j in res.relevant]
assert "century" in [kept[j] for j in res.relevant]

# Pooling is just the mean of the selected word vectors, read by row number.
kept_rows = np.array(res.sentence_token_indices)
mask = np.isin(np.arange(len(kept_rows)), res.relevant)
manual = sentence_representations(c_vecs, kept_rows[None], mask[None])[0]
assert np.allclose(manual, res.representation)

print("\nalignment demo OK")
