"""Span tracing for the benchmark's traced runs, installed from outside otrank.

otrank resolves these functions at call time, either as a module global or as
``module.attr``, so replacing the module attribute routes every call through a
wrapper without touching a source file. Each call records a span (name,
start, end, enclosing span). A span's self time is its duration less the
durations of its child spans; summed over all spans, self times equal the
duration of the root ``cli.main`` span.

A target that no longer exists is skipped, and each metric that needs it is
reported as missing (value null); the run goes on.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). The span name's prefix is the layer: the otrank
# module that defines the function, whichever module the call goes through.
TARGETS = (
    ("otrank.cli", "main", "cli.main"),
    ("otrank.cli", "load_corpus", "corpus.load_corpus"),
    ("otrank.cli", "load_embedding_store", "embeddings.load_embedding_store"),
    ("otrank.cli", "load_checkpoint", "training.load_checkpoint"),
    ("otrank.cli", "save_checkpoint", "training.save_checkpoint"),
    ("otrank.cli", "train", "training.train"),
    ("otrank.cli", "evaluate", "metrics.evaluate"),
    ("otrank.cli", "per_question_rows", "metrics.per_question_rows"),
    ("otrank.cli", "extract_instance_features", "model.extract_instance_features"),
    ("otrank.cli", "window_forward", "model.window_forward"),
    ("otrank.cli", "rank_candidates", "metrics.rank_candidates"),
    ("otrank.metrics", "extract_instance_features", "model.extract_instance_features"),
    ("otrank.metrics", "window_forward", "model.window_forward"),
    ("otrank.metrics", "rank_candidates", "metrics.rank_candidates"),
    ("otrank.training", "extract_instance_features", "model.extract_instance_features"),
    ("otrank.training", "window_forward", "model.window_forward"),
    ("otrank.training", "loss_and_gradients", "training.loss_and_gradients"),
    ("otrank.training", "adam_step", "training.adam_step"),
    ("otrank.training", "_dev_metrics", "training.dev_metrics"),
    ("otrank.training", "mi_forward", "mutual_info.mi_forward"),
    ("otrank.training", "mi_backward", "mutual_info.mi_backward"),
    ("otrank.model", "align_sentence", "sinkhorn.align_sentence"),
    ("otrank.sinkhorn", "sinkhorn_plan", "sinkhorn.sinkhorn_plan"),
)
# Pseudo-span around the observers below, so their cost lands in no otrank layer.
OBSERVE_SPAN = "trace.observe"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Observations:
    """Counts read from the arguments and results of traced calls."""

    def __init__(self):
        self.corpus_windows = 0
        self.store_records = 0
        self.store_bytes = 0
        self.ckpt_bytes = 0
        self.align_us: list[float] = []  # non-padding alignments only
        self.align_padding = 0
        self.align_keys: set[tuple[int, int]] = set()
        self.align_refs: list = []  # keeps the keyed objects alive, so ids stay unique
        self.iters: list[int] = []
        self.unconverged = 0
        self.max_violation = 0.0  # over converged plans


def _obs_load_corpus(o, dur, args, kwargs, result):
    o.corpus_windows += sum(len(inst.windows) for inst in result.instances)


def _obs_load_store(o, dur, args, kwargs, result):
    o.store_records += result.num_records
    o.store_bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _obs_checkpoint(o, dur, args, kwargs, result):
    o.ckpt_bytes = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _obs_align(o, dur, args, kwargs, result):
    # One (question, sentence) pair is one (question, window, role) alignment.
    question, sentence = _arg(args, kwargs, 0, "question"), _arg(args, kwargs, 1, "s")
    o.align_keys.add((id(question), id(sentence)))
    o.align_refs.append((question, sentence))
    if sentence.is_padding:
        o.align_padding += 1
    else:
        o.align_us.append(dur * 1e6)


def _obs_plan(o, dur, args, kwargs, result):
    o.iters.append(result.iterations_used)
    if not result.converged:
        o.unconverged += 1
        return
    p = np.asarray(_arg(args, kwargs, 0, "p"), dtype=np.float64)
    q = np.asarray(_arg(args, kwargs, 1, "q"), dtype=np.float64)
    plan = result.plan
    viol = max(np.max(np.abs(plan.sum(axis=1) - p)), np.max(np.abs(plan.sum(axis=0) - q)))
    o.max_violation = max(o.max_violation, float(viol))


OBSERVERS = {
    "corpus.load_corpus": _obs_load_corpus,
    "embeddings.load_embedding_store": _obs_load_store,
    "training.load_checkpoint": _obs_checkpoint,
    "training.save_checkpoint": _obs_checkpoint,
    "sinkhorn.align_sentence": _obs_align,
    "sinkhorn.sinkhorn_plan": _obs_plan,
}


class Tracer:
    """Installs the wrappers on demand and keeps the spans of one traced command."""

    def __init__(self):
        self._originals: list = []
        self.installed: set[str] = set()  # span names with at least one wrapped site
        self.missing: set[str] = set()  # targets that do not exist
        for mod_name, attr, span in TARGETS:
            if callable(getattr(importlib.import_module(mod_name), attr, None)):
                self.installed.add(span)
            else:
                self.missing.add(f"{mod_name}.{attr}")
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.obs = Observations()

    def install(self) -> None:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span, fn, OBSERVERS.get(span)))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        return idx

    def _wrap(self, span, fn, observe):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(span)
            self._stack.append(idx)
            self.starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if observe is not None:
                obs_idx = self._open(OBSERVE_SPAN)
                self.starts[obs_idx] = clock()
                observe(self.obs, self.ends[idx] - self.starts[idx], args, kwargs, result)
                self.ends[obs_idx] = clock()
            return result

        return traced

    def metrics(self, pauses=()) -> dict[str, float | None]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``pauses`` are (start, end) intervals the host speed sampler took. Each
        one lies wholly inside or outside any span, because the sampler runs
        between bytecodes; it counts as child time of the innermost span around
        it, so that no layer's self time includes it.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        for start, end in pauses:
            # Spans open in order, so the innermost one around a pause is the last
            # one opened before it, or one of that span's ancestors.
            idx = bisect.bisect_right(self.starts, start) - 1
            while idx >= 0 and self.ends[idx] < end:
                idx = self.parents[idx]
            if idx >= 0:
                child[idx] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durs: dict[str, list[float]] = defaultdict(list)
        layer: dict[str, float] = defaultdict(float)
        for name, d, c in zip(self.names, dur, child):
            total[name] += d
            own[name] += d - c
            durs[name].append(d)
            layer[name.split(".", 1)[0]] += d - c
        return _per_layer(self, total, own, durs, layer)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _steps_ms(durs) -> list[float]:
    # One batch is loss_and_gradients followed by its adam_step.
    grads, adam = durs["training.loss_and_gradients"], durs["training.adam_step"]
    return [1e3 * (g + a) for g, a in zip(grads, adam)]


# (metric, unit, span names it needs, value from (obs, total, own, durs, layer)).
PER_LAYER = (
    ("corpus.load_s", "s", ("corpus.load_corpus",), lambda o, t, s, d, l: t["corpus.load_corpus"]),
    ("corpus.us_per_window", "us", ("corpus.load_corpus",),
     lambda o, t, s, d, l: 1e6 * _ratio(t["corpus.load_corpus"], o.corpus_windows)),
    ("embeddings.load_s", "s", ("embeddings.load_embedding_store",),
     lambda o, t, s, d, l: t["embeddings.load_embedding_store"]),
    ("embeddings.records", "count", ("embeddings.load_embedding_store",),
     lambda o, t, s, d, l: o.store_records),
    ("embeddings.file_mb", "MB", ("embeddings.load_embedding_store",),
     lambda o, t, s, d, l: o.store_bytes / 1e6),
    ("embeddings.mb_per_s", "MB/s", ("embeddings.load_embedding_store",),
     lambda o, t, s, d, l: _ratio(o.store_bytes / 1e6, t["embeddings.load_embedding_store"])),
    ("sinkhorn.align_calls", "count", ("sinkhorn.align_sentence",),
     lambda o, t, s, d, l: len(d["sinkhorn.align_sentence"])),
    ("sinkhorn.align_padding_calls", "count", ("sinkhorn.align_sentence",),
     lambda o, t, s, d, l: o.align_padding),
    ("sinkhorn.align_us_p50", "us", ("sinkhorn.align_sentence",),
     lambda o, t, s, d, l: _pct(o.align_us, 50)),
    ("sinkhorn.align_us_p99", "us", ("sinkhorn.align_sentence",),
     lambda o, t, s, d, l: _pct(o.align_us, 99)),
    ("sinkhorn.align_self_s", "s", ("sinkhorn.align_sentence", "sinkhorn.sinkhorn_plan"),
     lambda o, t, s, d, l: s["sinkhorn.align_sentence"]),
    ("sinkhorn.solve_s", "s", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: t["sinkhorn.sinkhorn_plan"]),
    ("sinkhorn.iters_p50", "count", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: _pct(o.iters, 50)),
    ("sinkhorn.iters_p95", "count", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: _pct(o.iters, 95)),
    ("sinkhorn.iters_max", "count", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: max(o.iters, default=0)),
    ("sinkhorn.iters_total", "count", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: sum(o.iters)),
    ("sinkhorn.us_per_iter", "us", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: 1e6 * _ratio(t["sinkhorn.sinkhorn_plan"], sum(o.iters))),
    ("sinkhorn.unconverged", "count", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: o.unconverged),
    ("sinkhorn.max_violation", "mass", ("sinkhorn.sinkhorn_plan",),
     lambda o, t, s, d, l: o.max_violation),
    ("sinkhorn.distinct_ratio", "ratio", ("sinkhorn.align_sentence",),
     lambda o, t, s, d, l: _ratio(len(o.align_keys), len(d["sinkhorn.align_sentence"]))),
    ("sinkhorn.self_s", "s", (), lambda o, t, s, d, l: l["sinkhorn"]),
    ("model.forward_calls", "count", ("model.window_forward",),
     lambda o, t, s, d, l: len(d["model.window_forward"])),
    ("model.forward_us_p50", "us", ("model.window_forward",),
     lambda o, t, s, d, l: 1e6 * _pct(d["model.window_forward"], 50)),
    ("model.forward_us_p99", "us", ("model.window_forward",),
     lambda o, t, s, d, l: 1e6 * _pct(d["model.window_forward"], 99)),
    ("model.extract_self_s", "s", ("model.extract_instance_features", "sinkhorn.align_sentence"),
     lambda o, t, s, d, l: s["model.extract_instance_features"]),
    ("model.self_s", "s", (), lambda o, t, s, d, l: l["model"]),
    ("mutual_info.forward_s", "s", ("mutual_info.mi_forward",),
     lambda o, t, s, d, l: t["mutual_info.mi_forward"]),
    ("mutual_info.backward_s", "s", ("mutual_info.mi_backward",),
     lambda o, t, s, d, l: t["mutual_info.mi_backward"]),
    ("training.batches", "count", ("training.loss_and_gradients",),
     lambda o, t, s, d, l: len(d["training.loss_and_gradients"])),
    ("training.step_ms_p50", "ms", ("training.loss_and_gradients", "training.adam_step"),
     lambda o, t, s, d, l: _pct(_steps_ms(d), 50)),
    ("training.step_ms_p99", "ms", ("training.loss_and_gradients", "training.adam_step"),
     lambda o, t, s, d, l: _pct(_steps_ms(d), 99)),
    ("training.backward_self_s", "s",
     ("training.loss_and_gradients", "model.window_forward", "mutual_info.mi_forward",
      "mutual_info.mi_backward"),
     lambda o, t, s, d, l: s["training.loss_and_gradients"]),
    ("training.adam_s", "s", ("training.adam_step",),
     lambda o, t, s, d, l: t["training.adam_step"]),
    ("training.dev_eval_s", "s", ("training.dev_metrics",),
     lambda o, t, s, d, l: t["training.dev_metrics"]),
    ("training.ckpt_save_s", "s", ("training.save_checkpoint",),
     lambda o, t, s, d, l: t["training.save_checkpoint"]),
    ("training.ckpt_load_s", "s", ("training.load_checkpoint",),
     lambda o, t, s, d, l: t["training.load_checkpoint"]),
    ("training.ckpt_bytes", "bytes", ("training.save_checkpoint", "training.load_checkpoint"),
     lambda o, t, s, d, l: o.ckpt_bytes),
    ("training.self_s", "s", (), lambda o, t, s, d, l: l["training"]),
    ("metrics.evaluate_s", "s", ("metrics.evaluate",),
     lambda o, t, s, d, l: t["metrics.evaluate"]),
    ("metrics.per_question_s", "s", ("metrics.per_question_rows",),
     lambda o, t, s, d, l: t["metrics.per_question_rows"]),
    ("metrics.rank_us_p50", "us", ("metrics.rank_candidates",),
     lambda o, t, s, d, l: 1e6 * _pct(d["metrics.rank_candidates"], 50)),
    ("metrics.self_s", "s", (), lambda o, t, s, d, l: l["metrics"]),
    ("cli.self_s", "s", ("cli.main",), lambda o, t, s, d, l: s["cli.main"]),
    ("trace.self_sum_s", "s", ("cli.main",), lambda o, t, s, d, l: sum(l.values())),
    ("trace.observe_s", "s", (), lambda o, t, s, d, l: l["trace"]),
)


def _per_layer(tracer: Tracer, total, own, durs, layer) -> dict[str, float | None]:
    return {
        name: fn(tracer.obs, total, own, durs, layer)
        if all(span in tracer.installed for span in needs) else None
        for name, _unit, needs, fn in PER_LAYER
    }


UNITS = {name: unit for name, unit, _needs, _fn in PER_LAYER}
