"""Measure one prepared workload in this process and print the result.

The workload's command runs in-process through ``otrank.cli.main`` until the
run's seconds are spent, at least twice so that outputs can be compared across
repetitions. Every repetition's outputs are checked; a repetition that exits
non-zero or fails a check counts as failed. Peak memory is read after the first
repetition, so it is that of a process that has run the command once, as a user
does. In untraced runs set-up is timed last: loading the workload's input files
through ``load_embedding_store``, ``load_corpus`` and ``load_checkpoint``,
repeated for a few seconds and reported as a mean (see ``time_setup``).

Untraced repetitions and set-up run with the host speed sampler on (see
``hostspeed``), and the end-to-end times are reported on the reference host:
wall time less the sampler's, times the host speed measured meanwhile. The raw
figures are printed on an earlier line.

With tracing on, repetitions alternate untraced and traced, and the per-layer
metrics come from the traced ones. The sampler runs in both, and its time is
in no layer. The tracing overhead is the traced wall time less the untraced
one at the traced repetitions' host speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import otrank
import otrank.cli
from otrank import load_checkpoint, load_corpus, load_embedding_store

from hostspeed import HostSpeed
from tracing import UNITS, Tracer

MIN_REPS = 2
MAX_REPS = 50
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_MIN_SECONDS = 2.5
MIN_DEV_MAP = 0.9
MAX_VIOLATION = 1e-6
# The per-question means and the report come from separate float summations.
MEAN_TOLERANCE = 1e-12


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "otrank": otrank.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def time_setup(manifest: dict, host: HostSpeed) -> tuple[list[float], float]:
    """Time of loading the workload's inputs, once per repetition, less the
    sampler's; and the host speed over all repetitions.

    A load is about as short as the sampling interval, so the host speed is
    known only over all of them; their mean, not their median, is the figure
    that speed applies to.
    """
    times: list[float] = []
    host.start()
    try:
        while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
        ):
            gc.collect()
            started = time.perf_counter()
            sampled = host.handler_s
            store = load_embedding_store(manifest["files"]["embeddings"])
            corpora = [load_corpus(path, split) for path, split in manifest["setup_corpora"]]
            ckpt = (load_checkpoint(manifest["setup_checkpoint"])
                    if manifest["setup_checkpoint"] else None)
            times.append(time.perf_counter() - started - (host.handler_s - sampled))
            del store, corpora, ckpt
    finally:
        host.stop()
    return times, host.speed()


def _labels(path: str) -> dict[str, dict[str, bool]]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[rec["question_id"]] = {c["id"]: bool(c["label"]) for c in rec["candidates"]}
    return out


def _average_precision(relevant: list[bool]) -> float:
    hits, acc = 0, 0.0
    for k, rel in enumerate(relevant, start=1):
        if rel:
            hits += 1
            acc += hits / k
    return acc / hits


def check_train(manifest: dict) -> tuple[list[str], float, dict]:
    files = manifest["files"]
    with open(files["log"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    problems = []
    if len(records) != manifest["params"]["epochs"]:
        problems.append(f"log has {len(records)} epoch records")
    best = max((r["dev_map"] for r in records if r["dev_map"] is not None), default=0.0)
    if best < MIN_DEV_MAP:
        problems.append(f"best dev MAP {best} < {MIN_DEV_MAP}")
    return problems, best, {"checkpoint": _digest(files["checkpoint"])}


def check_rerank(manifest: dict) -> tuple[list[str], float, dict]:
    files = manifest["files"]
    labels = _labels(files["heldout"])
    problems, aps, seen = [], [], set()
    with open(files["rankings"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    for row in rows:
        qid = row["question_id"]
        ranking = row["ranking"]
        if qid in seen or qid not in labels:
            problems.append(f"question {qid!r} unexpected or ranked twice")
            continue
        seen.add(qid)
        wids = [r["window_id"] for r in ranking]
        scores = [r["score"] for r in ranking]
        if sorted(wids) != sorted(labels[qid]):
            problems.append(f"question {qid!r}: windows not ranked exactly once")
            continue
        if not all(isinstance(s, float) and 0.0 < s < 1.0 for s in scores):
            problems.append(f"question {qid!r}: score outside (0, 1)")
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"question {qid!r}: ranking not in descending score order")
        relevant = [labels[qid][w] for w in wids]
        if any(relevant):
            aps.append(_average_precision(relevant))
    if seen != set(labels):
        problems.append(f"{len(set(labels) - seen)} questions missing from the rankings")
    test_map = sum(aps) / len(aps) if aps else 0.0
    return problems, test_map, {"rankings": _digest(files["rankings"])}


def check_eval(manifest: dict) -> tuple[list[str], float, dict]:
    files = manifest["files"]
    report = json.loads(Path(files["report"]).read_text("utf-8"))
    with open(files["per_question"], encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    problems = []
    if report["questions"] != len(rows) or not rows:
        problems.append(f"report counts {report['questions']} questions, TSV has {len(rows)}")
    else:
        for key, col in (("p_at_1", 1), ("map", 2), ("mrr", 3)):
            mean = sum(float(r[col]) for r in rows) / len(rows)
            if abs(mean - report[key]) > MEAN_TOLERANCE:
                problems.append(f"per-question mean {key} {mean!r} != report {report[key]!r}")
    digests = {"eval_report": _digest(files["report"]),
               "per_question": _digest(files["per_question"])}
    return problems, report["map"], digests


CHECKS = {"train": check_train, "rerank": check_rerank, "eval": check_eval}


def run(manifest: dict, seconds: float, trace: bool) -> dict:
    _emit({"environment": environment()})
    tracer = Tracer() if trace else None
    if tracer and tracer.missing:
        print(f"perfbench: trace targets missing: {sorted(tracer.missing)}", file=sys.stderr)
    check = CHECKS[manifest["params"]["command"]]
    host = HostSpeed()
    walls = {False: [], True: []}  # less the sampler's time
    speeds = {False: [], True: []}  # host speed during each repetition
    layer_reps: list[dict] = []
    quality, first_digests, failed = None, None, 0
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or (time.perf_counter() < deadline and reps < MAX_REPS):
        traced = bool(tracer) and reps % 2 == 1
        reps += 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        host.start()
        started = time.perf_counter()
        try:
            rc = otrank.cli.main(list(manifest["argv"]))
        except Exception:  # a crash is a failed repetition, not a crashed benchmark
            traceback.print_exc()
            rc = None
        finally:
            wall = time.perf_counter() - started
            host.stop()
            if traced:
                tracer.uninstall()
        wall -= host.handler_s
        speeds[traced].append(host.speed())
        walls[traced].append(wall)
        if reps == 1:  # the peak of a process that has run the command once
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"perfbench: repetition {reps} {'traced' if traced else 'untraced'} "
              f"wall {wall:.3f} s, host speed {speeds[traced][-1]:.3f}", file=sys.stderr)
        problems = [] if rc == 0 else [f"command exited with {rc}"]
        if rc == 0:
            try:
                found, value, digests = check(manifest)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found, value, digests = [f"unreadable output: {exc!r}"], None, None
            problems += found
            if first_digests is None:
                quality, first_digests = value, digests
            elif digests != first_digests:
                problems.append("outputs differ from the first repetition")
        if traced:
            layer = tracer.metrics(host.pauses)
            layer_reps.append(layer)
            if (layer["sinkhorn.max_violation"] or 0.0) > MAX_VIOLATION:
                problems.append(f"marginal violation {layer['sinkhorn.max_violation']!r}")
        if problems:
            failed += 1
            print(f"perfbench: repetition {reps} failed: {problems}", file=sys.stderr)

    _emit({"output_digests": first_digests})
    if trace:
        metrics = {}
        for name, unit in UNITS.items():
            values = [rep[name] for rep in layer_reps if rep[name] is not None]
            metrics[name] = {"value": statistics.median(values) if values else None,
                             "unit": unit}
        traced_wall = statistics.median(walls[True])
        traced_speed = statistics.median(speeds[True])
        untraced_wall = statistics.median(
            wall * speed for wall, speed in zip(walls[False], speeds[False])) / traced_speed
        metrics["host.speed_x"] = {"value": statistics.median(speeds[False] + speeds[True]),
                                   "unit": "x"}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    else:
        setup_times, setup_speed = time_setup(manifest, host)
        ref_walls = [wall * speed for wall, speed in zip(walls[False], speeds[False])]
        _emit({"raw": {"windows_per_s": manifest["work_windows"] / statistics.median(walls[False]),
                       "setup_s": statistics.mean(setup_times),
                       "host_speed_x": statistics.median(speeds[False]),
                       "setup_host_speed_x": setup_speed}})
        metrics = {
            "ref_windows_per_s": {
                "value": manifest["work_windows"] / statistics.median(ref_walls),
                "unit": "windows/s",
            },
            "setup_s": {"value": statistics.mean(setup_times) * setup_speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "map": {"value": quality if quality is not None else 0.0, "unit": "fraction"},
            "ok_ops_frac": {"value": (reps - failed) / reps, "unit": "fraction"},
        }
    return {"correct": failed == 0, "attempted": reps, "failed": failed, "metrics": metrics}
