"""otrank benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {train,rerank,eval_wide} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout, the directory holding
``src/otrank``. The inputs come from ``--seed`` alone. The launcher pins the
BLAS and OpenMP thread pools to one thread, writes the inputs (and, for
``rerank`` and ``eval_wide``, trains the checkpoint they score with) in one
child process, then measures in a second child that runs nothing but the
workload, so its peak memory is the workload's. The children run one after the other. Work
files live under ``.perfbench_work/`` and are removed at the end, also when
the launcher is terminated. The last line on stdout is the JSON result;
earlier lines record the environment, the digests of the output files and,
for untraced runs, the raw times behind the end-to-end times, which are
reported on a reference host (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train", "rerank", "eval_wide")
RUN_LIMIT_S = 170.0
PREPARE_LIMIT_S = 90.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: which child stage to run, and where its files live.
    parser.add_argument("--stage", choices=("prepare", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_stage(args) -> int:
    import otrank

    src = Path.cwd() / "src"
    if Path(otrank.__file__).resolve().parent != (src / "otrank").resolve():
        sys.stderr.write(f"perfbench: otrank imported from {otrank.__file__}, not {src}\n")
        return 2
    workdir = Path(args.workdir)
    if args.stage == "prepare":
        from inputs import prepare

        prepare(args.workload, args.seed, workdir)
        return 0
    from measure import run

    manifest = json.loads((workdir / "manifest.json").read_text("utf-8"))
    result = run(manifest, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


def _terminated(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


def launch(args) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminated)
    root = Path.cwd()
    src = root / "src"
    if not (src / "otrank" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no otrank sources under {src}; "
                         "run from the root of a checkout\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    workbase = root / ".perfbench_work"
    workdir = workbase / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    child = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        workdir.mkdir(parents=True)
        # The prepare stage's stdout is not part of the result.
        prep = subprocess.run([*child, "--stage", "prepare"], env=env, cwd=root,
                              stdout=sys.stderr, timeout=PREPARE_LIMIT_S)
        if prep.returncode != 0:
            sys.stderr.write(f"perfbench: preparation failed ({prep.returncode})\n")
            return 1
        measured = subprocess.run(
            [*child, "--stage", "measure"], env=env, cwd=root, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
        )
        lines = measured.stdout.splitlines()
        if measured.returncode != 0 or not lines:
            sys.stderr.write(measured.stdout)
            sys.stderr.write(f"perfbench: measurement failed ({measured.returncode})\n")
            return 1
        json.loads(lines[-1])
        sys.stdout.write(measured.stdout)
        return 0
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workbase.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_stage(args) if args.stage else launch(args)


if __name__ == "__main__":
    sys.exit(main())
