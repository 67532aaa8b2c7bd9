"""Security-curve benchmark for ``clfsec evaluate``.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Without ``--workload`` (or with ``--workload all``) the three workloads
run in turn, each printing its summary and its result line.

Run from the root of a source checkout.  The script generates the
workload's inputs and config from ``--seed`` (once untimed, then again for
half a second before each operation, timing each generation: ``setup_s``
is their mean), runs one untimed warm-up operation, then runs ``clfsec
evaluate --config`` as a child process in a closed loop with one client
(the next run starts when the previous one has exited) while the timed
operations are expected to add up to at most ``--seconds``.  Every
operation is checked (exit status, curve shape and range, lane invariant,
byte-identical curve across the run, stored reference at the reference
seed) and runs under an address-space ceiling, so a memory regression
shows as a failed operation with its reason.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced operations with operations run through ``trace_child.py``, which
records a span around each call into the library's layers, and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen
from tracing import BOOKKEEPING, ancestors_named, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-up is timed for at least this long before each operation, so its
# samples spread over the whole run: the host's speed drifted by up to 2x
# in spells of seconds to tens of seconds, and generations timed back to
# back (0.1 s each on bio-scores) caught only one spell.  setup_s is the
# mean of the samples, not their median: with two speeds the median jumps
# from one to the other as their mix moves past half, the mean moves with it.
SETUP_SECONDS = 0.5
# a whole run, set-up included, ends well inside 180 s
RUN_DEADLINE_S = 165.0
REFERENCE_SEED = 1
# One BLAS thread per child: with bio-scores' two sweep threads a run then
# stays within nproc = 2, and idle BLAS threads spinning on the second CPU
# made the timings noisier.
CHILD_BLAS_THREADS = "1"

_COMMON_LAYERS = [
    "data_model.resample", "data_model.build_pools", "data_model.sample_dataset",
    "classifiers.train", "classifiers.score", "attacks.specs",
    "evaluation.sweep", "evaluation.roc", "evaluation.metric",
]

# Why each workload is here: see README.md.  ``ceiling_mb`` bounds the
# child's address space (RLIMIT_AS), about 1.7x the virtual peak measured
# when the benchmark was written.  ``cli_self_max`` caps ``cli.self_s`` as a
# share of a traced operation's wall time, about 3x its share then, so work
# moved out of the traced layers fails the operation.
WORKLOADS = {
    "spam-email": {
        "strengths": gen.SPAM_N_MAX, "k": 1, "range": (0.0, 0.1), "invariant": "spam",
        "collect_roc": [], "jobs": 1, "ceiling_mb": 2048, "cli_self_max": 0.07,
        "layers": _COMMON_LAYERS + ["ingestion.tokenize", "ingestion.ig_select",
                                    "ingestion.vectorize", "attacks.gwi_bwo"],
    },
    "ids-payload": {
        "strengths": gen.IDS_P_MAX, "k": 1, "range": (0.0, 0.1), "invariant": "ids",
        "collect_roc": [], "jobs": 1, "ceiling_mb": 2560, "cli_self_max": 0.05,
        "layers": _COMMON_LAYERS + ["ingestion.load"],
    },
    "bio-scores": {
        "strengths": gen.BIO_SPOOF, "k": gen.BIO_FOLDS * gen.BIO_REPETITIONS, "range": (0.0, 1.0),
        "invariant": "bio", "collect_roc": gen.BIO_COLLECT_ROC, "jobs": gen.BIO_JOBS,
        "ceiling_mb": 1024, "cli_self_max": 0.15,
        "layers": _COMMON_LAYERS + ["ingestion.load", "attacks.spoof", "evaluation.collect_roc"],
    },
}

# per-layer metrics: name -> unit; the ``*_s`` ones are self times
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "ingestion.tokenize_s": "s",
    "ingestion.docs": "count",
    "ingestion.ig_select_s": "s",
    "ingestion.terms_ranked": "count",
    "ingestion.vectorize_s": "s",
    "ingestion.load_s": "s",
    "ingestion.rows": "count",
    "ingestion.matrix_mb": "MB",
    "data_model.resample_s": "s",
    "data_model.build_pools_s": "s",
    "data_model.build_pools_calls": "count",
    "data_model.sample_dataset_s": "s",
    "data_model.sample_dataset_calls": "count",
    "data_model.sampled_rows": "count",
    "classifiers.train_s": "s",
    "classifiers.train_calls": "count",
    "classifiers.train_rows": "count",
    "classifiers.train_useful_ratio": "ratio",
    "classifiers.support_vectors": "count",
    "classifiers.score_s": "s",
    "classifiers.score_rows": "count",
    "classifiers.kernel_gflop": "GFLOP",
    "attacks.gwi_bwo_s": "s",
    "attacks.attacked_rows": "count",
    "attacks.flips": "count",
    "attacks.spoof_s": "s",
    "attacks.specs_s": "s",
    "evaluation.sweep_s": "s",
    "evaluation.sweep_self_s": "s",
    "evaluation.points": "count",
    "evaluation.roc_s": "s",
    "evaluation.roc_calls": "count",
    "evaluation.metric_s": "s",
    "evaluation.collect_roc_s": "s",
    "evaluation.wait_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.overhead": "ratio",
}
_SELF_TIMED = [
    "ingestion.tokenize", "ingestion.ig_select", "ingestion.vectorize", "ingestion.load",
    "data_model.resample", "data_model.build_pools", "data_model.sample_dataset",
    "classifiers.train", "classifiers.score", "attacks.gwi_bwo", "attacks.spoof",
    "attacks.specs", "evaluation.roc", "evaluation.metric", "evaluation.collect_roc",
    BOOKKEEPING,
]
_CALLS = ["data_model.build_pools", "data_model.sample_dataset", "classifiers.train", "evaluation.roc"]
_COUNTS = [
    "ingestion.docs", "ingestion.terms_ranked", "ingestion.rows", "ingestion.matrix_mb",
    "data_model.sampled_rows", "classifiers.train_rows", "classifiers.support_vectors",
    "classifiers.score_rows", "classifiers.kernel_gflop", "attacks.attacked_rows",
    "attacks.flips", "evaluation.points",
]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": f"{CHILD_BLAS_THREADS} (OPENBLAS_NUM_THREADS of each child)",
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = CHILD_BLAS_THREADS
    return env


def _spawn_and_wait(cmd, cwd, stdout_path, stderr_path, ceiling_mb, timeout_s) -> dict:
    """Run ``cmd`` through ``spawn.py``; returns its report (see there)."""
    spawner = [sys.executable, str(BENCH_DIR / "spawn.py"), str(ceiling_mb), str(timeout_s),
               str(stdout_path), str(stderr_path), "--", *cmd]
    # spawn.py enforces the timeout; this one only guards against spawn.py
    # itself hanging, and kills its whole session, the operation included
    with subprocess.Popen(spawner, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout_s + 30.0)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited with {proc.returncode}")
    return json.loads(out)


def _failure_reason(code: int, timed_out: bool, stderr_text: str, ceiling_mb: int) -> str:
    if timed_out:
        return "timed out"
    if code < 0:
        return f"killed by signal {-code}"
    if "MemoryError" in stderr_text or "Unable to allocate" in stderr_text:
        return f"memory ceiling of {ceiling_mb} MB address space exceeded"
    last = stderr_text.strip().splitlines()[-1:] or ["no message"]
    return f"exit code {code}: {last[0][:200]}"


def run_operation(workload: str, seed: int, inputs: Path, scratch: Path, traced: bool,
                  timeout_s: float) -> dict:
    """One ``evaluate`` run; returns its record (wall, rss, problems, curve, layers)."""
    lane = WORKLOADS[workload]
    out_dir = inputs / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_path = scratch / "trace.json"
    trace_path.unlink(missing_ok=True)
    evaluate = ["evaluate", "--config", "config.yaml"]
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(trace_path)] + evaluate
    else:
        cmd = [sys.executable, "-m", "clfsec.cli"] + evaluate
    stdout_path, stderr_path = scratch / "stdout.txt", scratch / "stderr.txt"
    spawn = _spawn_and_wait(cmd, inputs, stdout_path, stderr_path, lane["ceiling_mb"], timeout_s)
    wall = spawn["wall_s"]
    record = {"traced": traced, "wall_s": wall, "cpu_s": spawn["cpu_s"],
              "rss_mb": spawn["maxrss_kb"] / 1024.0,
              "problems": [], "curve": None, "layers": None}
    code = os.waitstatus_to_exitcode(spawn["status"])
    if code != 0:
        stderr_text = stderr_path.read_text(encoding="utf-8", errors="replace")
        record["problems"].append(
            _failure_reason(code, spawn["timed_out"], stderr_text, lane["ceiling_mb"])
        )
        return record
    record["curve"], problems = check.check_output(out_dir, lane, workload, seed)
    record["problems"] += problems
    if traced:
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        record["layers"], problems = layer_metrics(doc, wall, spawn["spawned"], lane)
        record["problems"] += problems
    return record


# ---------------------------------------------------------------------------
# per-layer metrics of one traced operation
# ---------------------------------------------------------------------------


def layer_metrics(doc: dict, wall: float, spawned: float, lane: dict) -> tuple[dict, list[str]]:
    spans = doc["spans"]
    problems = []
    if not Path(doc["clfsec_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"child imported clfsec from {doc['clfsec_file']}, not from this checkout")
    summary = summarize(spans, doc["main_thread"])
    calls, self_s = summary["calls"], summary["self_s"]
    for name in lane["layers"]:
        if calls.get(name, 0) == 0:
            problems.append(f"layer span {name} recorded nothing")
    startup = doc["main_entered"] - spawned
    m = {
        "cli.startup_s": startup,
        "cli.self_s": wall - startup - summary["main_covered_s"],
        "evaluation.sweep_s": summary["total_s"].get("evaluation.sweep", 0.0),
        "evaluation.sweep_self_s": self_s.get("evaluation.sweep", 0.0),
        "evaluation.wait_s": summary["wait_in_sweep_s"],
    }
    for name in _SELF_TIMED:
        m[f"{name}_s"] = self_s.get(name, 0.0)
    for name in _CALLS:
        m[f"{name}_calls"] = float(calls.get(name, 0))
    for name in _COUNTS:
        m[name] = float(doc["counts"].get(name, 0.0))
    trains = [s[0] for s in spans if s[3] == "classifiers.train"]
    useful = ancestors_named(spans, "evaluation.sweep")
    m["classifiers.train_useful_ratio"] = (
        sum(1 for t in trains if t in useful) / len(trains) if trains else 0.0
    )
    # cli.self_s is the rest of the wall time, so the layer self times and it
    # account for the whole operation; it must stay small
    if m["cli.self_s"] > lane["cli_self_max"] * wall:
        problems.append(f"cli.self_s is {m['cli.self_s']:.4f} s, over {lane['cli_self_max']:.0%} "
                        f"of the {wall:.4f} s operation: time outside every traced layer")
    if summary["worker_self_s"] > lane["jobs"] * m["evaluation.sweep_s"] + 1e-3:
        problems.append("worker-thread self times exceed jobs x sweep time")
    return m, problems


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def time_setup(workload: str, seed: int, inputs: Path, hashes: dict) -> tuple[list[float], list[str]]:
    """Time generations into ``inputs``; returns (times, problems).

    The inputs already exist there, so every timed generation writes over
    existing files whatever the checkout held before.  Each must hash as
    ``hashes``.  Runs until the times add up to SETUP_SECONDS.
    """
    times, problems = [], []
    while sum(times) < SETUP_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        got = gen.write_workload(workload, seed, inputs)
        times.append(time.perf_counter() - t0)
        if got != hashes:
            problems.append("the generator wrote different inputs for the same seed")
    return times, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    compileall.compile_dir(str(ROOT / "src" / "clfsec"), quiet=1)
    # Inputs are written over the previous run's files of the same names and
    # kept: on ext4, creating thousands of files right after deleting as many
    # costs seconds of kernel time, which made set-up time depend on what ran
    # before.  One run at a time per checkout.
    work = BENCH_DIR / "_work" / workload
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    hashes = gen.write_workload(workload, seed, inputs)
    setup_times, setup_problems = [], []

    def operation(traced: bool) -> dict:
        times, problems = time_setup(workload, seed, inputs, hashes)
        setup_times.extend(times)
        setup_problems.extend(problems)
        timeout = RUN_DEADLINE_S - (time.monotonic() - started)
        return run_operation(workload, seed, inputs, work, traced, timeout)

    # The first operation of a run ran up to 30% slower than the ones after
    # it; it is checked like the others but left out of the timings.
    warmup = operation(False)
    # Closed loop: start another operation while the timed operations are
    # expected to add up to at most --seconds (and, when tracing, until both
    # kinds have run).  The set-up timed between them does not count.
    timed = []
    while time.monotonic() - started < RUN_DEADLINE_S:
        timed.append(operation(trace and len(timed) % 2 == 1))
        walls = [r["wall_s"] for r in timed]
        expected_end = sum(walls) + statistics.median(walls)
        both_kinds = len({r["traced"] for r in timed}) == 2
        if expected_end > seconds and (not trace or both_kinds):
            break

    records = [warmup] + timed
    first = next((r["curve"] for r in records if r["curve"] is not None), None)
    for r in records:
        if r["curve"] is not None and r["curve"] != first:
            r["problems"].append("curve CSV differs from the run's first operation")
    warmup["problems"] += setup_problems
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_times": setup_times,
        "hashes": hashes,
        "warmup": warmup,
        "timed": timed,
    }


def _median(values):
    return statistics.median(values) if values else None


def metrics_of(result: dict) -> dict:
    """The end-to-end metrics (untraced) or the per-layer ones (traced)."""
    untraced = [r for r in result["timed"] if not r["traced"]]
    if not result["trace"]:
        return {
            "evaluate_s": {"value": _median([r["wall_s"] for r in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["rss_mb"] for r in untraced]), "unit": "MB"},
            "setup_s": {"value": statistics.fmean(result["setup_times"]), "unit": "s"},
        }
    traced = [r for r in result["timed"] if r["traced"] and r["layers"] is not None]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            t, u = _median([r["wall_s"] for r in traced]), _median([r["wall_s"] for r in untraced])
            value = t / u if t is not None and u is not None else None
        else:
            value = _median([r["layers"][name] for r in traced])
        out[name] = {"value": value, "unit": unit}
    return out


def _fmt(value, digits=4):
    return "n/a" if value is None else f"{value:.{digits}f}"


def report(result: dict, env: dict) -> dict:
    """Print the human-readable summary; returns the final JSON object."""
    records = [result["warmup"]] + result["timed"]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    metrics = metrics_of(result)
    walls = [r["wall_s"] for r in result["timed"] if not r["traced"]]
    print(f"workload={result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"operations={attempted} (closed loop, 1 client; the first is an untimed warm-up)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, digest in result["hashes"].items():
        print(f"input sha256 {name} {digest}")
    pct, tail = tail_percentile(walls)
    tail_text = f"p{pct:.0f}={tail:.4f} s" if pct is not None else "no tail percentile (< 11 samples)"
    print(f"evaluate_s = {_fmt(_median(walls))} s (median; {tail_text}; n={len(walls)} untraced)")
    rss = _median([r["rss_mb"] for r in result["timed"] if not r["traced"]])
    print(f"peak_rss_mb = {_fmt(rss, 1)} MB (median of the children's rusage)")
    print(f"error_rate = {failed / attempted:.4f} ratio ({failed} failed / {attempted} attempted)")
    setup = result["setup_times"]
    print(f"setup_s = {_fmt(statistics.fmean(setup))} s (mean of {len(setup)} timed generations, "
          f"{min(setup):.4f} to {max(setup):.4f} s)")
    for i, r in enumerate(records):
        kind = "warm-up" if i == 0 else "traced" if r["traced"] else "untraced"
        print(f"operation {i} {kind} wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"rss_mb={r['rss_mb']:.1f}")
        for p in r["problems"]:
            print(f"operation {i} failed: {p}")
    if result["trace"]:
        for name, m in metrics.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name} = {value} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "clfsec" / "cli.py").is_file():
        print(f"error: no clfsec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
