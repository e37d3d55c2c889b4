"""End-to-end and per-layer benchmark of the decomposition → oracle → serving path.

    python3 perfbench/run.py --workload road-weighted --seed 3 --seconds 60 --trace 0

Runs a fixed number of jobs (``perfbench/job.py``), each in a fresh
single-threaded process, on sub-seeds derived from ``--seed``; the number of
jobs follows from ``--seconds`` and the workload's per-job budget, so the
inputs and quality values are functions of (code, seed, seconds) alone, and
times are reported at reference CPU speed (see ``job.Speedometer``).

``--trace 0`` prints the end-to-end metrics: timings are medians over the
jobs, latency percentiles are pooled over every replayed batch, and quality
ratios are means over the jobs.  ``--trace 1`` runs each sub-seed twice,
untraced then traced, and prints the per-layer metrics (medians over the
traced jobs) plus the tracing overhead; spans land in ``perfbench/out/``.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` count jobs (a job fails if it crashes or any correctness check
does), ``metrics`` maps names to ``{"value", "unit"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from job import CHUNK_BATCHES
from workloads import WORKLOADS, derive_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Run seconds budgeted per job: ``--seconds // JOB_BUDGET_S`` jobs run (at
#: least two, or one untraced/traced pair), so the job count is fixed by the
#: arguments, never by how fast the machine happens to be.  A job with its
#: checks takes about 8 s on ``social`` and 4 s on ``road-weighted`` (2-core
#: VM): 6 and 12 jobs per 60 s run.
JOB_BUDGET_S = {"social": 9.5, "road-weighted": 5.0}
MAX_JOBS = 16
#: Query batches a run replays, split evenly over its jobs and pooled for the
#: latency percentiles: ≥30 lie beyond the p99, so one job's stall cannot set it.
RUN_BATCHES = 3072
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "diameter_s": "s",
    "oracle_build_s": "s",
    "query_qps": "queries/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "diameter_ratio": "ratio",
    "oracle_stretch": "ratio",
    "mr_rounds": "rounds",
}

#: Per-layer metric units by suffix or name; the rest are counts.
_LAYER_UNITS = {"_s": "s", "_qps": "queries/s", "_mb": "MB", "_pct": "%"}
_RATIO_LAYERS = {"decompose.arcs_per_node", "kernels.pull_share"}


def layer_unit(name: str) -> str:
    if name in _RATIO_LAYERS:
        return "ratio"
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def job_env() -> dict:
    """One thread everywhere, the checkout's sources, and no ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(workload: str, seed: int, batches: int, trace_path, deadline: float):
    """Run one job process; returns its result dict, or an error string."""
    command = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
               "--batches", str(batches)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    timeout = deadline - time.monotonic()
    if timeout < 5:
        return "no time left to start the job"
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=job_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return f"job timed out after {timeout:.0f}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"job exited with code {proc.returncode}"
    return json.loads(lines[-1])


def code_digest() -> str:
    """Hash of the program and benchmark sources (keys the determinism record)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(workload: str, jobs: list) -> list:
    """Same sub-seed and log length ⇒ same answers, within this run and
    against earlier runs."""
    errors = []
    record_path = OUT / "determinism.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    prefix = code_digest()
    for job in jobs:
        fingerprint = [job["checksum"], job["k"], job["lower_bound"], job["upper_bound"],
                       job["delta_ref"], job["oracle_stretch"], job["mr_rounds"]]
        key = f"{prefix}:{workload}:{job['seed']}:{job['queries']}"
        seen = record.setdefault(key, fingerprint)
        if seen != fingerprint:
            errors.append(f"seed {job['seed']}: {fingerprint} differs from {seen}")
            job["checks"]["deterministic"] = False
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=0))
    tmp.replace(record_path)
    return errors


def end_to_end(jobs: list) -> dict:
    values = {
        name: statistics.median(job[name] for job in jobs)
        for name in ("setup_s", "diameter_s", "oracle_build_s", "total_s", "peak_rss_mb")
    }
    for name in ("diameter_ratio", "oracle_stretch", "mr_rounds"):
        values[name] = statistics.fmean(job[name] for job in jobs)
    batch_ms = np.concatenate([job["batch_ms"] for job in jobs])
    values["query_qps"] = sum(job["queries"] for job in jobs) / (batch_ms.sum() / 1e3)
    values["query_p50_ms"], values["query_p99_ms"] = np.percentile(batch_ms, [50, 99]).tolist()
    return {name: values[name] for name in END_TO_END}


def per_layer(untraced: list, traced: list) -> dict:
    names = sorted(set().union(*(job["layers"] for job in traced)))
    values = {
        name: statistics.median(job["layers"][name] for job in traced if name in job["layers"])
        for name in names
    }
    layers_s = values.pop("trace.layers_s")
    stages_s = values.pop("trace.stages_s")
    plain_total = statistics.median(job["total_s"] for job in untraced)
    traced_total = statistics.median(job["total_s"] for job in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_total / plain_total - 1.0)
    values["trace.coverage_pct"] = 100.0 * layers_s / stages_s
    values["trace.gap_s"] = stages_s - layers_s
    return values


def describe(job: dict) -> str:
    return (
        f"job seed={job['seed']} traced={int(job['traced'])} n={job['n']} m={job['m']} "
        f"k={job['k']} batches={len(job['batch_ms'])} setup={job['setup_s']:.3f}s "
        f"diameter={job['diameter_s']:.3f}s oracle={job['oracle_build_s']:.3f}s "
        f"serve={job['serve_s']:.3f}s total={job['total_s']:.3f}s "
        f"(wall {job['net_s']['total']:.3f}s, loop {job['loop_us']:.0f}us) "
        f"rss={job['peak_rss_mb']:.0f}MB ratio={job['diameter_ratio']:.4f} "
        f"stretch={job['oracle_stretch']:.4f} rounds={job['mr_rounds']} checks={job['checks']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    per_job = JOB_BUDGET_S[args.workload] * (2 if args.trace else 1)
    count = min(MAX_JOBS, max(1 if args.trace else 2, int(args.seconds // per_job)))
    processes = count * (2 if args.trace else 1)
    batches = -(-RUN_BATCHES // (processes * CHUNK_BATCHES)) * CHUNK_BATCHES
    OUT.mkdir(exist_ok=True)
    untraced, traced, errors = [], [], []
    attempted = 0
    for index in range(count):
        seed = derive_seed(args.seed, f"job{index}")
        plan = [(untraced, None)]
        if args.trace:
            plan.append((traced, OUT / f"trace-{args.workload}-{args.seed}-{index}.jsonl"))
        for bucket, trace_path in plan:
            attempted += 1
            job = run_job(args.workload, seed, batches, trace_path, deadline)
            if isinstance(job, str):
                errors.append(f"sub-seed {seed}: {job}")
                continue
            print(describe(job), flush=True)
            errors += [f"sub-seed {seed}: {error}" for error in job["errors"]]
            bucket.append(job)
    jobs = untraced + traced
    errors += check_determinism(args.workload, jobs)
    details = OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps({"args": vars(args), "errors": errors, "jobs": jobs}))
    failed = attempted - len(jobs) + sum(not all(job["checks"].values()) for job in jobs)
    for error in errors:
        print(f"FAILED {error}", flush=True)

    if args.trace:
        if not (traced and untraced):
            return 1
        values = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in values}
        for name, value in sorted(values.items()):
            print(f"{name:32s} {value:16.6g} {units[name]}")
    else:
        if not untraced:
            return 1
        values = end_to_end(untraced)
        units = END_TO_END
        for name, value in values.items():
            print(f"{name:16s} {value:16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
