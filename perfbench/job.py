"""One benchmark job, run in a fresh process: acquire → diameter → oracle → serve.

    PYTHONPATH=src python3 perfbench/job.py --workload road-weighted --seed 7 --batches 80 \
        [--trace spans.jsonl]

Stages, each timed after ``gc.collect()`` with nothing else running, and
reported both as wall seconds and as seconds at reference CPU speed
(:class:`Speedometer`):

1. acquire the workload graph (:mod:`workloads`);
2. ``DecompositionPipeline(graph, PipelineConfig(method, seed)).run()``;
3. ``GraphService.build`` on that pipeline's clustering;
4. replay ``--batches`` batches of 8192 seeded mixed queries through
   ``repro.serving.replay`` (closed loop, one client), generated and
   replayed in chunks so the log never sets the resident set;
5. ``pipeline.mr_report()`` (the MR round accounting).

With ``--trace`` the same calls are split at each module's public
functions and recorded as spans (name, start, end, parent, run id, kernel
counter deltas), written as JSONL when the job ends; the job then also
probes each query kind with kind-homogeneous batches.

After the timed stages the job checks its outputs, untimed: the clustering
is valid, ``lower ≤ ∆_ref ≤ upper``, and the oracle's bounds hold on a fixed
sample of pairs against exact distances.  The last stdout line is one JSON
object with the measurements and the check results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time

import numpy as np

from workloads import METHODS, WORKLOADS, acquire, derive_seed

BATCH_SIZE = 8192
#: Batches generated and replayed per chunk (bounds the log's memory).
CHUNK_BATCHES = 16
#: Reference sample for the stretch and bound checks: sources x targets.
REF_SOURCES = 64
REF_TARGETS = 256
#: Kind-homogeneous batches per query kind in the traced probe.
PROBE_BATCHES = 32

#: Speed sampling: every SAMPLE_EVERY_S a SIGALRM handler times a fixed
#: CAL_ITERS-iteration Python loop; REF_LOOP_S is that loop's time on an
#: uncontended core of the 2-core reference VM (Xeon, Python 3.11).
CAL_ITERS = 2000
SAMPLE_EVERY_S = 0.02
REF_LOOP_S = 1e-4
#: Extra samples taken right after each stage, so short stages get some too.
BURST = 5

#: Top-level spans that only group layer spans; their self time is the gap.
STAGES = ("acquire", "pipeline", "oracle", "serve", "mr")


class Spans:
    """In-memory span recorder; counter deltas come from ``counters()``."""

    def __init__(self, run_id: str, counters=None) -> None:
        self.run_id = run_id
        self.records: list = []
        self._stack: list = []
        self._counters = counters

    @property
    def counting(self) -> bool:
        """Whether spans carry kernel counter deltas."""
        return self._counters is not None

    @contextlib.contextmanager
    def __call__(self, name: str):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        before = self._counters() if self._counters else None
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if before is not None:
                after = self._counters()
                record["counters"] = {
                    key: after[key] - before[key] for key in after if after[key] != before[key]
                }

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        return [r["end"] - r["start"] - child_time[r["id"]] for r in self.records]

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as out:
            for record, self_s in zip(self.records, selfs):
                out.write(json.dumps({**record, "self_s": self_s}) + "\n")


def _no_span(name: str):
    return contextlib.nullcontext()


@contextlib.contextmanager
def _wrapped(span, targets):
    """Temporarily route calls to ``(owner, attribute, span name)`` through spans.

    Used during acquisition only, to split the generators' CSR construction
    and largest-component extraction from their sampling.  A target the
    program no longer has is skipped.
    """
    saved = []
    for owner, attr, name in targets:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            continue
        func = original.__func__ if isinstance(original, classmethod) else original

        def timed(*args, _func=func, _name=name, **kwargs):
            with span(_name):
                return _func(*args, **kwargs)

        setattr(owner, attr, classmethod(timed) if isinstance(original, classmethod) else timed)
        saved.append((owner, attr, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Speedometer:
    """Estimates how fast this CPU runs while a stage runs.

    On a shared host a vCPU's speed flips by up to 1.5x within a second with
    other tenants' load, and that, not the program, dominates run-to-run
    spread of wall-clock times.  While a stage runs, a SIGALRM handler times
    a fixed Python loop every ``SAMPLE_EVERY_S``; the stage's time minus the
    handler's, scaled by ``REF_LOOP_S / median(loop time)``, is the stage's
    time at reference speed.  The handler costs about 1%.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(CAL_ITERS):
            total += i & 7
        self.samples.append(time.perf_counter() - start)

    def burst(self) -> list:
        """Take ``BURST`` samples now; returns them."""
        first = len(self.samples)
        for _ in range(BURST):
            self._tick()
        return self.samples[first:]

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, stage):
        """Run ``stage()`` sampled, after ``gc.collect()``; returns (result,
        net seconds, reference seconds)."""
        gc.collect()
        first = len(self.samples)
        with self.sampling():
            start = time.perf_counter()
            result = stage()
            elapsed = time.perf_counter() - start
        during = self.samples[first:]
        net = elapsed - sum(during)
        return result, net, net * REF_LOOP_S / float(np.median(during + self.burst()))


def _acquire(workload: str, seed: int, span, traced: bool):
    """Stage 1 under spans; when traced, the generators' CSR construction and
    largest-component calls get spans of their own."""
    import repro.generators.geometric as geometric
    import repro.generators.rmat as rmat
    from repro.graph.csr import CSRGraph

    targets = [
        (rmat, "symmetrize_edges", "graph.csr"),
        (CSRGraph, "from_edges", "graph.csr"),
        (geometric, "largest_component", "graph.lcc"),
    ]
    with _wrapped(span, targets) if traced else contextlib.nullcontext():
        with span("acquire"):
            return acquire(workload, seed, span)


def _pipeline_stages(pipe, span) -> None:
    """The stages ``pipe.run()`` runs, one span each, in the same order.

    Mirrors ``DecompositionPipeline.diameter``: the hop quotient (unweighted
    decompositions only), then the length quotient, then the bounds.  Every
    stage is cached on the pipeline, so the following ``run()`` adds no work.
    """
    with span("decompose"):
        clustering = pipe.decompose()
    weighted = getattr(clustering, "weighted_distance", None) is not None
    if not weighted:
        with span("quotient.build_hop"):
            pipe.quotient(weighted=False)
        with span("quotient.diameter_hop"):
            pipe.quotient_diameter(weighted=False)
    if weighted or pipe.config.weighted_quotient:
        with span("quotient.build_len"):
            quotient = pipe.quotient(weighted=True)
        if not weighted or (quotient.num_nodes > 1 and quotient.num_edges > 0):
            with span("quotient.diameter_len"):
                pipe.quotient_diameter(weighted=True)
    with span("diameter.bounds"):
        pipe.diameter()


def _build_service(pipe, clustering, method: str, span, traced: bool):
    """Stage 3: ``GraphService.build``, or its two calls under spans."""
    from repro.core.oracle import build_distance_oracle, default_oracle_tau
    from repro.serving import GraphService

    if not traced:
        return GraphService.build(pipe.graph, clustering=clustering, method=method)
    with span("oracle.build"):
        oracle = build_distance_oracle(pipe.graph, clustering=clustering)
    with span("serving.fold"):
        return GraphService(
            pipe.graph, oracle, method=method, tau=default_oracle_tau(pipe.graph.num_nodes)
        )


def _serve(service, num_nodes: int, seed: int, batches: int, span, speed: Speedometer):
    """Stage 4: chunked log generation and replay.

    Returns (checksum, net seconds, reference seconds, batch ms at reference
    speed).  The replay API holds answer arrays as long as its log, so the
    log is replayed in chunks small enough that serving never sets the
    job's peak resident set.  Each chunk is preceded by one untimed batch of
    other queries: the hashing that ends a replay call and the next chunk's
    generation evict the service's arrays from cache, and an unchunked replay
    would pay that cold batch once, not once per chunk.  A signal landing in
    a batch would add to its latency, so this stage takes its speed samples
    right before and after each chunk instead, and scales each chunk by the
    median of its own.
    """
    from repro.serving import replay, synthetic_workload

    digest = hashlib.sha256()
    batch_ms = []
    net = ref = 0.0
    for chunk in range(batches // CHUNK_BATCHES):
        before = speed.burst()
        start = time.perf_counter()
        with span("serve.loggen"):
            warm = synthetic_workload(num_nodes, BATCH_SIZE, seed=derive_seed(seed, f"warm{chunk}"))
            log = synthetic_workload(
                num_nodes, CHUNK_BATCHES * BATCH_SIZE, seed=derive_seed(seed, f"log{chunk}")
            )
        with span("serve.replay"):
            replay(service, warm, batch_size=BATCH_SIZE)
            report = replay(service, log, batch_size=BATCH_SIZE)
        elapsed = time.perf_counter() - start
        scale = REF_LOOP_S / float(np.median(before + speed.burst()))
        net += elapsed
        ref += elapsed * scale
        digest.update(report.checksum.encode())
        batch_ms.append(report.batch_seconds * (1e3 * scale))
        log = report = None
    return digest.hexdigest(), net, ref, np.concatenate(batch_ms)


def _probe_kinds(service, num_nodes: int, seed: int, span) -> dict:
    """Queries/s of each kind alone, over kind-homogeneous batches."""
    rng = np.random.default_rng(derive_seed(seed, "probe"))
    calls = {
        "distance": lambda u, v: service.query_distance(u, v),
        "same_cluster": lambda u, v: service.query_same_cluster(u, v),
        "eccentricity": lambda u, v: service.query_eccentricity(u),
        "center": lambda u, v: service.query_centers(u),
    }
    qps = {}
    with span("probe"):
        for kind, call in calls.items():
            us = rng.integers(0, num_nodes, size=(PROBE_BATCHES, BATCH_SIZE))
            vs = rng.integers(0, num_nodes, size=(PROBE_BATCHES, BATCH_SIZE))
            with span(f"probe.{kind}"):
                start = time.perf_counter()
                for row in range(PROBE_BATCHES):
                    call(us[row], vs[row])
                elapsed = time.perf_counter() - start
            qps[f"serving.{kind}_qps"] = PROBE_BATCHES * BATCH_SIZE / elapsed
    return qps


def _reference(graph, seed: int):
    """Exact distances from a fixed source sample (scipy, independent of the program)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = graph.num_nodes
    rng = np.random.default_rng(derive_seed(seed, "reference"))
    sources = rng.choice(n, size=min(REF_SOURCES, n), replace=False)
    targets = rng.integers(0, n, size=(sources.size, REF_TARGETS))
    weights = graph.weights if graph.is_weighted else np.ones(graph.indices.size)
    matrix = csr_matrix((weights, graph.indices, graph.indptr), shape=(n, n))
    dist = dijkstra(matrix, indices=sources, unweighted=not graph.is_weighted)
    pair_dist = dist[np.arange(sources.size)[:, None], targets].ravel()
    max_ecc = float(dist.max())
    return np.repeat(sources, REF_TARGETS), targets.ravel(), pair_dist, max_ecc


def _check(job: dict, graph, clustering, estimate, service, seed: int) -> None:
    """The correctness gate; fills ``job['checks']`` and the quality ratios."""
    from repro.graph import diameter_ifub

    checks = job["checks"]
    try:
        clustering.validate(graph)
        checks["clustering_valid"] = True
    except AssertionError as exc:
        checks["clustering_valid"] = False
        job["errors"].append(f"clustering: {exc}")

    us, vs, exact, max_ecc = _reference(graph, seed)
    lower, upper = float(estimate.lower_bound), float(estimate.upper_bound)
    if graph.is_weighted:
        # No exact weighted ∆: the largest sampled eccentricity bounds it from below.
        delta_ref = max_ecc
        checks["diameter_bounds"] = lower <= upper and delta_ref <= upper * (1 + 1e-9)
    else:
        delta_ref = float(diameter_ifub(graph))
        checks["diameter_bounds"] = lower <= delta_ref <= upper
    if not checks["diameter_bounds"]:
        job["errors"].append(f"diameter: lower={lower} ref={delta_ref} upper={upper}")
    job.update(lower_bound=lower, upper_bound=upper, delta_ref=delta_ref,
               diameter_ratio=upper / delta_ref)

    low_q, up_q = service.query_distance(us, vs)
    slack = 1e-9 * np.maximum(1.0, exact)
    bad = (low_q > exact + slack) | (exact > up_q + slack)
    checks["oracle_bounds"] = not bool(bad.any())
    if bad.any():
        job["errors"].append(f"oracle: {int(bad.sum())} of {exact.size} sampled pairs out of bounds")
    apart = exact > 0
    job["oracle_stretch"] = float(np.mean(up_q[apart] / exact[apart]))
    job["stretch_pairs"] = int(apart.sum())


def _layer_metrics(spans: Spans, pipe, result, service, mr_report, graph) -> dict:
    """Per-layer metrics of a traced job (self times in seconds, counts)."""
    records = spans.records
    by_name: dict = {}
    layers_s = stages_s = 0.0
    kernel_totals: dict = {}
    for record, self_s in zip(records, spans.self_times()):
        by_name[record["name"]] = by_name.get(record["name"], 0.0) + self_s
        root = record
        while root["parent"] is not None:
            root = records[root["parent"]]
        if root["name"] in STAGES and record["name"] not in STAGES:
            layers_s += self_s
        if record is root and record["name"] in STAGES:
            stages_s += record["end"] - record["start"]
            for key, value in record.get("counters", {}).items():
                kernel_totals[key] = kernel_totals.get(key, 0) + value

    clustering = result.clustering
    arcs = sum(step.arcs_scanned for step in clustering.step_log)
    length_quotient = pipe.quotient(weighted=True)
    oracle = service.oracle
    metrics = {
        "graph.nodes": graph.num_nodes,
        "graph.edges": graph.num_edges,
        "generators.time_s": by_name.get("generators", 0.0) + by_name.get("generators.weights", 0.0),
        "graph.csr_s": by_name.get("graph.csr", 0.0),
        "graph.lcc_s": by_name.get("graph.lcc", 0.0),
        "decompose.time_s": by_name.get("decompose", 0.0),
        "decompose.clusters": clustering.num_clusters,
        "decompose.growth_steps": len(clustering.step_log),
        "decompose.arcs_scanned": arcs,
        "decompose.arcs_per_node": arcs / graph.num_nodes,
        "quotient.build_hop_s": by_name.get("quotient.build_hop", 0.0),
        "quotient.build_len_s": by_name.get("quotient.build_len", 0.0),
        "quotient.diameter_hop_s": by_name.get("quotient.diameter_hop", 0.0),
        "quotient.diameter_len_s": by_name.get("quotient.diameter_len", 0.0),
        "quotient.nodes": length_quotient.num_nodes,
        "quotient.edges": length_quotient.num_edges,
        "diameter.bounds_s": by_name.get("diameter.bounds", 0.0),
        "oracle.build_s": by_name.get("oracle.build", 0.0),
        "oracle.matrix_mb": (oracle.upper_matrix.nbytes + oracle.lower_matrix.nbytes) / 2**20,
        "serving.fold_s": by_name.get("serving.fold", 0.0),
        "serve.loggen_s": by_name.get("serve.loggen", 0.0),
        "serve.replay_s": by_name.get("serve.replay", 0.0),
        "mr.rounds": mr_report.metrics.rounds,
        "mr.shuffled_pairs": mr_report.metrics.shuffled_pairs,
        "mr.max_round_pairs": mr_report.metrics.max_round_pairs,
        "mr.accounting_s": by_name.get("mr.accounting", 0.0),
        "trace.layers_s": layers_s,
        "trace.stages_s": stages_s,
    }
    if spans.counting:
        levels = kernel_totals.get("push_levels", 0) + kernel_totals.get("pull_levels", 0)
        for name in ("push_levels", "pull_levels", "edges_scanned", "claims_scatter",
                     "claims_sorted", "msbfs_sweeps", "msbfs_edges_scanned"):
            metrics[f"kernels.{name}"] = kernel_totals.get(name, 0)
        metrics["kernels.pull_share"] = kernel_totals.get("pull_levels", 0) / levels if levels else 0.0
    return metrics


def _kernel_counters():
    """The kernel counter snapshot function, while the program still exposes it."""
    from repro.graph import kernels

    snapshot = getattr(kernels, "kernel_stats_snapshot", None)
    enable = getattr(kernels, "enable_kernel_stats", None)
    if snapshot is None or enable is None:
        return None
    return enable, snapshot


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (2^20 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(workload: str, seed: int, batches: int, trace_path) -> dict:
    from repro.core.pipeline import DecompositionPipeline, PipelineConfig

    traced = trace_path is not None
    method = METHODS[workload]
    span = _no_span
    spans = None
    if traced:
        counters = _kernel_counters()
        if counters is not None:
            enable, snapshot = counters
            enable(True)
            counters = snapshot
        spans = Spans(f"{workload}-{seed}-{os.getpid()}", counters)
        span = spans

    job = {"workload": workload, "seed": seed, "traced": traced, "checks": {}, "errors": []}
    speed = Speedometer()
    net, ref = {}, {}
    graph, net["setup"], ref["setup"] = speed.time(lambda: _acquire(workload, seed, span, traced))
    peak_after = {"acquire": _peak_rss_mb()}

    def diameter_stage():
        with span("pipeline"):
            pipe = DecompositionPipeline(
                graph, PipelineConfig(method=method, seed=derive_seed(seed, "pipeline"))
            )
            if traced:
                _pipeline_stages(pipe, span)
            return pipe, pipe.run()

    (pipe, result), net["diameter"], ref["diameter"] = speed.time(diameter_stage)
    peak_after["pipeline"] = _peak_rss_mb()

    def oracle_stage():
        with span("oracle"):
            return _build_service(pipe, result.clustering, method, span, traced)

    service, net["oracle"], ref["oracle"] = speed.time(oracle_stage)
    peak_after["oracle"] = _peak_rss_mb()

    gc.collect()
    with span("serve"):
        checksum, net["serve"], ref["serve"], batch_ms = _serve(
            service, graph.num_nodes, seed, batches, span, speed
        )
    peak_after["serve"] = _peak_rss_mb()

    def mr_stage():
        with span("mr"), span("mr.accounting"):
            return pipe.mr_report()

    mr_report, net["mr"], ref["mr"] = speed.time(mr_stage)
    peak_after["mr"] = _peak_rss_mb()

    net["total"] = sum(net.values())
    ref["total"] = sum(ref.values())
    job.update(
        n=graph.num_nodes,
        m=graph.num_edges,
        k=result.clustering.num_clusters,
        setup_s=ref["setup"],
        diameter_s=ref["diameter"],
        oracle_build_s=ref["oracle"],
        serve_s=ref["serve"],
        total_s=ref["total"],
        net_s=net,
        speed_samples=len(speed.samples),
        loop_us=1e6 * float(np.median(speed.samples)),
        queries=batches * BATCH_SIZE,
        batch_ms=batch_ms.tolist(),
        peak_rss_mb=peak_after["mr"],
        peak_rss_after_mb=peak_after,
        mr_rounds=mr_report.metrics.rounds,
        checksum=checksum,
    )
    if traced:
        job["layers"] = _layer_metrics(spans, pipe, result, service, mr_report, graph)
        job["layers"].update(_probe_kinds(service, graph.num_nodes, seed, span))
        spans.write(trace_path)
    _check(job, pipe.graph, result.clustering, result.estimate, service, seed)
    return job


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, required=True,
                        help=f"query batches to replay, a multiple of {CHUNK_BATCHES}")
    parser.add_argument("--trace", default=None, help="write spans as JSONL to this path")
    args = parser.parse_args(argv)
    if args.batches < CHUNK_BATCHES or args.batches % CHUNK_BATCHES:
        parser.error(f"--batches must be a positive multiple of {CHUNK_BATCHES}")
    job = run_job(args.workload, args.seed, args.batches, args.trace)
    sys.stdout.write(json.dumps(job) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
