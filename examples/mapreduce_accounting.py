#!/usr/bin/env python
"""Working with the MR(M_G, M_L) simulation engine directly.

The library's performance claims are stated in the MapReduce model of
Pietracaprina et al.: number of rounds, communication volume, and local/global
memory constraints.  This script shows the substrate on its own:

1. run a word-count structured round and inspect the metered counters,
2. charge the Fact-1 primitives (sort, prefix sum) under a shrinking local
   memory and watch the charged round count grow logarithmically,
3. execute the CLUSTER-based diameter estimation under a memory-constrained
   model and convert its metrics into simulated wall-clock time,
4. run the same round on every execution backend (serial / vectorized /
   process) and check that output and metrics are bit-identical.

Run with::

    python examples/mapreduce_accounting.py
"""

from __future__ import annotations

import numpy as np

from repro.core import mr_estimate_diameter
from repro.generators import mesh_graph
from repro.mapreduce import (
    ArrayPairs,
    CostModel,
    MREngine,
    MRModel,
    available_backends,
    rounds_for_primitive,
)


def word_count_demo() -> None:
    engine = MREngine()
    documents = ArrayPairs(np.zeros(2, dtype=np.int64), np.array(["graphs are large", "graphs are sparse"]))

    def tokenize(batch: ArrayPairs) -> ArrayPairs:
        words = [word for document in batch.values.tolist() for word in document.split()]
        return ArrayPairs(np.array(words), np.ones(len(words), dtype=np.int64))

    result = engine.run_structured_round(documents, "sum", mapper=tokenize)
    print("word count:", dict(result.to_pairs()))
    print("metrics:", engine.metrics.as_dict(), "\n")


def primitives_demo() -> None:
    # Sort and prefix sum are not executed round by round: their cost in the
    # model is known analytically (Fact 1), so drivers charge it.
    n = 500
    for local_memory in (1024, 32, 8):
        engine = MREngine(MRModel(local_memory=local_memory, enforce=False))
        rounds = rounds_for_primitive(n, local_memory)
        engine.charge_rounds(rounds, pairs_per_round=n, label="sort")
        engine.charge_rounds(rounds, pairs_per_round=n, label="prefix-sum")
        print(
            f"M_L = {local_memory:>5}: sort + prefix-sum of {n} items charged "
            f"{engine.metrics.rounds} rounds (Fact 1: O(log_ML n) each)"
        )
    print()


def constrained_diameter_demo() -> None:
    graph = mesh_graph(60, 60)
    model = MRModel.for_graph(graph.num_nodes, graph.num_edges, enforce=False)
    cost = CostModel(round_latency=1.0, pair_cost=2e-6)
    report = mr_estimate_diameter(graph, tau=16, seed=0, model=model, cost_model=cost)
    print(
        f"mesh 60x60 under MR(M_G={model.global_memory:,}, M_L={model.local_memory:,}):\n"
        f"  rounds            {report.rounds}\n"
        f"  shuffled pairs    {report.shuffled_pairs:,}\n"
        f"  simulated time    {report.simulated_time:.1f} s\n"
        f"  diameter bounds   [{report.estimate.lower_bound}, {report.estimate.upper_bound:.0f}] "
        f"(true: 118)\n"
        f"  memory violations {len(model.violations)}"
    )


def backends_demo() -> None:
    """One shuffle, three backends — identical output and counters."""
    rng = np.random.default_rng(0)
    batch = ArrayPairs(rng.integers(0, 64, 5000), rng.integers(0, 100, 5000))

    print("\nbackend equivalence on a 5000-pair shuffle:")
    reference = None
    for name in available_backends():
        with MREngine(backend=name, num_shards=4) as engine:
            output = engine.run_structured_round(batch, "count").to_pairs()
        snapshot = (output, engine.metrics.as_dict())
        if reference is None:
            reference = snapshot
        status = "consistent" if snapshot == reference else "MISMATCH"
        print(f"  {name:>10}: {len(output)} groups, {engine.metrics.shuffled_pairs} pairs — {status}")


def main() -> None:
    word_count_demo()
    primitives_demo()
    constrained_diameter_demo()
    backends_demo()


if __name__ == "__main__":
    main()
