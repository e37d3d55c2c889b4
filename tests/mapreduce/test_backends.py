"""Cross-backend equivalence suite for the MR execution backends.

Every backend must be bit-compatible with the serial reference: identical
output pairs (same order) and identical :class:`MRMetrics` for any structured
round.
This is what allows the experiment harness to treat the backend as a pure
performance knob.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mr_native import mr_cluster_native
from repro.generators import mesh_graph
from repro.mapreduce.backends import (
    ArrayPairs,
    ProcessBackend,
    SerialBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel
from repro.mapreduce.structured import get_structured_reducer

BACKENDS = ("serial", "vectorized", "process")


def object_keys(keys):
    """A one-dimensional object array holding ``keys`` as given."""
    array = np.empty(len(keys), dtype=object)
    for index, key in enumerate(keys):
        array[index] = key
    return array


def fanout_mapper(batch):
    """Every pair (k, v) becomes (k, v) followed by (k + 1, 2v)."""
    keys = np.column_stack((batch.keys, batch.keys + 1)).ravel()
    values = np.column_stack((batch.values, batch.values * 2)).ravel()
    return ArrayPairs(keys, values)


def reference_round(batch, reducer):
    """Independent per-key oracle: dict grouping + the reducer's reference.

    Returns ``(pairs, pairs_shuffled, max_reducer_input)``.
    """
    groups = {}
    for key, value in batch.to_pairs():
        groups.setdefault(key, []).append(value)
    pairs = [pair for key, values in groups.items() for pair in reducer.reference(key, values)]
    return pairs, len(batch), max((len(values) for values in groups.values()), default=0)


def run_all_backends(batch, reducer, *, mapper=None, num_shards=3):
    """Execute one structured round on every backend; return {name: (pairs, metrics)}."""
    results = {}
    for name in BACKENDS:
        with MREngine(backend=name, num_shards=num_shards) as engine:
            output = engine.run_structured_round(batch, reducer, mapper=mapper)
            results[name] = (output.to_pairs(), engine.metrics.as_dict())
    return results


def assert_all_equal(results):
    reference = results["serial"]
    for name, result in results.items():
        assert result[0] == reference[0], f"{name} output differs from serial"
        assert result[1] == reference[1], f"{name} metrics differ from serial"


# ---------------------------------------------------------------------- #
# Random-workload property tests
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_int_workloads_identical(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    keys = rng.integers(0, max(2, size // 4), size=size)
    values = rng.integers(-100, 100, size=size)
    results = run_all_backends(ArrayPairs(keys, values), "sum")
    assert_all_equal(results)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_workloads_with_mapper_identical(seed):
    rng = np.random.default_rng(100 + seed)
    size = int(rng.integers(1, 200))
    batch = ArrayPairs(rng.integers(0, 20, size=size), rng.integers(0, 9, size=size))
    results = run_all_backends(batch, "sum", mapper=fanout_mapper)
    assert_all_equal(results)
    assert results["serial"][1]["shuffled_pairs"] == 2 * size


def test_string_keys_identical():
    rng = np.random.default_rng(7)
    words = np.array(["alpha", "beta", "gamma", "delta", "a", "zz"])
    batch = ArrayPairs(words[rng.integers(0, len(words), 300)], rng.integers(0, 50, 300))
    results = run_all_backends(batch, "sum")
    assert_all_equal(results)


# Object key arrays cannot be argsort-grouped: every backend falls back to
# the tuple path, whose dict grouping decides which keys are equal.
def test_mixed_type_keys_identical():
    batch = ArrayPairs(object_keys([None, "x", 3, (1, 2), None, "x"]), np.arange(1, 7))
    results = run_all_backends(batch, "count")
    assert_all_equal(results)
    assert results["serial"][0] == [(None, 2), ("x", 2), (3, 1), ((1, 2), 1)]


def test_str_and_int_keys_stay_distinct():
    # np.asarray([3, "3"]) would coerce to one string dtype; an object key
    # array must not let that merge keys a dict keeps distinct.
    batch = ArrayPairs(object_keys(["3", 3, "3", 3]), np.array([1, 2, 4, 8]))
    results = run_all_backends(batch, "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [("3", 5), (3, 10)]


def test_bytes_and_str_keys_stay_distinct():
    batch = ArrayPairs(object_keys([b"a", "a", b"a"]), np.array([1, 2, 4]))
    results = run_all_backends(batch, "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [(b"a", 5), ("a", 2)]


def test_bool_and_int_keys_merge_like_dict():
    # hash(True) == hash(1): a dict groups them; every backend must agree.
    batch = ArrayPairs(object_keys([True, 1, 0, False]), np.array([1, 2, 4, 8]))
    results = run_all_backends(batch, "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [(True, 3), (0, 12)]


def test_numpy_array_values_identical():
    # Row-valued pairs (HADI-sketch-like payloads) must survive pickling
    # through the process backend and grouping in the others.
    rng = np.random.default_rng(9)
    sketches = rng.integers(0, 2**32, size=(40, 4), dtype=np.uint64)
    batch = ArrayPairs(rng.integers(0, 6, 40), sketches)
    results = run_all_backends(batch, "bitwise_or")
    assert_all_equal(results)
    for key, merged in results["serial"][0]:
        assert merged == np.bitwise_or.reduce(sketches[batch.keys == key], axis=0).tolist()


def test_sorted_outputs_identical_on_large_random_workload():
    rng = np.random.default_rng(10)
    batch = ArrayPairs(rng.integers(0, 500, 5000), rng.integers(0, 1000, 5000))
    results = run_all_backends(batch, "sum", num_shards=5)
    assert_all_equal(results)
    reference = sorted(results["serial"][0])
    for name, (output, _) in results.items():
        assert sorted(output) == reference, name


# ---------------------------------------------------------------------- #
# Randomized cross-backend equivalence sweep
# ---------------------------------------------------------------------- #
def _random_workload(rng):
    """One random workload: (ArrayPairs batch, structured-reducer name).

    Samples the key families the backends must agree on: int, str and
    object keys, float keys with and without NaN, empty batches and
    single-key batches.
    """
    family = rng.choice(["int", "str", "mixed", "float", "nan-float", "single-key", "empty"])
    size = int(rng.integers(1, 200))
    values = rng.integers(-50, 50, size=size)
    if family == "empty":
        return ArrayPairs(np.zeros(0, np.int64), np.zeros(0, np.int64)), "sum"
    if family == "int":
        keys = rng.integers(-10, 25, size=size)
        return ArrayPairs(keys, values), str(rng.choice(["min", "max", "sum", "count", "first"]))
    if family == "single-key":
        keys = np.full(size, int(rng.integers(0, 5)))
        return ArrayPairs(keys, values), str(rng.choice(["min", "sum", "count"]))
    if family == "str":
        words = np.array(["alpha", "beta", "gamma", "d", "ee"])
        return ArrayPairs(words[rng.integers(0, len(words), size)], values), "sum"
    if family == "mixed":
        pool = [None, "x", 3, "3", b"x", True, 0]
        keys = object_keys([pool[int(k) % len(pool)] for k in rng.integers(0, 64, size)])
        return ArrayPairs(keys, values), "sum"
    keys = rng.uniform(-3, 3, size).round(1)
    if family == "nan-float":
        keys[rng.random(size) < 0.2] = np.nan
    return ArrayPairs(keys, values), "sum"


def _pairs_equal(left, right):
    """Pair-list equality treating scalar NaN keys/values as equal."""
    if len(left) != len(right):
        return False
    for (lk, lv), (rk, rv) in zip(left, right):
        for a, b in ((lk, rk), (lv, rv)):
            if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
                continue
            if type(a) is not type(b) or a != b:
                return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_randomized_cross_backend_sweep(seed):
    """Any workload, any backend: identical output order and identical metrics.

    The serial round is additionally checked against an independent per-key
    oracle running the reducer's reference callable — same pairs, same
    counters.
    """
    rng = np.random.default_rng(1000 + seed)
    for _ in range(8):
        workload, structured_name = _random_workload(rng)
        results = run_all_backends(workload, structured_name)
        serial_pairs, serial_metrics = results["serial"]
        for name, (pairs, metrics) in results.items():
            assert _pairs_equal(pairs, serial_pairs), (name, structured_name)
            assert metrics == serial_metrics, (name, structured_name)
        pairs, shuffled, max_input = reference_round(
            workload, get_structured_reducer(structured_name)
        )
        assert _pairs_equal(serial_pairs, pairs)
        assert serial_metrics["shuffled_pairs"] == shuffled
        assert serial_metrics["max_reducer_input"] == max_input


# ---------------------------------------------------------------------- #
# ArrayPairs (unflattened) fast path
# ---------------------------------------------------------------------- #
def test_array_pairs_identical_across_backends():
    rng = np.random.default_rng(11)
    batch = ArrayPairs(rng.integers(0, 40, 600), rng.integers(0, 1000, 600))
    results = run_all_backends(batch, "sum")
    assert_all_equal(results)


def test_array_pairs_matches_flattened_input():
    # The segment fast path never flattens; its output must equal grouping
    # the flattened per-pair tuples.
    rng = np.random.default_rng(12)
    batch = ArrayPairs(rng.integers(0, 25, 300), rng.integers(0, 9, 300))
    with MREngine(backend="vectorized") as engine:
        out = engine.run_structured_round(batch, "sum")
    pairs, shuffled, max_input = reference_round(batch, get_structured_reducer("sum"))
    assert out.to_pairs() == pairs
    assert engine.metrics.shuffled_pairs == shuffled
    assert engine.metrics.max_reducer_input == max_input


def test_array_pairs_validation():
    with pytest.raises(ValueError):
        ArrayPairs(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ArrayPairs(np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------- #
# Constraint checking behaves identically everywhere
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_local_memory_violation_raises_on_every_backend(backend):
    engine = MREngine(MRModel(local_memory=2, enforce=True), backend=backend, num_shards=2)
    with pytest.raises(MRConstraintViolation):
        engine.run_structured_round(ArrayPairs(np.zeros(5, np.int64), np.arange(5)), "sum")


@pytest.mark.parametrize("backend", BACKENDS)
def test_global_memory_violation_raises_on_every_backend(backend):
    engine = MREngine(MRModel(global_memory=3, enforce=True), backend=backend, num_shards=2)
    with pytest.raises(MRConstraintViolation):
        engine.run_structured_round(ArrayPairs(np.arange(10), np.arange(10)), "sum")


# ---------------------------------------------------------------------- #
# Whole-algorithm equivalence: the native MR CLUSTER execution
# ---------------------------------------------------------------------- #
def test_mr_cluster_native_identical_across_backends():
    graph = mesh_graph(12, 12)
    reference = None
    for backend in BACKENDS:
        clustering, engine = mr_cluster_native(graph, 2, seed=7, backend=backend, num_shards=2)
        snapshot = (
            clustering.assignment.tolist(),
            clustering.centers.tolist(),
            clustering.distance.tolist(),
            engine.metrics.as_dict(),
        )
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, backend
    assert reference[3]["rounds"] > 0


# ---------------------------------------------------------------------- #
# Backend registry
# ---------------------------------------------------------------------- #
def test_available_backends():
    assert available_backends() == ["process", "serial", "vectorized"]


def test_get_backend_resolution():
    assert isinstance(get_backend(None), SerialBackend)
    assert isinstance(get_backend("serial"), SerialBackend)
    assert isinstance(get_backend("vectorized"), VectorizedBackend)
    process = get_backend("process", num_shards=7)
    assert isinstance(process, ProcessBackend)
    assert process.num_shards == 7
    instance = VectorizedBackend()
    assert get_backend(instance) is instance
    with pytest.raises(ValueError):
        get_backend("spark")
    with pytest.raises(ValueError):
        ProcessBackend(num_shards=0)


def test_engine_exposes_backend_name():
    assert MREngine(backend="vectorized").backend_name == "vectorized"
    assert MREngine().backend_name == "serial"
