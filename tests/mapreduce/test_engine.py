"""Unit tests for the MR simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce.backends import ArrayPairs, available_backends
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRConstraintViolation, MRModel
from repro.mapreduce.structured import ArrayMapper, StructuredReducer

ALL_BACKENDS = available_backends()


def batch_of(keys, values):
    return ArrayPairs(np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64))


class WordCountMapper(ArrayMapper):
    """Documents (values) → one (word, 1) pair per word."""

    def map_batch(self, batch):
        words = [word for document in batch.values.tolist() for word in document.split()]
        return ArrayPairs(np.array(words), np.ones(len(words), dtype=np.int64))


class DropAllReducer(StructuredReducer):
    """Reduces every group and emits none of them (all-false emit mask)."""

    name = "drop-all"

    def segment_reduce(self, sorted_values, starts, ends):
        return sorted_values[starts], np.zeros(starts.size, dtype=bool)

    def reference(self, key, values):
        return []


class AngryReducer(StructuredReducer):
    """Raises on every evaluation path (module level, so it pickles)."""

    name = "angry"

    def segment_reduce(self, sorted_values, starts, ends):
        raise ValueError(f"boom on {starts.size} groups")

    def reference(self, key, values):
        raise ValueError(f"boom on key {key}")


class TestRunRound:
    def test_word_count(self):
        engine = MREngine()
        documents = ArrayPairs(np.zeros(2, dtype=np.int64), np.array(["a b a", "b c"]))
        out = engine.run_structured_round(documents, "sum", mapper=WordCountMapper())
        assert dict(out.to_pairs()) == {"a": 2, "b": 2, "c": 1}

    def test_metrics_recorded(self):
        engine = MREngine()
        engine.run_structured_round(batch_of(np.arange(12) % 3, np.arange(12)), "sum")
        assert engine.metrics.rounds == 1
        assert engine.metrics.shuffled_pairs == 12
        assert engine.metrics.max_reducer_input == 4

    def test_reset(self):
        engine = MREngine()
        engine.run_structured_round(batch_of([0], [1]), "sum")
        engine.reset()
        assert engine.metrics.rounds == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_plain_callable_reducer_rejected(self, backend):
        def sum_reducer(key, values):
            yield (key, sum(values))

        with MREngine(backend=backend, num_shards=2) as engine:
            with pytest.raises(TypeError, match="structured reducer"):
                engine.run_structured_round(batch_of([0, 1], [1, 2]), sum_reducer)
            assert engine.metrics.rounds == 0


class TestConstraints:
    def test_local_memory_violation_raises(self):
        model = MRModel(local_memory=2, enforce=True)
        engine = MREngine(model)
        with pytest.raises(MRConstraintViolation):
            engine.run_structured_round(batch_of([0] * 5, range(5)), "sum")

    def test_global_memory_violation_raises(self):
        model = MRModel(global_memory=3, enforce=True)
        engine = MREngine(model)
        with pytest.raises(MRConstraintViolation):
            engine.run_structured_round(batch_of(range(10), range(10)), "sum")

    def test_record_mode_collects_violations(self):
        model = MRModel(local_memory=1, enforce=False)
        engine = MREngine(model)
        engine.run_structured_round(batch_of([0, 0], [1, 2]), "sum")
        assert model.num_violations == 1

    def test_within_budget_no_violation(self):
        model = MRModel(local_memory=10, global_memory=100, enforce=True)
        engine = MREngine(model)
        engine.run_structured_round(batch_of(np.arange(20) % 4, np.arange(20)), "sum")
        assert model.num_violations == 0


class TestEdgeCases:
    """Degenerate rounds must behave identically on every backend."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_pair_list(self, backend):
        engine = MREngine(backend=backend, num_shards=2)
        output = engine.run_structured_round(batch_of([], []), "sum")
        assert len(output) == 0
        assert engine.metrics.rounds == 1
        assert engine.metrics.shuffled_pairs == 0
        assert engine.metrics.max_reducer_input == 0
        assert engine.metrics.max_live_pairs == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_mapper_that_emits_nothing(self, backend):
        def silent_mapper(batch):
            return ArrayPairs(batch.keys[:0], batch.values[:0])

        engine = MREngine(backend=backend, num_shards=2)
        output = engine.run_structured_round(batch_of([0, 1], [1, 2]), "sum", mapper=silent_mapper)
        assert len(output) == 0
        assert engine.metrics.rounds == 1
        assert engine.metrics.shuffled_pairs == 0
        assert engine.metrics.max_reducer_input == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_reducer_that_emits_nothing(self, backend):
        engine = MREngine(backend=backend, num_shards=2)
        output = engine.run_structured_round(batch_of([0, 0, 1], [1, 2, 3]), DropAllReducer())
        assert len(output) == 0
        assert engine.metrics.shuffled_pairs == 3
        assert engine.metrics.max_reducer_input == 2
        # Live pairs = max(input, output): inputs were alive during the round.
        assert engine.metrics.max_live_pairs == 3

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_reducer_exception_propagates(self, backend):
        # On the process backend the worker-side error exhausts the pool
        # retries; the in-process fallback then raises it in the driver.
        with MREngine(backend=backend, num_shards=2) as engine:
            if backend == "process":
                engine.backend.retry_backoff = 0.0
            with pytest.raises(ValueError, match="boom on"):
                engine.run_structured_round(batch_of([0, 1, 2], [1, 2, 3]), AngryReducer())
            assert engine.metrics.rounds == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_local_memory_enforced(self, backend):
        engine = MREngine(MRModel(local_memory=3, enforce=True), backend=backend, num_shards=2)
        # Within budget: fine.
        engine.run_structured_round(batch_of([0] * 3, range(3)), "sum")
        # One pair over budget: raises and records the violation.
        with pytest.raises(MRConstraintViolation, match="exceeding M_L"):
            engine.run_structured_round(batch_of([0] * 4, range(4)), "sum")
        assert engine.model.num_violations == 1

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_global_memory_enforced(self, backend):
        engine = MREngine(MRModel(global_memory=5, enforce=True), backend=backend, num_shards=2)
        engine.run_structured_round(batch_of(range(5), range(5)), "sum")
        with pytest.raises(MRConstraintViolation, match="exceed M_G"):
            engine.run_structured_round(batch_of(range(6), range(6)), "sum")
        assert engine.model.num_violations == 1


class TestChargeRounds:
    def test_charge_accumulates(self):
        engine = MREngine()
        engine.charge_rounds(5, pairs_per_round=100, label="synthetic")
        assert engine.metrics.rounds == 5
        assert engine.metrics.shuffled_pairs == 500
        assert engine.metrics.per_label["synthetic"] == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MREngine().charge_rounds(-1)

    def test_matches_per_round_recording(self):
        engine = MREngine()
        engine.charge_rounds(3, pairs_per_round=7, label="sort")
        engine.charge_rounds(0, pairs_per_round=99, label="never")
        expected = MRMetrics()
        for _ in range(3):
            expected.record_round(pairs_shuffled=7, max_reducer_input=0, live_pairs=7, label="sort")
        assert engine.metrics.as_dict() == expected.as_dict()
        assert engine.metrics.per_label == expected.per_label == {"sort": 3}
