"""Multiprocessing candidate evaluation.

Each worker process holds its own :class:`CandidateEvaluator` (built once
from the pickled model in the pool initializer), so per-module synthesis
memoization happens per worker.  The pool mechanics — ``fork`` preference,
order-preserving ``map``, chunk sizing — live in the shared
:class:`repro.utils.pool.WorkerPool` helper, which the sweep service
(:mod:`repro.sweep`) reuses; scores are pure functions of
``(model, candidate)``, so a parallel run produces **byte-identical
reports** to a serial run — the worker count only changes wall-clock time.
"""

import pickle

from repro.utils.pool import WorkerPool

_EVALUATOR = None


def _init_worker(model_bytes, platform_names):
    global _EVALUATOR
    from repro.dse.cost import CandidateEvaluator

    _EVALUATOR = CandidateEvaluator(pickle.loads(model_bytes), platform_names)


def _evaluate_one(candidate):
    return _EVALUATOR.evaluate(candidate)


class ParallelEvaluationPool:
    """Owns the worker pool for one exploration; use as a context manager."""

    def __init__(self, model, platform_names, workers):
        self._pool = WorkerPool(
            workers,
            initializer=_init_worker,
            initargs=(pickle.dumps(model), list(platform_names)),
        )

    def evaluate_many(self, candidates):
        return self._pool.map(_evaluate_one, candidates)

    def close(self):
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
