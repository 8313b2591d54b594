"""Process-pool execution of independent simulation runs.

The Figure 1 sampling grid is embarrassingly parallel: every
(frequency, workload) run builds its own kernel, machine and meter from
scratch, seeded deterministically from the run's grid index.  This
module provides the small executor the campaign (and any future grid
sweep) fans out over: an order-preserving :func:`run_tasks` backed by a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract: results are returned in task-submission order and
each task must depend only on its own inputs, so the assembled output is
byte-identical for any worker count.  When only one worker is requested,
the task list is trivial, or the pool cannot be used (missing
``multiprocessing`` support, sandboxed platform, unpicklable inputs),
execution gracefully degrades to the plain serial loop.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ConfigurationError

try:  # pragma: no cover - exercised only where multiprocessing is absent
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    _POOL_AVAILABLE = True
except ImportError:  # pragma: no cover
    ProcessPoolExecutor = None  # type: ignore[assignment]
    BrokenProcessPool = None  # type: ignore[assignment]
    _POOL_AVAILABLE = False

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Pool-infrastructure failures that trigger the serial fallback.  Task
#: code raising a genuine simulation error is *not* in this set — those
#: propagate unchanged, exactly as they would serially.
_FALLBACK_ERRORS = tuple(
    error for error in (BrokenProcessPool, pickle.PicklingError, OSError,
                        ImportError)
    if error is not None)


def default_worker_count() -> int:
    """A sensible worker count: the CPUs this process may run on.

    ``os.cpu_count()`` counts every CPU on the host, which oversubscribes
    a process pinned by affinity or a cgroup cpuset; it is only the
    fallback where the affinity mask cannot be read.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` knob: ``None``/``0`` mean "use every CPU"."""
    if workers is None or workers == 0:
        return default_worker_count()
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    return workers


def pool_available() -> bool:
    """Whether a process pool can be created on this platform."""
    return _POOL_AVAILABLE


def chunk_tasks(tasks: Iterable[TaskT], chunks: int) -> List[List[TaskT]]:
    """Split *tasks* into at most *chunks* contiguous, near-equal chunks.

    Concatenating the chunks reproduces the input order, so a caller can
    dispatch one chunk per worker and reassemble results
    deterministically.  Empty chunks are never produced.
    """
    task_list = list(tasks)
    if chunks < 1:
        raise ConfigurationError(f"chunks must be >= 1, got {chunks}")
    count = min(chunks, len(task_list))
    if count <= 1:
        return [task_list] if task_list else []
    size, extra = divmod(len(task_list), count)
    out: List[List[TaskT]] = []
    start = 0
    for index in range(count):
        end = start + size + (1 if index < extra else 0)
        out.append(task_list[start:end])
        start = end
    return out


def run_tasks(fn: Callable[[TaskT], ResultT],
              tasks: Iterable[TaskT],
              workers: Optional[int] = 1,
              chunksize: Optional[int] = None) -> List[ResultT]:
    """Apply *fn* to every task, preserving task order in the result list.

    ``workers`` follows :func:`resolve_workers` (``None``/``0`` = all
    CPUs, ``1`` = serial).  *fn* must be a module-level callable and both
    tasks and results must be picklable when ``workers > 1``; if the pool
    cannot be created or breaks for infrastructure reasons the whole list
    is (re)computed serially, so callers never observe a partial result.
    """
    task_list = list(tasks)
    worker_count = min(resolve_workers(workers), len(task_list))
    if worker_count <= 1 or not _POOL_AVAILABLE:
        return [fn(task) for task in task_list]
    try:
        # Pre-flight: unpicklable callables/tasks (lambdas, closures, live
        # handles) cannot cross the process boundary; pickling failures
        # surface as assorted exception types, so probe before the pool.
        pickle.dumps(fn)
        pickle.dumps(task_list[0])
    except Exception:
        return [fn(task) for task in task_list]
    if chunksize is None:
        # Around four chunks per worker balances load against IPC cost.
        chunksize = max(1, len(task_list) // (worker_count * 4))
    try:
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            return list(pool.map(fn, task_list, chunksize=chunksize))
    except _FALLBACK_ERRORS:
        return [fn(task) for task in task_list]
