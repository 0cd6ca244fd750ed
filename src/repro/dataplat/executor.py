"""Execution backends for the compute hot paths.

The paper's platform gets its throughput from parallel task execution on a
Spark/Hadoop cluster; this module is the reproduction's equivalent — a small
backend abstraction that the hot paths (per-tree forest fits, per-month
wide-table builds, sharded SQL scatter) fan work out through:

* :class:`SerialBackend` — everything in-process, in submission order.  The
  zero-dependency default and the reference for parity testing.
* :class:`ProcessPoolBackend` — a ``concurrent.futures`` process pool
  whose workers are forked from the parent.  :meth:`~ExecutorBackend.map`
  pickles each task (top-level callable plus plain-data arguments);
  :meth:`~ExecutorBackend.map_resident` pickles only the callable and a
  small item, while a large *resident* object (a sharded catalog, the
  simulated world) reaches the workers by fork, never by pickle.  A batch
  containing anything unpicklable (e.g. a user lambda) transparently falls
  back to serial execution in the parent process, counted in
  :attr:`ProcessPoolBackend.fallbacks`.

**Determinism contract.**  ``map`` always returns results in submission
order, and callers pre-draw any randomness (bootstrap indices, tree seeds)
*before* submitting, so every backend produces bit-identical results for the
same task list.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

from ..config import ExecutorConfig
from ..errors import ExecutionError
from .observability import get_metrics, span

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "get_default_backend",
    "set_default_backend",
]


class ExecutorBackend:
    """Maps a picklable function over task arguments, preserving order."""

    #: Short backend kind, e.g. ``"serial"`` or ``"process"``.
    name = "abstract"

    @property
    def parallelism(self) -> int:
        """Number of tasks that can run at once."""
        return 1

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item, returning results in item order."""
        raise NotImplementedError

    def map_resident(
        self, fn: Callable, resident, stamp, items: Sequence
    ) -> list:
        """``[fn(resident, item) for item in items]``, in item order.

        ``resident`` is a large object every task reads and none mutates;
        ``stamp`` is a cheap value that changes whenever its contents do.
        A backend whose workers live elsewhere must hand them the resident
        as of ``stamp``, never an older copy.
        """
        return self.map(functools.partial(fn, resident), items)

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutorBackend):
    """Run every task inline, in submission order."""

    name = "serial"

    def map(self, fn: Callable, items: Sequence) -> list:
        with span("executor.map", backend=self.name, tasks=len(items)):
            return [fn(item) for item in items]

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend(ExecutorBackend):
    """Fan tasks out to a ``concurrent.futures`` process pool.

    Parameters
    ----------
    max_workers:
        Worker processes; 0 means one per CPU.

    The pool is created lazily on first :meth:`map` and survives across
    calls (so repeated fan-outs amortize worker start-up).  Batches whose
    function or arguments cannot be pickled run serially in the parent
    instead — the result is identical because tasks are self-contained; the
    ``fallbacks`` counter records how often that happened.

    :meth:`map_resident` ships ``(fn, token, item)`` only: the workers
    find the resident under ``token`` in the registry they inherited at
    fork.  The pool remembers the registry's ``{token: stamp}`` snapshot
    it forked with and forks again only when the current one differs — a
    new resident, a changed stamp, or a dead resident pruned.  Every fork
    counts ``executor.pool_forks`` and tags its ``executor.map`` span
    ``forked=True``, so a caller mutating between calls shows up as fork
    churn in a trace.
    """

    name = "process"

    def __init__(self, max_workers: int = 0) -> None:
        if max_workers < 0:
            raise ExecutionError(f"max_workers must be >= 0, got {max_workers}")
        self._max_workers = max_workers if max_workers > 0 else (os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None
        #: Registry snapshot the live pool's workers inherited.
        self._forked_with: dict | None = None
        #: Batches executed serially because they were not picklable.
        self.fallbacks = 0
        #: Tasks actually executed in worker processes.
        self.tasks_dispatched = 0
        #: Times a worker pool was started (first use, close, stale resident).
        self.pool_forks = 0

    @property
    def parallelism(self) -> int:
        return self._max_workers

    def map(self, fn: Callable, items: Sequence) -> list:
        return self._fan_out(fn, list(items), None)

    def map_resident(
        self, fn: Callable, resident, stamp, items: Sequence
    ) -> list:
        return self._fan_out(fn, list(items), (resident, stamp))

    def _fan_out(self, fn: Callable, items: list, resident) -> list:
        if not items:
            return []
        with span(
            "executor.map",
            backend=self.name,
            tasks=len(items),
            workers=self._max_workers,
        ) as sp:
            if self._max_workers == 1 or not self._picklable(fn, items):
                if self._max_workers != 1:
                    self.fallbacks += 1
                    sp.set_tag("fallback", True)
                    get_metrics().counter("executor.fallbacks").inc()
                if resident is not None:
                    fn = functools.partial(fn, resident[0])
                return [fn(item) for item in items]
            if resident is not None:
                token = _register_resident(*resident)
                if self._forked_with != _resident_snapshot():
                    self.close()
                fn, items = _run_resident, [(fn, token, item) for item in items]
            if self._pool is None:
                self._fork()
                sp.set_tag("forked", True)
            chunksize = max(1, len(items) // (self._max_workers * 4))
            self.tasks_dispatched += len(items)
            get_metrics().counter("executor.tasks_dispatched").inc(len(items))
            return list(self._pool.map(fn, items, chunksize=chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _fork(self) -> None:
        """Start workers that inherit the current resident registry.

        Fork, not spawn: workers inherit the parent's interpreter state
        (hash seed and residents included), and start-up is far cheaper.
        The workers fork on the pool's first submit, which follows at once
        in the same call, so the recorded snapshot is what they inherit.
        """
        mp_context = None
        try:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
        except (ImportError, ValueError):  # pragma: no cover
            mp_context = None
        self._pool = ProcessPoolExecutor(
            max_workers=self._max_workers, mp_context=mp_context
        )
        self._forked_with = _resident_snapshot()
        self.pool_forks += 1
        get_metrics().counter("executor.pool_forks").inc()

    @staticmethod
    def _picklable(fn: Callable, items: Sequence) -> bool:
        try:
            pickle.dumps(fn)
            for item in items:
                pickle.dumps(item)
        except Exception:
            return False
        return True

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(max_workers={self._max_workers})"

    # A backend owns OS resources; it never travels inside pickled tasks.
    def __reduce__(self):
        raise pickle.PicklingError("ProcessPoolBackend is not picklable")


#: Residents forked workers inherit: token -> (weak reference, stamp).
#: Tokens come from a counter, never ``id()``: a new object may reuse a
#: freed one's address and must not pass for it in a worker.
_residents: dict[int, tuple[weakref.ref, object]] = {}
_tokens = itertools.count(1)


def _register_resident(resident, stamp) -> int:
    """``resident``'s token, recording its current ``stamp``.

    Dead residents are pruned on the way, which changes the snapshot and
    so lets the next fork release the workers' copies of them.
    """
    found = None
    for token, (ref, _stamp) in list(_residents.items()):
        obj = ref()
        if obj is None:
            del _residents[token]
        elif obj is resident:
            found = token
    if found is None:
        found = next(_tokens)
    _residents[found] = (weakref.ref(resident), stamp)
    return found


def _resident_snapshot() -> dict:
    return {token: stamp for token, (_ref, stamp) in _residents.items()}


def _run_resident(task):
    """Worker trampoline: apply ``fn`` to the resident inherited at fork."""
    fn, token, item = task
    return fn(_residents[token][0](), item)


def make_backend(config: ExecutorConfig) -> ExecutorBackend:
    """Instantiate the backend an :class:`ExecutorConfig` describes (always
    serial in a forked worker)."""
    if config.backend == "process" and not _in_worker:
        return ProcessPoolBackend(max_workers=config.num_workers)
    return SerialBackend()


def resolve_backend(
    backend: "ExecutorBackend | ExecutorConfig | str | None",
) -> ExecutorBackend:
    """Normalize any backend spec to an :class:`ExecutorBackend` instance.

    Accepts an instance (returned as-is), an :class:`ExecutorConfig`, a kind
    string (``"serial"`` / ``"process"``), or ``None`` for the process-wide
    default (see :func:`get_default_backend`).  ``"process"`` is one shared
    pool per process, created on first use; closing it only makes its next
    ``map`` fork again.
    """
    global _shared_pool
    if backend is None:
        return get_default_backend()
    if isinstance(backend, ExecutorBackend):
        return backend
    if isinstance(backend, ExecutorConfig):
        return make_backend(backend)
    if isinstance(backend, str):
        if backend == "serial" or (backend == "process" and _in_worker):
            return SerialBackend()
        if backend == "process":
            if _shared_pool is None:
                _shared_pool = ProcessPoolBackend()
            return _shared_pool
        raise ExecutionError(f"unknown backend kind {backend!r}")
    raise ExecutionError(f"cannot interpret backend spec {backend!r}")


_shared_pool: ProcessPoolBackend | None = None
_default_backend: ExecutorBackend | None = None
#: True in a forked child: a pool worker never fans out again.
_in_worker = False


def _reset_in_child() -> None:
    """A forked child owns none of the parent's pools and forks none of its
    own (their workers would hang the parent's shutdown)."""
    global _shared_pool, _default_backend, _in_worker
    _shared_pool = None
    _default_backend = None
    _in_worker = True


if hasattr(os, "register_at_fork"):  # absent only where nothing forks
    os.register_at_fork(after_in_child=_reset_in_child)


def get_default_backend() -> ExecutorBackend:
    """The process-wide default backend.

    Created on first use from ``REPRO_NUM_WORKERS`` / ``REPRO_BACKEND``
    (see :meth:`repro.config.ExecutorConfig.from_env`); serial when unset.
    """
    global _default_backend
    if _default_backend is None:
        _default_backend = make_backend(ExecutorConfig.from_env())
    return _default_backend


def set_default_backend(backend: ExecutorBackend | None) -> None:
    """Override the process-wide default (``None`` re-reads the env)."""
    global _default_backend
    _default_backend = backend
