"""Synchronous scoring through the micro-batch path, for the parity tests.

:class:`SyncClient` sends every id through ``ScoringService.submit`` and
``drain`` exactly like concurrent traffic would, so the scores it returns
must be bit-identical to the batch predictor on the same snapshot.
Tests only — nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np


class SyncClient:
    """A synchronous caller of one ``ScoringService``.

    Like every caller of the service it owns the clock: it submits at its
    own ``now``, and each ``drain`` moves ``now`` to the last completion
    it reports, which is where ``drain`` left the service's clock.
    """

    def __init__(self, service, now: float = 0.0) -> None:
        self.service = service
        self.now = now

    def score(self, customer_ids) -> np.ndarray:
        """Scores of ``customer_ids`` in order, submitted without a
        deadline, so none expires.

        The client drains after every ``max_queue_depth`` submits, so the
        queue never fills: a synchronous caller waits out backpressure
        instead of being shed.
        """
        service = self.service
        depth = service.config.max_queue_depth
        ids = np.asarray(customer_ids, dtype=np.int64).tolist()
        tickets = []
        for i, cid in enumerate(ids):
            if i and i % depth == 0:
                self._drain()
            tickets.append(
                service.submit(cid, now=self.now, deadline_s=float("inf"))
            )
        self._drain()
        outcomes = {t.outcome for t in tickets}
        assert outcomes <= {"scored"}, f"synchronous requests ended {outcomes}"
        return np.array([t.score for t in tickets], dtype=np.float64)

    def _drain(self) -> None:
        done = self.service.drain()
        self.now = max([self.now] + [t.completion_s for t in done])
