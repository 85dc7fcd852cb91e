"""Per-pipeline progress tracking (paper Section III-A).

Worker threads already synchronise on the morsel dispatcher after every
morsel; at that point they additionally record how many tuples they processed
and how long the morsel took.  The tracker maintains per-thread processing
rates (tuples/second) and the total progress of the pipeline, which is all
the adaptive policy needs to extrapolate the remaining duration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class _ThreadRate:
    tuples: int = 0
    seconds: float = 0.0

    @property
    def rate(self) -> Optional[float]:
        if self.seconds <= 0 or self.tuples <= 0:
            return None
        return self.tuples / self.seconds


class PipelineProgress:
    """Tracks processed tuples and per-thread rates for one pipeline."""

    def __init__(self, total_tuples: int, num_threads: int):
        self.total_tuples = total_tuples
        self.num_threads = num_threads
        self._lock = threading.Lock()
        self._rates: dict[int, _ThreadRate] = {}
        self.processed_tuples = 0
        self.morsels_processed = 0

    # ------------------------------------------------------------------ #
    def record_morsel(self, thread_id: int, tuples: int,
                      seconds: float) -> None:
        with self._lock:
            entry = self._rates.get(thread_id)
            if entry is None:
                entry = self._rates[thread_id] = _ThreadRate()
            entry.tuples += tuples
            entry.seconds += seconds
            self.processed_tuples += tuples
            self.morsels_processed += 1

    def reset_rates(self) -> None:
        """Forget the measured rates (after an execution-mode switch)."""
        with self._lock:
            self._rates.clear()

    # ------------------------------------------------------------------ #
    @property
    def remaining_tuples(self) -> int:
        with self._lock:
            return max(self.total_tuples - self.processed_tuples, 0)

    def average_rate(self) -> Optional[float]:
        """Average per-thread processing rate in tuples/second."""
        with self._lock:
            rates = [entry.rate for entry in self._rates.values()
                     if entry.rate is not None]
        if not rates:
            return None
        return sum(rates) / len(rates)
