"""What one workload run hands back to run.py."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The end-to-end metrics every workload reports, with their units.  What an
# operation is differs by workload: a burst carried to its window probability
# on the stream workloads, one round of the recipe on train_recipe.
END_TO_END_UNITS = {
    "frames_per_s": "frames/s",  # radar frames through the model per measured second
    "latency_p50_us": "us",  # operation start (or due time) to its result
}


@dataclass
class Outcome:
    setup_end: float  # time.perf_counter() when set-up finished
    metrics: dict[str, float]  # every END_TO_END_UNITS name -> value
    attempted: int
    failed: int
    errors: list[str]  # failed checks; empty when every output is correct
    counters: dict[str, tuple[float, str]] = field(default_factory=dict)  # per-layer extras
    notes: dict = field(default_factory=dict)  # logged to stderr only


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median_of(windows: list[list[float]], q: float) -> float:
    """Median over windows of each window's q-th percentile."""
    return float(np.median([percentile(w, q) for w in windows]))
