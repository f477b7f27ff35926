"""Summary statistics and the per-run result every workload fills in."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    Needs at least 11 samples; the workloads are sized so every timed
    series has them.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    index = n - 1 - TAIL_BEYOND
    return float(ordered[index]), 100.0 * index / (n - 1)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    #: name -> (value, unit, sample count, note)
    metrics: dict[str, tuple[float, str, int, str]] = field(default_factory=dict)
    #: per-layer name -> (value, unit); only filled by the traced run
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: host diagnostics printed beside the result, never gated
    diagnostics: dict[str, float] = field(default_factory=dict)
    #: output checks: (name, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metric(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, int(samples), note)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one output check; a failed check is a failed operation."""
        self.checks.append((name, bool(passed), detail))
        self.attempted += 1
        if not passed:
            self.failed += 1

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)
