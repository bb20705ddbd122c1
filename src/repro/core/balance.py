"""Workload-imbalance estimation (paper §3.5).

The paper combines two signals into one signed counter:

* **I1** — the difference in the number of instructions steered to each
  cluster: the counter is incremented for every instruction steered to
  cluster 0 and decremented for cluster 1, so consecutive instructions
  decoded in the same cycle each see an updated value (avoiding massive
  same-cycle steering to one side).
* **I2** — the *instant* workload imbalance: meaningful only when one
  cluster has more ready instructions than its issue width while the
  other has fewer (otherwise both clusters can issue at full rate and the
  workload counts as balanced).  The counter is updated with the average
  of I2 over a window of N cycles.

The paper empirically picks N = 16 and a strong-imbalance threshold of 8.
Positive counter values mean cluster 0 is the more loaded one.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ConfigError


class ImbalanceEstimator:
    """The combined I1/I2 imbalance counter."""

    def __init__(
        self,
        window: int = 16,
        threshold: int = 8,
        issue_widths: Sequence[int] = (4, 4),
    ) -> None:
        if window <= 0:
            raise ConfigError("imbalance window must be positive")
        if threshold < 0:
            raise ConfigError("imbalance threshold must be non-negative")
        self.window = window
        self.threshold = threshold
        self.issue_widths = tuple(issue_widths)
        self.counter = 0
        self._samples: List[int] = []

    # ------------------------------------------------------------------
    def on_steer(self, cluster: int) -> None:
        """I1 update: one instruction was steered to *cluster*."""
        self.counter += 1 if cluster == 0 else -1

    def instant_imbalance(self, ready_counts: Sequence[int]) -> int:
        """I2 sample for the current cycle (positive = cluster 0 loaded)."""
        r0, r1 = ready_counts
        w0, w1 = self.issue_widths
        if r0 > w0 and r1 < w1:
            return r0 - r1
        if r1 > w1 and r0 < w0:
            return r0 - r1  # negative
        return 0

    def on_cycle(self, ready_counts: Sequence[int]) -> None:
        """Accumulate I2; fold its window average into the counter.

        The I2 sample is :meth:`instant_imbalance`, computed inline (this
        runs once per simulated cycle).
        """
        r0, r1 = ready_counts
        w0, w1 = self.issue_widths
        if (r0 > w0 and r1 < w1) or (r1 > w1 and r0 < w0):
            sample = r0 - r1
        else:
            sample = 0
        samples = self._samples
        samples.append(sample)
        if len(samples) >= self.window:
            avg = sum(samples) / len(samples)
            self.counter += round(avg)
            samples.clear()

    # ------------------------------------------------------------------
    @property
    def strongly_imbalanced(self) -> bool:
        """True when the combined counter exceeds the threshold."""
        return abs(self.counter) > self.threshold

    @property
    def overloaded_cluster(self) -> int:
        """The cluster the counter currently points at as busier."""
        return 0 if self.counter > 0 else 1

    @property
    def preferred_cluster(self) -> int:
        """The least-loaded cluster according to the counter."""
        return 1 if self.counter > 0 else 0

    def reset(self) -> None:
        """Clear all state (new measurement window)."""
        self.counter = 0
        self._samples.clear()
