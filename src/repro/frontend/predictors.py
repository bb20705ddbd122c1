"""Branch direction predictors (Table 2 configuration).

The paper's machine uses a *combined* (tournament) predictor: a gshare
component with 64K 2-bit counters and 16 bits of global history, a bimodal
component with 2K 2-bit counters, and a 1K-entry chooser of 2-bit counters
that picks between them per branch.

All predictors share the saturating 2-bit counter idiom; indices come from
word-aligned PCs (``pc >> 2``).
"""

from __future__ import annotations

from ..errors import ConfigError


def _check_pow2(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a power of two, got {value}")


class TwoBitCounterTable:
    """A table of saturating 2-bit counters (0..3; >=2 predicts taken)."""

    def __init__(self, entries: int, initial: int = 2) -> None:
        _check_pow2(entries, "counter table size")
        if not 0 <= initial <= 3:
            raise ConfigError("2-bit counter initial value must be in 0..3")
        self.entries = entries
        self._mask = entries - 1
        self._table = [initial] * entries

    def predict(self, index: int) -> bool:
        """Taken prediction for *index*."""
        return self._table[index & self._mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        """Saturating update toward the actual outcome."""
        i = index & self._mask
        value = self._table[i]
        if taken:
            if value < 3:
                self._table[i] = value + 1
        elif value > 0:
            self._table[i] = value - 1

    def counter(self, index: int) -> int:
        """Raw counter value (for tests)."""
        return self._table[index & self._mask]


class BimodalPredictor:
    """PC-indexed table of 2-bit counters."""

    def __init__(self, entries: int = 2048) -> None:
        self._counters = TwoBitCounterTable(entries)

    def predict(self, pc: int) -> bool:
        return self._counters.predict(pc >> 2)

    def update(self, pc: int, taken: bool) -> None:
        self._counters.update(pc >> 2, taken)


class GsharePredictor:
    """Global-history predictor: counters indexed by ``pc ^ history``."""

    def __init__(self, entries: int = 65536, history_bits: int = 16) -> None:
        if history_bits <= 0:
            raise ConfigError("gshare needs at least one history bit")
        self._counters = TwoBitCounterTable(entries)
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc >> 2) ^ self._history

    def predict(self, pc: int) -> bool:
        return self._counters.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        """Update the counter, then shift the outcome into the history."""
        self._counters.update(self._index(pc), taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    @property
    def history(self) -> int:
        """Current global history register (for tests)."""
        return self._history


class CombinedPredictor:
    """Tournament predictor per Table 2.

    The chooser counter moves toward the component that was right when the
    two disagree (the standard McFarling update rule).
    """

    def __init__(
        self,
        chooser_entries: int = 1024,
        bimodal_entries: int = 2048,
        gshare_entries: int = 65536,
        history_bits: int = 16,
    ) -> None:
        self.bimodal = BimodalPredictor(bimodal_entries)
        self.gshare = GsharePredictor(gshare_entries, history_bits)
        self._chooser = TwoBitCounterTable(chooser_entries)
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Direction prediction for the branch at *pc*."""
        use_gshare = self._chooser.predict(pc >> 2)
        if use_gshare:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        """Train all components with the actual outcome."""
        g_pred = self.gshare.predict(pc)
        b_pred = self.bimodal.predict(pc)
        if g_pred != b_pred:
            self._chooser.update(pc >> 2, g_pred == taken)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)  # also advances global history

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, train, and account one branch; returns the prediction.

        This is the trace-driven fast path used by the fetch unit: the
        actual outcome is known from the trace oracle, so prediction and
        training happen together.  It is :meth:`predict` followed by
        :meth:`update`, with the component tables read once and updated
        in place instead of through a dozen small calls per branch.
        """
        word = pc >> 2
        chooser = self._chooser
        gshare = self.gshare
        g_counters = gshare._counters
        g_table = g_counters._table
        g_index = (word ^ gshare._history) & g_counters._mask
        g_value = g_table[g_index]
        b_counters = self.bimodal._counters
        b_table = b_counters._table
        b_index = word & b_counters._mask
        b_value = b_table[b_index]
        g_pred = g_value >= 2
        b_pred = b_value >= 2
        c_table = chooser._table
        c_index = word & chooser._mask
        c_value = c_table[c_index]
        prediction = g_pred if c_value >= 2 else b_pred
        self.predictions += 1
        if prediction != taken:
            self.mispredictions += 1
        # Training, as in update(): the chooser moves toward gshare when
        # the components disagree and gshare was right, and away from it
        # when gshare was wrong; then both counters saturate toward the
        # outcome and the history shifts.
        if g_pred != b_pred:
            if g_pred == taken:
                if c_value < 3:
                    c_table[c_index] = c_value + 1
            elif c_value > 0:
                c_table[c_index] = c_value - 1
        if taken:
            if b_value < 3:
                b_table[b_index] = b_value + 1
            if g_value < 3:
                g_table[g_index] = g_value + 1
        else:
            if b_value > 0:
                b_table[b_index] = b_value - 1
            if g_value > 0:
                g_table[g_index] = g_value - 1
        gshare._history = (
            (gshare._history << 1) | (1 if taken else 0)
        ) & gshare._history_mask
        return prediction

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions so far (1.0 when unused)."""
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
