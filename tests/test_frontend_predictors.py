"""Unit tests for the branch predictors (Table 2 combined predictor)."""

import random

import pytest

from repro.errors import ConfigError
from repro.frontend import (
    BimodalPredictor,
    CombinedPredictor,
    GsharePredictor,
    TwoBitCounterTable,
)


class TestTwoBitCounters:
    def test_initial_weakly_taken(self):
        table = TwoBitCounterTable(16)
        assert table.predict(0)  # initial value 2 = weakly taken

    def test_saturation_up(self):
        table = TwoBitCounterTable(16)
        for _ in range(10):
            table.update(3, True)
        assert table.counter(3) == 3

    def test_saturation_down(self):
        table = TwoBitCounterTable(16)
        for _ in range(10):
            table.update(3, False)
        assert table.counter(3) == 0

    def test_hysteresis(self):
        table = TwoBitCounterTable(16, initial=3)
        table.update(0, False)  # 3 -> 2 still predicts taken
        assert table.predict(0)
        table.update(0, False)  # 2 -> 1 now predicts not taken
        assert not table.predict(0)

    def test_index_wraps(self):
        table = TwoBitCounterTable(4)
        table.update(5, False)
        table.update(5, False)
        assert not table.predict(1)  # 5 & 3 == 1

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            TwoBitCounterTable(12)
        with pytest.raises(ConfigError):
            TwoBitCounterTable(16, initial=7)


class TestBimodal:
    def test_learns_bias(self):
        predictor = BimodalPredictor(64)
        for _ in range(4):
            predictor.update(0x1000, False)
        assert not predictor.predict(0x1000)

    def test_distinct_pcs_independent(self):
        predictor = BimodalPredictor(64)
        for _ in range(4):
            predictor.update(0x1000, False)
        assert predictor.predict(0x1004)  # untouched entry


class TestGshare:
    def test_history_shifts(self):
        predictor = GsharePredictor(256, history_bits=4)
        predictor.update(0x1000, True)
        predictor.update(0x1000, False)
        assert predictor.history == 0b10

    def test_learns_alternating_pattern(self):
        """Gshare disambiguates by history, so T/N/T/N becomes learnable."""
        predictor = GsharePredictor(1 << 12, history_bits=8)
        outcome = True
        for _ in range(200):
            predictor.update(0x4000, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if predictor.predict(0x4000) == outcome:
                correct += 1
            predictor.update(0x4000, outcome)
            outcome = not outcome
        assert correct >= 95

    def test_bad_history_bits(self):
        with pytest.raises(ConfigError):
            GsharePredictor(256, history_bits=0)


class TestCombined:
    def test_learns_strong_bias(self):
        predictor = CombinedPredictor()
        for _ in range(50):
            predictor.predict_and_update(0x2000, True)
        assert predictor.predict(0x2000)

    def test_accuracy_tracking(self):
        predictor = CombinedPredictor()
        for _ in range(100):
            predictor.predict_and_update(0x2000, True)
        assert predictor.predictions == 100
        assert predictor.accuracy > 0.9

    def test_accuracy_of_unused_predictor(self):
        assert CombinedPredictor().accuracy == 1.0

    def test_beats_bimodal_on_history_patterns(self):
        """The tournament should pick gshare for pattern branches."""
        rng = random.Random(0)
        combined = CombinedPredictor()
        bimodal = BimodalPredictor()
        pattern = [True, True, False]
        hits_c = hits_b = 0
        n = 600
        for i in range(n):
            outcome = pattern[i % 3]
            if combined.predict(0x3000) == outcome:
                hits_c += 1
            if bimodal.predict(0x3000) == outcome:
                hits_b += 1
            combined.update(0x3000, outcome)
            bimodal.update(0x3000, outcome)
        assert hits_c > hits_b

    def test_predict_and_update_matches_predict_then_update(self):
        """The fused fetch path equals predict() followed by update()."""
        rng = random.Random(2)
        fused = CombinedPredictor(16, 32, 64, history_bits=5)
        reference = CombinedPredictor(16, 32, 64, history_bits=5)
        for _ in range(3000):
            pc = rng.randrange(0, 1 << 12) & ~3
            taken = rng.random() < 0.6
            expected = reference.predict(pc)
            reference.update(pc, taken)
            assert fused.predict_and_update(pc, taken) == expected
        assert fused.gshare.history == reference.gshare.history
        assert fused._chooser._table == reference._chooser._table
        assert (
            fused.gshare._counters._table == reference.gshare._counters._table
        )
        assert (
            fused.bimodal._counters._table
            == reference.bimodal._counters._table
        )

    def test_random_branches_near_chance(self):
        rng = random.Random(1)
        predictor = CombinedPredictor()
        for _ in range(2000):
            predictor.predict_and_update(0x5000, rng.random() < 0.5)
        assert 0.35 < predictor.accuracy < 0.65
