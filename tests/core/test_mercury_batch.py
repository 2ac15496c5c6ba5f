"""The stacked COPA+ allocator against the serial reference, bit for bit.

``mercury_allocate_batch`` solves every (constellation, drop, row)
candidate in one ``mercury_waterfilling_batch`` call and skips the bracket
expansion of candidates the saturation certificate marks.  The serial
``mercury_allocate`` / ``mercury_waterfilling`` pair stays the reference:
every row of the batch must match it exactly.
"""

import numpy as np
import pytest

from repro.core import mercury
from repro.core.mercury import (
    DEFAULT_DROPS,
    mercury_allocate,
    mercury_allocate_batch,
    mercury_waterfilling,
    mercury_waterfilling_batch,
    mmse_inverse,
)
from repro.phy.constants import BPSK, MODULATIONS, QAM16, QAM64, QPSK

#: The per-stream budget COPA+ runs with in the engine: most candidates
#: are MMSE-saturated at it.
LARGE = 15.811388300841896
#: A budget no constellation saturates on these gains.
SMALL = 1e-3


def gain_matrix(seed, kind="positive", n_rows=3, n_sc=52):
    """Seeded S(I)NR-per-unit-power rows spanning the engine's range."""
    rng = np.random.default_rng(seed)
    gains = 10.0 ** rng.uniform(-2, 5, size=(n_rows, n_sc))
    if kind == "ties":
        gains = 10.0 ** rng.integers(-1, 4, size=(n_rows, n_sc)).astype(float)
    elif kind == "nonpositive":
        gains[0, rng.choice(n_sc, size=5, replace=False)] = 0.0
        gains[1, rng.choice(n_sc, size=3, replace=False)] = -rng.uniform(0.1, 1.0, size=3)
        gains[2] = -gains[2]
        gains[2, ::3] = 0.0
    elif kind == "all_nonpositive":
        gains = -gains
        gains[:, ::2] = 0.0
    return gains


#: (seed, kind, n_sc, budget): every case draws its own gain matrix.
CASES = (
    [(seed, "positive", 52, (LARGE, SMALL)[seed % 2]) for seed in range(16)]
    + [(seed, "nonpositive", 52, (LARGE, SMALL)[seed % 2]) for seed in range(16, 28)]
    + [(seed, "positive", 8, (LARGE, SMALL)[seed % 2]) for seed in range(28, 36)]
    + [(seed, "ties", 52, (LARGE, SMALL)[seed % 2]) for seed in range(36, 40)]
    + [(40, "positive", 52, 0.2), (41, "nonpositive", 52, 0.2), (42, "nonpositive", 8, 0.2)]
    + [(43, "all_nonpositive", 52, LARGE)]
)

CUSTOM = dict(drop_candidates=(5, 0, 0, 60, 40, 2), modulations=(QAM64, BPSK, QAM16))


def assert_rows_match(gains, budget, **kwargs):
    batch = mercury_allocate_batch(gains, budget, **kwargs)
    for row, row_gains in enumerate(gains):
        serial = mercury_allocate(row_gains, budget, **kwargs)
        assert np.array_equal(batch.powers[row], serial.powers), row
        assert np.array_equal(batch.used[row], serial.used), row
        assert batch.mcs_index[row] == (-1 if serial.mcs is None else serial.mcs.index), row
        assert batch.goodput_bps[row] == serial.goodput_bps, row
    return batch


def candidates(gains, drop_candidates=DEFAULT_DROPS, modulations=MODULATIONS):
    """The serial candidate grid: (modulation, sorted row gains, kept start)."""
    n = gains.shape[1]
    sorted_gains = np.take_along_axis(gains, np.argsort(gains, axis=1), axis=1)
    nonpositive = (gains <= 0).sum(axis=1)
    for modulation in modulations:
        for drop in drop_candidates:
            for row in range(gains.shape[0]):
                start = max(drop, nonpositive[row])
                if drop < n and start < n:
                    yield modulation, sorted_gains[row], start


def serial_brackets(kept, total_power, modulation):
    """Re-run ``mercury_waterfilling``'s 60 bracket-expansion tries."""
    eta_low = float(kept.max()) * 1e-12
    for _ in range(60):
        powers = np.zeros_like(kept)
        active = kept > eta_low
        powers[active] = mmse_inverse(eta_low / kept[active], modulation) / kept[active]
        if powers.sum() >= total_power:
            return True
        eta_low /= 1e3
    return False


def certified(gains, budget, **kwargs):
    grid = list(candidates(gains, **kwargs))
    sorted_rows = np.array([row for _, row, _ in grid])
    starts = np.array([start for _, _, start in grid])
    codes = np.array([modulation.bits_per_symbol for modulation, _, _ in grid])
    return grid, mercury._certified_saturated(sorted_rows, starts, codes, budget)


class TestAllocateBatchMatchesSerial:
    @pytest.mark.parametrize("seed, kind, n_sc, budget", CASES)
    def test_rows_bit_identical(self, seed, kind, n_sc, budget):
        assert_rows_match(gain_matrix(seed, kind, n_sc=n_sc), budget)

    @pytest.mark.parametrize("seed, n_sc", [(60, 52), (61, 8), (62, 52)])
    def test_custom_drops_and_constellation_subset(self, seed, n_sc):
        gains = gain_matrix(seed, "nonpositive", n_sc=n_sc)
        assert_rows_match(gains, LARGE, **CUSTOM)
        assert_rows_match(gains, SMALL, **CUSTOM)

    def test_all_nonpositive_rows_allocate_nothing(self):
        batch = assert_rows_match(gain_matrix(70, "all_nonpositive"), LARGE)
        assert not batch.used.any() and np.all(batch.mcs_index == -1)
        assert np.all(batch.goodput_bps == 0.0)

    def test_row_alone_equals_row_in_batch(self):
        gains = np.vstack([gain_matrix(71, "nonpositive"), gain_matrix(72)])
        batch = mercury_allocate_batch(gains, LARGE)
        for row in range(gains.shape[0]):
            alone = mercury_allocate_batch(gains[row : row + 1], LARGE)
            assert np.array_equal(alone.powers[0], batch.powers[row])
            assert np.array_equal(alone.used[0], batch.used[row])
            assert alone.mcs_index[0] == batch.mcs_index[row]
            assert alone.goodput_bps[0] == batch.goodput_bps[row]

    def test_one_waterfilling_call_per_allocation(self, monkeypatch):
        calls = []
        original = mercury.mercury_waterfilling_batch

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(mercury, "mercury_waterfilling_batch", counting)
        mercury_allocate_batch(gain_matrix(73), LARGE)
        assert calls == [len(MODULATIONS) * len(DEFAULT_DROPS) * 3]


class TestWaterfillingBatch:
    def test_uniform_modulation_without_starts_matches_serial(self):
        gains = gain_matrix(50)
        for budget in (LARGE, SMALL):
            batch = mercury_waterfilling_batch(gains, budget, QAM16)
            for row, row_gains in enumerate(gains):
                assert np.array_equal(batch[row], mercury_waterfilling(row_gains, budget, QAM16))

    def test_per_row_starts_and_interleaved_modulations(self):
        rng = np.random.default_rng(51)
        gains = np.sort(gain_matrix(51, n_rows=12), axis=1)
        starts = rng.integers(0, 50, size=12)
        modulations = [MODULATIONS[i % 4] for i in range(12)]
        for budget in (LARGE, 0.2, SMALL):
            batch = mercury_waterfilling_batch(gains, budget, modulations, starts=starts)
            for row in range(12):
                start = starts[row]
                serial = mercury_waterfilling(gains[row, start:], budget, modulations[row])
                assert np.array_equal(batch[row, start:], serial)
                assert not batch[row, :start].any()

    def test_rejects_nonpositive_kept_gains_and_bad_starts(self):
        gains = np.sort(gain_matrix(52), axis=1)
        gains[0, 3] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            mercury_waterfilling_batch(gains, LARGE, QPSK)
        mercury_waterfilling_batch(gains, LARGE, QPSK, starts=[4, 0, 0])
        with pytest.raises(ValueError, match="starts"):
            mercury_waterfilling_batch(gains, LARGE, QPSK, starts=[4, 0, 52])
        with pytest.raises(ValueError, match="one per row"):
            mercury_waterfilling_batch(gains, LARGE, [QPSK, BPSK], starts=[4, 0, 0])


class TestSaturationCertificate:
    @pytest.mark.parametrize("seed, kind, n_sc, budget", [c for c in CASES if c[3] == LARGE])
    def test_marked_candidates_never_bracket(self, seed, kind, n_sc, budget):
        gains = gain_matrix(seed, kind, n_sc=n_sc)
        grid, saturated = certified(gains, budget)
        if kind != "all_nonpositive":
            assert saturated.any(), "the engine's budget should saturate some candidates"
        for (modulation, row, start), marked in zip(grid, saturated):
            if marked:
                assert not serial_brackets(row[start:], budget, modulation)

    def test_custom_grid_marked_candidates_never_bracket(self):
        gains = gain_matrix(63, "nonpositive")
        grid, saturated = certified(gains, LARGE, **CUSTOM)
        assert saturated.any()
        for (modulation, row, start), marked in zip(grid, saturated):
            if marked:
                assert not serial_brackets(row[start:], LARGE, modulation)

    @pytest.mark.parametrize(
        "seed, kind, n_sc", [(1, "positive", 52), (17, "nonpositive", 52), (29, "positive", 8)]
    )
    def test_small_budget_marks_nothing_and_every_candidate_brackets(self, seed, kind, n_sc):
        gains = gain_matrix(seed, kind, n_sc=n_sc)
        grid, saturated = certified(gains, SMALL)
        assert not saturated.any()
        for modulation, row, start in grid:
            assert serial_brackets(row[start:], SMALL, modulation)

    def test_mmse_tables_are_monotone(self):
        """The certificate's bound relies on non-increasing MMSE tables."""
        for modulation in MODULATIONS:
            _, values = mercury.mmse_curve(modulation.bits_per_symbol)
            assert np.all(np.diff(values) <= 0)
            bound = mercury._saturation_snr(modulation.bits_per_symbol)
            targets = np.concatenate([[5e-324, 1e-300, 1e-12], np.logspace(-9, 0, 200)])
            assert np.all(mmse_inverse(targets, modulation) <= bound)
