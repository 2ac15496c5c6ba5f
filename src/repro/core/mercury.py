"""Mercury/water-filling power allocation (Lozano, Tulino & Verdú 2006).

Classic water-filling is optimal for Gaussian inputs; Wi-Fi transmits
discrete QAM constellations, for which the optimal per-subcarrier powers
follow the *mercury/water-filling* rule: with channel gains ``g_k`` and
water level ``1/η``,

    p_k = (1/g_k) · mmse⁻¹(η / g_k)   if g_k > η,   else 0,

where ``mmse(γ)`` is the minimum mean-square error of estimating the
constellation symbol at SNR γ.  The mercury (the ``mmse⁻¹`` correction)
pours *under* the water and reduces how much power a strong subcarrier
soaks up once its constellation is nearly saturated.

The paper uses iterated mercury/water-filling (plus explicit subcarrier
selection) as the impractical-but-better "COPA+" upper bound (§3.3, §4);
it reports 30–50 s of compute per allocation on their platform, which is
why COPA+ is evaluated in trace-driven emulation only.  Ours takes
milliseconds per allocation, yet it still dominates any run with COPA+
enabled; :func:`mercury_allocate_batch` therefore solves the whole
(drop count × constellation × row) grid in one stacked bisection and
skips the candidates whose budget provably saturates the constellation.

MMSE functions are computed numerically by Gauss–Hermite quadrature on the
per-dimension PAM decomposition of square QAM, then cached as monotone
interpolation tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..phy.constants import MCS_TABLE, MODULATIONS, Modulation
from ..phy.rates import best_rate, best_rate_batch
from .equi_snr import Allocation, BatchAllocation

__all__ = [
    "DEFAULT_DROPS",
    "mmse_pam",
    "mmse_curve",
    "mmse_of_snr",
    "mmse_inverse",
    "mutual_information_of_snr",
    "mercury_waterfilling",
    "mercury_waterfilling_batch",
    "mercury_allocate",
    "mercury_allocate_batch",
]

#: Gauss–Hermite order for the MMSE integrals.
_GH_ORDER = 81
#: SNR grid for the cached MMSE tables (linear, log-spaced).
_SNR_GRID = np.logspace(-6, 8, 561)


def _pam_points(points_per_dim: int) -> np.ndarray:
    levels = 2.0 * np.arange(points_per_dim) - (points_per_dim - 1)
    return levels / np.sqrt(np.mean(levels**2))


def mmse_pam(snr_linear, points_per_dim: int) -> np.ndarray:
    """MMSE of unit-energy PAM in real AWGN with noise variance 1/snr.

    Computed exactly (to quadrature accuracy) as
    ``1 − E_y[(E[x|y])²]`` with the expectation over ``y = x + n`` taken by
    Gauss–Hermite quadrature around each constellation point.
    """
    snr = np.atleast_1d(np.asarray(snr_linear, dtype=float))
    x = _pam_points(points_per_dim)
    nodes, weights = np.polynomial.hermite.hermgauss(_GH_ORDER)
    weights = weights / np.sqrt(np.pi)

    out = np.empty_like(snr)
    for idx, gamma in enumerate(snr):
        if gamma <= 0:
            out[idx] = 1.0
            continue
        sigma = 1.0 / np.sqrt(gamma)
        # y samples: x_i + sigma * sqrt(2) * node  (Gauss-Hermite for N(0, σ²)).
        y = x[:, None] + sigma * np.sqrt(2.0) * nodes[None, :]
        # posterior mean of x given each y
        diff = y[:, :, None] - x[None, None, :]
        log_like = -(diff**2) * gamma / 2.0
        log_like -= log_like.max(axis=2, keepdims=True)
        like = np.exp(log_like)
        posterior_mean = (like * x[None, None, :]).sum(axis=2) / like.sum(axis=2)
        second_moment = ((posterior_mean**2) * weights[None, :]).sum(axis=1).mean()
        out[idx] = max(1.0 - second_moment, 0.0)
    return out if np.ndim(snr_linear) else float(out[0])


def _points_per_dim(modulation: Modulation) -> Tuple[int, float]:
    """PAM order per dimension and the SNR scale factor for the modulation.

    BPSK puts all its energy in one real dimension, so the effective
    per-dimension SNR is doubled; square QAM splits evenly, giving per-dim
    SNR equal to the complex-symbol SNR.
    """
    if modulation.bits_per_symbol == 1:
        return 2, 2.0
    if modulation.bits_per_symbol % 2:
        raise ValueError(f"unsupported modulation {modulation!r}")
    return 2 ** (modulation.bits_per_symbol // 2), 1.0


@lru_cache(maxsize=None)
def mmse_curve(bits_per_symbol: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached (snr_grid, mmse values) table for a constellation."""
    modulation = next(m for m in MODULATIONS if m.bits_per_symbol == bits_per_symbol)
    per_dim, scale = _points_per_dim(modulation)
    values = mmse_pam(_SNR_GRID * scale, per_dim)
    return _SNR_GRID.copy(), np.asarray(values)


def mmse_of_snr(snr_linear, modulation: Modulation) -> np.ndarray:
    """MMSE of the complex constellation at the given symbol SNR."""
    grid, values = mmse_curve(modulation.bits_per_symbol)
    snr = np.asarray(snr_linear, dtype=float)
    return np.interp(snr, grid, values, left=1.0, right=0.0)


@lru_cache(maxsize=None)
def _mi_table(bits_per_symbol: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative exact integral of the piecewise-linear MMSE interpolant.

    Returns ``(grid, mmse values, I(grid))`` with the mutual information in
    nats.  Below the grid the MMSE is 1 (so I(s) = s there); the cumulative
    values integrate the same interpolant :func:`mmse_of_snr` evaluates, so
    the pair (I, mmse) is an exactly consistent (objective, gradient) pair
    for optimizers — the I-MMSE relation dI/dsnr = mmse(snr).
    """
    grid, values = mmse_curve(bits_per_symbol)
    segments = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    cumulative = grid[0] + np.concatenate([[0.0], np.cumsum(segments)])
    return grid, values, cumulative


def mutual_information_of_snr(snr_linear, modulation: Modulation) -> np.ndarray:
    """Mutual information (nats) of the constellation at the given SNR.

    Defined as the exact integral of the interpolated MMSE curve, so
    :func:`mmse_of_snr` is its derivative everywhere — the property the
    oracle's concave program relies on.  Saturates at the constellation's
    entropy-limited ceiling once the MMSE table reaches zero.
    """
    grid, values, cumulative = _mi_table(modulation.bits_per_symbol)
    snr = np.atleast_1d(np.asarray(snr_linear, dtype=float))
    out = np.empty_like(snr)

    below = snr <= grid[0]
    above = snr >= grid[-1]
    inside = ~(below | above)
    out[below] = np.maximum(snr[below], 0.0)
    out[above] = cumulative[-1]
    if inside.any():
        s = snr[inside]
        index = np.searchsorted(grid, s, side="right") - 1
        g0, g1 = grid[index], grid[index + 1]
        v0, v1 = values[index], values[index + 1]
        slope = (v1 - v0) / (g1 - g0)
        ds = s - g0
        out[inside] = cumulative[index] + v0 * ds + 0.5 * slope * ds**2
    return out if np.ndim(snr_linear) else float(out[0])


def mmse_inverse(target, modulation: Modulation) -> np.ndarray:
    """SNR at which the constellation's MMSE equals ``target`` ∈ (0, 1].

    Targets at or above 1 map to SNR 0; targets at or below the table
    floor map to the top of the SNR grid (effectively "unbounded power",
    which the water-level bisection in :func:`mercury_waterfilling` never
    actually requests).
    """
    grid, values = mmse_curve(modulation.bits_per_symbol)
    target = np.asarray(target, dtype=float)
    # values are decreasing in snr; np.interp needs increasing x.
    return np.interp(target, values[::-1], grid[::-1], left=grid[-1], right=0.0)


def mercury_waterfilling(
    gains,
    total_power: float,
    modulation: Modulation,
    tolerance: float = 1e-9,
    max_bisections: int = 80,
) -> np.ndarray:
    """Optimal powers for a discrete constellation over parallel channels.

    ``gains[k]`` is the SINR per unit power on subcarrier k.  Returns the
    per-subcarrier powers summing to ``total_power`` (within tolerance).
    """
    gains = np.asarray(gains, dtype=float)
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    positive = gains > 0
    if not positive.any():
        return np.zeros_like(gains)

    def powers_for(eta: float) -> np.ndarray:
        powers = np.zeros_like(gains)
        active = gains > eta
        if active.any():
            ratio = eta / gains[active]
            powers[active] = mmse_inverse(ratio, modulation) / gains[active]
        return powers

    # Total power decreases monotonically in eta; bisect in log space.
    eta_high = float(gains[positive].max())
    eta_low = eta_high * 1e-12
    # Expand the lower bracket until it yields at least the requested power.
    for _ in range(60):
        if powers_for(eta_low).sum() >= total_power:
            break
        eta_low /= 1e3
    else:
        # MMSE saturation: even "infinite water" can't absorb the budget on
        # this grid; fall back to proportional scaling of the max solution.
        powers = powers_for(eta_low)
        return powers * (total_power / max(powers.sum(), 1e-300))

    for _ in range(max_bisections):
        eta_mid = np.sqrt(eta_low * eta_high)
        total = powers_for(eta_mid).sum()
        if abs(total - total_power) <= tolerance * total_power:
            eta_low = eta_mid
            break
        if total > total_power:
            eta_low = eta_mid
        else:
            eta_high = eta_mid
    powers = powers_for(eta_low)
    scale = total_power / max(powers.sum(), 1e-300)
    return powers * scale


@lru_cache(maxsize=None)
def _saturation_snr(bits_per_symbol: int) -> float:
    """An upper bound on :func:`mmse_inverse` over every positive target.

    The smallest grid SNR whose tabulated MMSE is exactly zero (the top of
    the grid when no entry is): the interpolant is non-increasing, so a
    positive target never maps above it.
    """
    grid, values = mmse_curve(bits_per_symbol)
    zero = np.flatnonzero(values == 0.0)
    return float(grid[zero[0]] if zero.size else grid[-1])


def _certified_saturated(gains, starts, codes, total_power: float) -> np.ndarray:
    """Rows that provably fail all 60 bracket-expansion tries.

    Row ``r`` keeps ``gains[r, starts[r]:]`` (all positive) and uses the
    constellation with ``codes[r]`` bits per symbol, whose
    :func:`mmse_inverse` never exceeds ``s_z`` (:func:`_saturation_snr`).
    Every power the serial ``powers_for`` produces is then at most
    ``fl(s_z / g_k)`` (zero or a quotient with a smaller numerator), and
    float addition is monotone, so the kept sum of those quotients — in
    the serial summation layout — bounds every total the expansion loop
    can see.  A row whose bound is below the budget never brackets.
    """
    bound = np.array([_saturation_snr(int(code)) for code in codes])
    ceiling = np.empty(len(gains))
    for start in np.unique(starts):
        rows = np.flatnonzero(starts == start)
        ceiling[rows] = (bound[rows, None] / gains[rows, start:]).sum(axis=1)
    return ceiling < total_power


class _Rows:
    """A gathered subset of the rows :func:`mercury_waterfilling_batch` solves.

    Holds each row's gains, its kept columns (``start`` onwards), the
    rows grouped by start — a row's total sums exactly its kept slice, so
    the pairwise-summation grouping matches the serial sum over the kept
    subcarriers — and the contiguous runs of rows sharing a constellation,
    so each run costs one ``np.interp``.
    """

    def __init__(self, index, gains, starts, codes, modulation_of):
        self.index = index
        # ``index`` is sorted, so at full size it is every row: no copy.
        self.gains = gains if index.size == gains.shape[0] else gains[index]
        starts = starts[index]
        self.kept = np.arange(gains.shape[1]) >= starts[:, None]
        self.by_start = [(s, np.flatnonzero(starts == s)) for s in np.unique(starts)]
        codes = codes[index]
        edges = np.concatenate([[0], np.flatnonzero(np.diff(codes)) + 1, [index.size]])
        self.runs = [
            (modulation_of[codes[a]], slice(a, b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
        ]

    def powers(self, eta: np.ndarray) -> np.ndarray:
        """The serial ``powers_for(eta)`` of every row, zero outside the kept columns."""
        powers = np.zeros_like(self.gains)
        active = self.kept & (self.gains > eta[:, None])
        with np.errstate(over="ignore"):
            for modulation, rows in self.runs:
                mask = active[rows]
                gains = self.gains[rows][mask]
                ratio = np.broadcast_to(eta[rows, None], mask.shape)[mask] / gains
                powers[rows][mask] = mmse_inverse(ratio, modulation) / gains
        return powers

    def totals(self, values: np.ndarray) -> np.ndarray:
        """Each row's sum over its kept columns, laid out as the serial sum."""
        out = np.empty(self.index.size)
        for start, rows in self.by_start:
            out[rows] = values[rows, start:].sum(axis=1)
        return out


def mercury_waterfilling_batch(
    gains,
    total_power: float,
    modulation: Union[Modulation, Sequence[Modulation]],
    tolerance: float = 1e-9,
    max_bisections: int = 80,
    starts=None,
) -> np.ndarray:
    """Row-batched :func:`mercury_waterfilling`, bit-identical per row.

    ``gains`` has shape (n_rows, n_sc).  Row ``r`` allocates over the
    columns ``gains[r, starts[r]:]`` (every column when ``starts`` is
    omitted), which must be strictly positive; the columns before its
    start get zero power.  ``modulation`` is one constellation for every
    row or a sequence with one per row; rows sharing a constellation are
    cheapest when contiguous.  Each row returns exactly what the serial
    call on its kept columns returns.

    Every row follows the serial water-level trajectory: the same bracket
    expansion, the same bisection sequence and the same final
    proportional rescale.  A row whose budget exceeds what the
    constellation can absorb even at "infinite water" — the certificate
    ``Σ_k s_z / g_k < total_power``, with ``s_z`` bounding
    :func:`mmse_inverse` — fails all 60 expansion tries by monotonicity
    of the float sums, so it skips them and takes the same final water
    level directly.  Rows that settle leave the working set, which is
    gathered again once it has shrunk by a fifth.
    """
    gains = np.asarray(gains, dtype=float)
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_rows, n_subcarriers)")
    n_rows, n = gains.shape
    starts = np.zeros(n_rows, dtype=np.intp) if starts is None else np.asarray(starts, np.intp)
    if starts.shape != (n_rows,) or np.any((starts < 0) | (starts >= n)):
        raise ValueError("starts must hold one column index in [0, n_sc) per row")
    if isinstance(modulation, Modulation):
        modulation = [modulation] * n_rows
    elif len(modulation) != n_rows:
        raise ValueError("modulation must be one constellation or one per row")
    codes = np.array([m.bits_per_symbol for m in modulation], dtype=int)
    modulation_of = {m.bits_per_symbol: m for m in modulation}

    def gather(index):
        return _Rows(index, gains, starts, codes, modulation_of)

    everything = gather(np.arange(n_rows))
    if not np.all(gains[everything.kept] > 0):
        raise ValueError("mercury/water-filling requires strictly positive kept gains")

    # Total power decreases monotonically in eta; bisect in log space.
    eta_high = np.max(gains, axis=1, where=everything.kept, initial=-np.inf)
    eta_low = eta_high * 1e-12

    saturated = _certified_saturated(gains, starts, codes, total_power)

    # Expand each row's lower bracket until it yields the requested power;
    # rows exhausting the 60 tries are MMSE-saturated and skip bisection
    # (their proportional rescale below matches the serial fallback).
    bracketed = np.zeros(n_rows, dtype=bool)
    work = gather(np.flatnonzero(~saturated))
    pending = np.ones(work.index.size, dtype=bool)
    for _ in range(60):
        if not pending.any():
            break
        totals = work.totals(work.powers(eta_low[work.index]))
        hit = pending & (totals >= total_power)
        bracketed[work.index[hit]] = True
        pending &= ~hit
        eta_low[work.index[pending]] /= 1e3
        if pending.sum() < 0.8 * pending.size:
            work, pending = gather(work.index[pending]), np.ones(pending.sum(), dtype=bool)
    certified = np.flatnonzero(saturated)
    for _ in range(60):
        eta_low[certified] /= 1e3

    work = gather(np.flatnonzero(bracketed))
    live = np.ones(work.index.size, dtype=bool)
    for _ in range(max_bisections):
        if not live.any():
            break
        eta_mid = np.sqrt(eta_low[work.index] * eta_high[work.index])
        totals = work.totals(work.powers(eta_mid))
        converged = live & (np.abs(totals - total_power) <= tolerance * total_power)
        live &= ~converged
        go_up = live & (totals > total_power)
        rise = converged | go_up
        eta_low[work.index[rise]] = eta_mid[rise]
        fall = live & ~go_up
        eta_high[work.index[fall]] = eta_mid[fall]
        if live.sum() < 0.8 * live.size:
            work, live = gather(work.index[live]), np.ones(live.sum(), dtype=bool)

    powers = everything.powers(eta_low)
    powers *= (total_power / np.maximum(everything.totals(powers), 1e-300))[:, None]
    return powers


#: Default drop-count candidates for the subcarrier-selection loop.  The
#: mercury rule already zeroes hopeless subcarriers, so a coarse sweep of
#: explicit drops (which also shrink the decoder's codeword) suffices.
#: Public because the candidate grid is part of the algorithm's contract:
#: the optimization oracle (:mod:`repro.core.oracle`) sweeps the same grid
#: with an independent inner solver.
DEFAULT_DROPS: Tuple[int, ...] = (0, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 26, 32, 40)


def mercury_allocate(
    gains,
    total_power: float,
    drop_candidates: Optional[Sequence[int]] = None,
    modulations: Sequence[Modulation] = MODULATIONS,
) -> Allocation:
    """Mercury/water-filling with explicit subcarrier selection.

    A drop-in replacement for :func:`repro.core.equi_snr.allocate` (same
    signature contract: ``gains`` is S(I)NR per unit power).  For each
    candidate drop count and constellation, allocate the remaining
    subcarriers by mercury/water-filling and predict goodput with the
    single-decoder rate model; keep the best.
    """
    gains = np.asarray(gains, dtype=float)
    n = gains.size
    order = np.argsort(gains)
    drops = DEFAULT_DROPS if drop_candidates is None else tuple(drop_candidates)

    best_goodput = 0.0
    best_powers = np.zeros(n)
    best_used = np.zeros(n, dtype=bool)
    best_mcs = None
    for drop in drops:
        if drop >= n:
            continue
        kept = order[drop:]
        kept = kept[gains[kept] > 0]
        if kept.size == 0:
            continue
        sub_gains = gains[kept]
        for modulation in modulations:
            powers_kept = mercury_waterfilling(sub_gains, total_power, modulation)
            sinr = np.zeros(n)
            sinr[kept] = powers_kept * sub_gains
            used = np.zeros(n, dtype=bool)
            used[kept] = powers_kept > 0
            if not used.any():
                continue
            table = [m for m in MCS_TABLE if m.modulation == modulation]
            selection = best_rate(sinr, used=used, mcs_table=table)
            if selection.goodput_bps > best_goodput:
                best_goodput = selection.goodput_bps
                best_powers = np.zeros(n)
                best_powers[kept] = powers_kept
                best_used = used
                best_mcs = selection.mcs

    return Allocation(
        powers=best_powers,
        used=best_used,
        equalized_snr=0.0,  # mercury does not equalize; field unused here
        mcs=best_mcs,
        goodput_bps=float(best_goodput),
    )


def mercury_allocate_batch(
    gains,
    total_power: float,
    drop_candidates: Optional[Sequence[int]] = None,
    modulations: Sequence[Modulation] = MODULATIONS,
) -> BatchAllocation:
    """Row-batched :func:`mercury_allocate`, bit-identical per row.

    ``gains`` has shape (n_rows, n_sc) and may hold non-positive entries.
    Each row's gains are sorted once; a (constellation, drop, row)
    candidate keeps the sorted columns from ``max(drop, number of
    non-positive gains)`` on, which is exactly the serial kept set.  The
    whole candidate grid, constellation-major, goes through one
    :func:`mercury_waterfilling_batch` call; each constellation's
    candidates are then rated by one :func:`best_rate_batch` call in the
    original subcarrier order (the decoder's BER mean is order-sensitive),
    and each row keeps its first best candidate in the serial
    drop-major, constellation-minor scan order.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_rows, n_subcarriers)")
    n_rows, n = gains.shape
    drops = DEFAULT_DROPS if drop_candidates is None else tuple(drop_candidates)
    drops = np.array([drop for drop in drops if drop < n], dtype=np.intp)

    best = BatchAllocation(
        powers=np.zeros((n_rows, n)),
        used=np.zeros((n_rows, n), dtype=bool),
        equalized_snr=np.zeros(n_rows),
        mcs_index=np.full(n_rows, -1),
        goodput_bps=np.zeros(n_rows),
    )

    order = np.argsort(gains, axis=1)
    sorted_gains = np.take_along_axis(gains, order, axis=1)
    starts = np.maximum(drops[:, None], (gains <= 0).sum(axis=1))
    # The candidates of one constellation, drop-major: (drop, row) pairs.
    cand_drop, cand_row = np.nonzero(starts < n)
    n_cand, n_mod = cand_row.size, len(modulations)
    if n_cand == 0 or n_mod == 0:
        return best

    cand_gains = sorted_gains[cand_row]
    cand_order = order[cand_row]
    powers = mercury_waterfilling_batch(
        np.tile(cand_gains, (n_mod, 1)),
        total_power,
        [modulation for modulation in modulations for _ in range(n_cand)],
        starts=np.tile(starts[cand_drop, cand_row], n_mod),
    ).reshape(n_mod, n_cand, n)

    # Scores in the serial scan order (drop-major, constellation-minor);
    # ineligible candidates (nothing used, or zero goodput) score -inf.
    score = np.full((drops.size, n_mod, n_rows), -np.inf)
    mcs_index = np.full((drops.size, n_mod, n_rows), -1)
    for i, modulation in enumerate(modulations):
        used = powers[i] > 0
        sinr = np.zeros((n_cand, n))
        np.put_along_axis(sinr, cand_order, np.where(used, powers[i] * cand_gains, 0.0), axis=1)
        used_full = np.zeros((n_cand, n), dtype=bool)
        np.put_along_axis(used_full, cand_order, used, axis=1)
        table = [mcs for mcs in MCS_TABLE if mcs.modulation == modulation]
        selection = best_rate_batch(sinr, used=used_full, mcs_table=table)
        eligible = used.any(axis=1) & (selection.goodput_bps > 0)
        score[cand_drop, i, cand_row] = np.where(eligible, selection.goodput_bps, -np.inf)
        mcs_index[cand_drop, i, cand_row] = selection.mcs_index

    score = score.reshape(-1, n_rows)
    winner = score.argmax(axis=0)
    rows = np.flatnonzero(score[winner, np.arange(n_rows)] > -np.inf)
    drop_of, modulation_of = np.divmod(winner[rows], n_mod)
    candidate_of = np.full((drops.size, n_rows), -1)
    candidate_of[cand_drop, cand_row] = np.arange(n_cand)
    chosen = powers[modulation_of, candidate_of[drop_of, rows]]
    chosen_powers = np.zeros((rows.size, n))
    np.put_along_axis(chosen_powers, order[rows], chosen, axis=1)
    best.powers[rows] = chosen_powers
    best.used[rows] = chosen_powers > 0
    best.goodput_bps[rows] = score[winner[rows], rows]
    best.mcs_index[rows] = mcs_index[drop_of, modulation_of, rows]
    return best
