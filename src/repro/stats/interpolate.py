"""Gap reconstruction and resampling for monitored metric time series.

During the load phase, timeouts and lost packets leave gaps in the
collected series, and different collectors sample at different instants.
Sieve (Section 3.2) reconstructs missing data with *cubic spline*
interpolation -- smoother than linear interpolation or carrying previous
values forward -- and discretizes every series onto a common 500 ms grid
(finer than the 2 s grid of the original k-Shape paper, to improve
alignment accuracy).
"""

from __future__ import annotations

import numpy as np

#: Sieve's metric discretization interval, in seconds (paper Section 3.2).
DEFAULT_GRID_INTERVAL = 0.5


def spline_fill(
    timestamps: np.ndarray,
    values: np.ndarray,
    query_times: np.ndarray,
) -> np.ndarray:
    """Evaluate a cubic spline through ``(timestamps, values)`` at ``query_times``.

    Degenerate inputs degrade gracefully: fewer than two observations
    yield a constant series, and two or three observations fall back to
    linear interpolation (a cubic spline needs at least four points for
    its standard boundary conditions to be meaningful).

    Query times outside the observed range are clamped to the boundary
    values rather than extrapolated -- extrapolated cubics diverge
    quickly and would distort z-normalization.
    """
    ts = np.asarray(timestamps, dtype=float)
    vs = np.asarray(values, dtype=float)
    qs = np.asarray(query_times, dtype=float)
    if ts.shape != vs.shape or ts.ndim != 1:
        raise ValueError("timestamps and values must be equal-length 1-D arrays")
    if ts.size == 0:
        raise ValueError("cannot interpolate an empty series")
    order = np.argsort(ts)
    ts, vs = ts[order], vs[order]
    ts, unique_idx = np.unique(ts, return_index=True)
    vs = vs[unique_idx]

    if ts.size == 1:
        return np.full(qs.shape, vs[0])
    clamped = np.clip(qs, ts[0], ts[-1])
    if ts.size < 4:
        return np.interp(clamped, ts, vs)
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(ts, vs)
    return spline(clamped)


def resample_to_grid(
    timestamps: np.ndarray,
    values: np.ndarray,
    interval: float = DEFAULT_GRID_INTERVAL,
    start: float | None = None,
    end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Resample an irregular series onto an equidistant grid.

    Returns ``(grid_times, grid_values)``.  The grid spans
    ``[start, end]`` (defaulting to the observed range) with spacing
    ``interval``; values come from :func:`spline_fill`.
    """
    ts = np.asarray(timestamps, dtype=float)
    if ts.size == 0:
        raise ValueError("cannot resample an empty series")
    if interval <= 0:
        raise ValueError("interval must be positive")
    lo = ts.min() if start is None else float(start)
    hi = ts.max() if end is None else float(end)
    if hi < lo:
        raise ValueError(f"grid end {hi} precedes start {lo}")
    n_steps = int(np.floor((hi - lo) / interval)) + 1
    grid = lo + interval * np.arange(n_steps)
    return grid, spline_fill(ts, values, grid)


def align_series(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    interval: float = DEFAULT_GRID_INTERVAL,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Resample many ``name -> (timestamps, values)`` series onto one grid.

    The common grid spans the intersection of the observed ranges, so no
    series is extrapolated.  Returns ``(grid, {name: values})``.
    """
    if not series:
        raise ValueError("no series to align")
    starts, ends = [], []
    for name, (ts, _vs) in series.items():
        ts = np.asarray(ts, dtype=float)
        if ts.size == 0:
            raise ValueError(f"series {name!r} is empty")
        starts.append(ts.min())
        ends.append(ts.max())
    lo, hi = max(starts), min(ends)
    if hi < lo:
        raise ValueError("series do not overlap in time; cannot align")
    n_steps = int(np.floor((hi - lo) / interval)) + 1
    grid = lo + interval * np.arange(n_steps)
    aligned = {
        name: spline_fill(np.asarray(ts, float), np.asarray(vs, float), grid)
        for name, (ts, vs) in series.items()
    }
    return grid, aligned
