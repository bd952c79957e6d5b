"""Normalized cross-correlation and the shape-based distance (SBD).

The k-Shape clustering algorithm (Paparrizos & Gravano, SIGMOD 2015,
adopted by Sieve in Section 3.2) measures time-series similarity with

    SBD(x, y) = 1 - max_w NCC_w(x, y)

where ``NCC`` is the cross-correlation normalized by the geometric mean
of the two series' autocorrelations at lag zero, and ``w`` ranges over
all alignments of ``x`` slid over ``y``.  Because the maximization runs
over shifts, SBD recognizes two series that have the same shape but are
displaced in time -- exactly the situation of metrics in communicating
microservices, where effects propagate with network/processing delay.

Cross-correlation is computed with FFTs (O(n log n)), as in the k-Shape
paper.

Two implementations live here:

* the **per-pair reference** (:func:`sbd`, :func:`sbd_with_shift`,
  :func:`normalized_cross_correlation`) -- one FFT round-trip per
  series pair, the direct transcription of the k-Shape definition;
* the **batched kernel** (:func:`sbd_pairs`, :func:`sbd_matrix`) --
  stacks candidate rows and runs *one* ``rfft``/``irfft`` per batch,
  which is where the per-window re-cluster critical path spends its
  time.  Row-batched FFTs are bit-identical to per-row transforms and
  the per-row energies use the same BLAS dot the reference does; the
  residual difference is the complex spectrum product, whose SIMD
  rounding depends on how the multiply is sliced, so batched distances
  match the reference to within a few ulps (~1e-16) rather than
  bit-for-bit.  The batched path itself is deterministic (same shapes
  -> same bits), so clusterings are reproducible and identical across
  executors; the equivalence tests assert tight-tolerance agreement
  with per-pair loops over the reference plus fingerprint-identical
  clusterings.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cross_correlation_sequence",
    "normalized_cross_correlation",
    "sbd",
    "sbd_matrix",
    "sbd_pairs",
    "sbd_with_shift",
]


def _next_pow_two(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def cross_correlation_sequence(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full cross-correlation ``CC_w(x, y)`` for all shifts via FFT.

    Returns an array of length ``2n - 1`` where index ``n - 1`` is the
    zero-shift correlation, lower indices shift ``x`` left of ``y`` and
    higher indices shift it right.  Both inputs must share a length.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("cross-correlation expects 1-D inputs")
    if xa.size != ya.size:
        raise ValueError(
            f"series lengths differ: {xa.size} vs {ya.size}; align them first"
        )
    n = xa.size
    if n == 0:
        raise ValueError("cannot correlate empty series")
    size = _next_pow_two(2 * n - 1)
    fx = np.fft.rfft(xa, size)
    fy = np.fft.rfft(ya, size)
    cc = np.fft.irfft(fx * np.conj(fy), size)
    # Rearrange so index 0 is shift -(n-1) and index 2n-2 is shift n-1.
    return np.concatenate([cc[-(n - 1):], cc[:n]]) if n > 1 else cc[:1]


def normalized_cross_correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NCC_w(x, y) for every shift w (the "NCCc" coefficient of k-Shape).

    Normalizes by ``sqrt((x . x) * (y . y))``, the geometric mean of the
    two lag-zero autocorrelations.  If either series has zero energy the
    correlation is defined as all zeros (two flat series are maximally
    distant in shape space unless both are compared by value elsewhere).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    cc = cross_correlation_sequence(xa, ya)
    denom = np.sqrt(float(xa @ xa) * float(ya @ ya))
    if denom <= 1e-300:
        return np.zeros_like(cc)
    return cc / denom


def sbd_with_shift(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Shape-based distance and the maximizing shift.

    Returns ``(distance, shift)`` where ``distance = 1 - max_w NCC_w``
    lies in ``[0, 2]`` and ``shift`` is the displacement of ``x``
    relative to ``y`` at the maximum (positive: ``x`` lags ``y``).
    """
    ncc = normalized_cross_correlation(x, y)
    idx = int(np.argmax(ncc))
    n = (ncc.size + 1) // 2
    distance = 1.0 - float(ncc[idx])
    # Guard against floating-point excursions just outside [0, 2].
    distance = min(max(distance, 0.0), 2.0)
    return distance, idx - (n - 1)


def sbd(x: np.ndarray, y: np.ndarray) -> float:
    """Shape-based distance ``1 - max_w NCC_w(x, y)`` in ``[0, 2]``."""
    return sbd_with_shift(x, y)[0]


# -- the batched kernel ----------------------------------------------------

#: Pair-rows per ``irfft`` chunk: bounds the batched kernel's scratch
#: memory (a chunk of 4096 pairs at FFT size 512 is ~16 MB) without
#: giving up the one-transform-per-batch win on realistic inputs.
_PAIR_CHUNK = 4096


def _as_rows(series: np.ndarray) -> np.ndarray:
    data = np.ascontiguousarray(np.atleast_2d(
        np.asarray(series, dtype=float)))
    if data.ndim != 2:
        raise ValueError("batched SBD expects a 2-D row matrix")
    if data.shape[1] == 0:
        raise ValueError("cannot correlate empty series")
    return data


def _row_energies(rows: np.ndarray) -> np.ndarray:
    """Per-row ``x . x``, via the same dot product the reference uses.

    ``einsum``/``(x * x).sum`` use pairwise summation and so differ
    from ``x @ x`` in the last ulp; the explicit per-row dot keeps the
    batched denominators identical to the per-pair reference's (rows
    are few -- the loop is noise next to the FFTs).
    """
    return np.array([float(row @ row) for row in rows])


def _ncc_block(fx: np.ndarray, fy: np.ndarray, size: int, n: int,
               denom: np.ndarray) -> np.ndarray:
    """NCC rows for pre-paired spectra (one ``irfft`` for the block).

    ``fx``/``fy`` are aligned (pairs, size // 2 + 1) spectra; ``denom``
    carries the pairwise energy normalizers (0 energy -> all-zero NCC,
    matching the reference's zero-energy convention).
    """
    cc = np.fft.irfft(fx * np.conj(fy), size, axis=1)
    if n > 1:
        cc = np.concatenate([cc[:, -(n - 1):], cc[:, :n]], axis=1)
    else:
        cc = cc[:, :1]
    safe = np.where(denom > 1e-300, denom, 1.0)
    cc /= safe[:, None]
    cc[denom <= 1e-300] = 0.0
    return cc


def sbd_pairs(x_rows: np.ndarray,
              y_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SBD and maximizing shift for every ``(x_rows[i], y_rows[j])``.

    Returns ``(distances, shifts)``, each of shape ``(nx, ny)`` --
    the batched equivalent of calling :func:`sbd_with_shift` on every
    cross pair (agreeing to ~1e-16; see the module docstring) with one
    ``rfft`` per input matrix and one ``irfft`` per pair chunk.
    """
    x = _as_rows(x_rows)
    y = _as_rows(y_rows)
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"series lengths differ: {x.shape[1]} vs {y.shape[1]}; "
            f"align them first"
        )
    n = x.shape[1]
    nx, ny = x.shape[0], y.shape[0]
    size = _next_pow_two(2 * n - 1)
    fx = np.fft.rfft(x, size, axis=1)
    fy = np.fft.rfft(y, size, axis=1)
    denom = np.sqrt(np.outer(_row_energies(x), _row_energies(y)))

    distances = np.empty((nx, ny))
    shifts = np.empty((nx, ny), dtype=int)
    pair_i, pair_j = np.divmod(np.arange(nx * ny), ny)
    for lo in range(0, nx * ny, _PAIR_CHUNK):
        sel_i = pair_i[lo:lo + _PAIR_CHUNK]
        sel_j = pair_j[lo:lo + _PAIR_CHUNK]
        ncc = _ncc_block(fx[sel_i], fy[sel_j], size, n,
                         denom[sel_i, sel_j])
        idx = np.argmax(ncc, axis=1)
        best = np.clip(1.0 - ncc[np.arange(ncc.shape[0]), idx], 0.0, 2.0)
        distances[sel_i, sel_j] = best
        shifts[sel_i, sel_j] = idx - (n - 1)
    return distances, shifts


def sbd_matrix(series: np.ndarray) -> np.ndarray:
    """Pairwise SBD matrix of the input rows (symmetric, zero diagonal).

    Batched: the upper triangle is computed with one ``rfft`` over the
    whole matrix and one ``irfft`` per pair chunk, then mirrored --
    agreeing with the per-pair double loop it replaces to ~1e-16 (see
    the module docstring).
    """
    data = _as_rows(series)
    n_rows = data.shape[0]
    out = np.zeros((n_rows, n_rows))
    if n_rows < 2:
        return out
    n = data.shape[1]
    size = _next_pow_two(2 * n - 1)
    spectra = np.fft.rfft(data, size, axis=1)
    energies = _row_energies(data)
    tri_i, tri_j = np.triu_indices(n_rows, k=1)
    for lo in range(0, tri_i.size, _PAIR_CHUNK):
        sel_i = tri_i[lo:lo + _PAIR_CHUNK]
        sel_j = tri_j[lo:lo + _PAIR_CHUNK]
        denom = np.sqrt(energies[sel_i] * energies[sel_j])
        ncc = _ncc_block(spectra[sel_i], spectra[sel_j], size, n, denom)
        best = np.clip(1.0 - ncc.max(axis=1), 0.0, 2.0)
        out[sel_i, sel_j] = best
        out[sel_j, sel_i] = best
    return out
