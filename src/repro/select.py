"""The one top-k rule, :func:`best_first`: every ranked answer the serve
path returns and every relation's mined facts come from it, and m-of-n
hardest negatives follow its order, so no selection depends on which SIMD
partition kernel the host's NumPy dispatches to."""

from __future__ import annotations

import numpy as np

#: A row at least ``_LONG`` times longer than ``take`` is pre-thresholded
#: from every ``_STRIDE``-th value before the exact pass (below ~64x the
#: extra comparison pass costs more than the partition it saves).
_STRIDE, _LONG = 16, 64


def best_first(row: np.ndarray, take: int) -> np.ndarray:
    """Ids of the ``take`` best entries of ``row``, best first (int64):
    descending value, exact ties (``-0.0 == +0.0`` included) toward the
    smaller id, ``±inf`` ordered like any value, NaN "not a candidate".

    Equal on every input to ``np.argsort(-row, kind="stable")[:min(take,
    n_valid)]`` with ``n_valid`` the non-NaN count, without sorting the
    row.  On a long row the ``take``-th best of every ``_STRIDE``-th value
    is a bound at least ``take`` values reach, so only the entries that
    reach it go on (a NaN bound keeps nothing and the whole row goes on).
    There a partition finds the worst kept value, one comparison keeps
    everything strictly better plus that value's whole tie class (already
    in id order), and only that short slice is stably sorted.  An all-tied
    row keeps everything and costs the full sort, never more.
    """
    if row.size >= _LONG * take > 0:
        sample = -row[::_STRIDE]
        sample.partition(take - 1)  # NaN partitions last
        keep = np.flatnonzero(row >= -sample[take - 1])  # NaN compares False
        if keep.size >= take:
            return keep[_best_first(row[keep], take)]
    return _best_first(row, take)


def _best_first(row: np.ndarray, take: int) -> np.ndarray:
    neg = -row
    kth = min(take, neg.size) - 1
    if kth < 0:
        return np.empty(0, dtype=np.int64)
    threshold = np.partition(neg, kth)[kth]  # NaN partitions last
    if threshold != threshold:
        threshold = np.inf  # fewer real candidates than asked: all of them
    keep = np.flatnonzero(neg <= threshold)  # NaN compares False
    return keep[np.argsort(neg[keep], kind="stable")[:take]]
