"""The serve path's one ranking rule: every ranked answer is
:func:`best_first` of a score row."""

from __future__ import annotations

import numpy as np


def best_first(row: np.ndarray, take: int) -> np.ndarray:
    """Ids of the ``take`` best entries of ``row``, best first (int64):
    descending value, exact ties (``-0.0 == +0.0`` included) toward the
    smaller id, ``±inf`` ordered like any value, NaN "not a candidate".

    Equal on every input to ``np.argsort(-row, kind="stable")[:min(take,
    n_valid)]`` with ``n_valid`` the non-NaN count, without sorting the
    row: a partition finds the worst kept value, one comparison keeps
    everything strictly better plus that value's whole tie class (already
    in id order), and only that short slice is stably sorted.  An
    all-tied row keeps everything and costs the full sort, never more.
    """
    neg = -row
    kth = min(take, neg.size) - 1
    if kth < 0:
        return np.empty(0, dtype=np.int64)
    threshold = np.partition(neg, kth)[kth]  # NaN partitions last
    if threshold != threshold:
        threshold = np.inf  # fewer real candidates than asked: all of them
    keep = np.flatnonzero(neg <= threshold)  # NaN compares False
    return keep[np.argsort(neg[keep], kind="stable")[:take]]
