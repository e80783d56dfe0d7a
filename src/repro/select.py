"""The one top-k rule, :func:`best_first`, and its set form :func:`best_set`:
every ranked answer and candidate pool the serve path returns and every
relation's mined facts come from it, and m-of-n hardest negatives follow
its order, so no selection depends on which SIMD partition kernel the
host's NumPy dispatches to."""

from __future__ import annotations

import numpy as np

#: A row at least ``_LONG`` times longer than ``take`` is pre-thresholded
#: from every ``_STRIDE``-th value before the exact pass (below ~64x the
#: extra comparison pass costs more than the partition it saves).
_STRIDE, _LONG = 16, 64


def check_take(name: str, value) -> int:
    """``value`` as an ``int`` top-k size; anything but an integer >= 1
    (``bool`` and floats included) is a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def best_first(row: np.ndarray, take: int) -> np.ndarray:
    """Ids of the ``take`` best entries of ``row``, best first (int64):
    descending value, exact ties (``-0.0 == +0.0`` included) toward the
    smaller id, ``±inf`` ordered like any value, NaN "not a candidate".

    Equal on every input to ``np.argsort(-row, kind="stable")[:min(take,
    n_valid)]`` with ``n_valid`` the non-NaN count: :func:`best_set`
    selects the ids, already in id order, and one stable sort of their
    ``take`` values orders them.
    """
    ids = best_set(row, take)
    return ids[np.argsort(-row[ids], kind="stable")]


def best_set(row: np.ndarray, take: int) -> np.ndarray:
    """:func:`best_first`'s ids in ascending id order, found without a sort.

    On a long row the ``take``-th best of every ``_STRIDE``-th value is a
    bound at least ``take`` values reach, so only the entries that reach
    it go on (a NaN bound keeps nothing and the whole row goes on).  There
    a partition finds the worst kept value; everything strictly better is
    kept, and of that value's tie class only as many as still fit, toward
    the smaller id, by a cumulative count.
    """
    if row.size >= _LONG * take > 0:
        sample = -row[::_STRIDE]
        sample.partition(take - 1)  # NaN partitions last
        keep = (row >= -sample[take - 1]).nonzero()[0]  # NaN compares False
        if keep.size >= take:
            return keep[_best_set(row[keep], take)]
    return _best_set(row, take)


def _best_set(row: np.ndarray, take: int) -> np.ndarray:
    kth = min(take, row.size) - 1
    if kth < 0:
        return np.empty(0, dtype=np.int64)
    neg = -row
    neg.partition(kth)  # NaN partitions last
    bound = -neg[kth]
    if bound != bound:
        bound = -np.inf  # fewer real candidates than asked: all of them
    keep = (row >= bound).nonzero()[0]  # NaN compares False
    if keep.size <= take:
        return keep
    tied = row[keep] == bound
    room = take - (keep.size - np.count_nonzero(tied))
    return keep[~tied | (np.cumsum(tied) <= room)]
