"""Triple storage for knowledge graphs.

A knowledge graph is a set of ``(head, relation, tail)`` integer triples.
:class:`TripleStore` keeps them as parallel NumPy arrays (column layout) and
provides the lookup structures the rest of the system needs: train/valid/
test splits, the "known triple" filter used by filtered MRR, and per-relation
statistics used by the relation partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_column(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


@dataclass
class TripleSet:
    """One split of triples as three aligned int64 columns."""

    heads: np.ndarray
    relations: np.ndarray
    tails: np.ndarray

    def __post_init__(self) -> None:
        self.heads = _as_column(self.heads, "heads")
        self.relations = _as_column(self.relations, "relations")
        self.tails = _as_column(self.tails, "tails")
        if not (len(self.heads) == len(self.relations) == len(self.tails)):
            raise ValueError(
                "heads, relations, tails must have equal length: "
                f"{len(self.heads)}, {len(self.relations)}, {len(self.tails)}"
            )

    def __len__(self) -> int:
        return len(self.heads)

    @classmethod
    def from_array(cls, triples: np.ndarray) -> "TripleSet":
        """Build from an ``(n, 3)`` array of (h, r, t) rows."""
        triples = np.asarray(triples, dtype=np.int64)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"expected (n, 3) array, got {triples.shape}")
        return cls(triples[:, 0].copy(), triples[:, 1].copy(), triples[:, 2].copy())

    def to_array(self) -> np.ndarray:
        """Return an ``(n, 3)`` array of (h, r, t) rows."""
        return np.stack([self.heads, self.relations, self.tails], axis=1)

    def subset(self, index: np.ndarray) -> "TripleSet":
        """Select triples by integer index or boolean mask."""
        return TripleSet(self.heads[index], self.relations[index],
                         self.tails[index])

    def shuffled(self, rng: np.random.Generator) -> "TripleSet":
        """Return a random permutation of this set."""
        perm = rng.permutation(len(self))
        return self.subset(perm)

    def sort_by_relation(self) -> "TripleSet":
        """Stable-sort triples by relation id (relation partition step 1)."""
        order = np.argsort(self.relations, kind="stable")
        return self.subset(order)


#: Default key layout: 21 bits per id supports ~2M entities/relations.
ENTITY_BITS = 21
RELATION_BITS = 21
_ENTITY_MASK = (1 << ENTITY_BITS) - 1


def encode_triples(h: np.ndarray, r: np.ndarray, t: np.ndarray,
                   entity_bits: int = ENTITY_BITS,
                   relation_bits: int = RELATION_BITS) -> np.ndarray:
    """Pack (h, r, t) into one int64 per triple.

    21 bits each supports up to ~2M entities/relations — plenty for the
    paper's FB250K-scale graphs while keeping keys hashable in bulk.
    """
    if entity_bits + relation_bits + entity_bits > 63:
        raise ValueError("key layout exceeds 63 bits")
    for name, arr, bits in (("head", h, entity_bits), ("relation", r, relation_bits),
                            ("tail", t, entity_bits)):
        if len(arr) and (arr.min() < 0 or arr.max() >= (1 << bits)):
            raise ValueError(f"{name} ids exceed {bits}-bit key capacity")
    return ((np.asarray(h, dtype=np.int64) << (relation_bits + entity_bits))
            | (np.asarray(r, dtype=np.int64) << entity_bits)
            | np.asarray(t, dtype=np.int64))


@dataclass(frozen=True)
class FilterIndex:
    """The known triples of a dataset: membership plus CSR adjacency.

    It is the only known-fact structure.  Negative sampling asks whether
    a candidate triple is a fact (:meth:`contains`); the filtered-MRR
    protocol and the serving filter ask for the *known* tails of every
    query ``(h, r, ?)`` (and symmetrically the known heads of
    ``(r, t)``).  The set is static for the whole run, so every known
    triple is grouped **once**:

    * ``_keys`` holds the sorted unique packed ``h|r|t`` keys.  Sorted,
      they are already grouped by ``(h, r)`` with tails ascending, so
      ``_hr_keys[i]`` is the i-th occupied ``(h, r)`` group and its known
      tails are the low bits of ``_keys[_hr_indptr[i]:_hr_indptr[i+1]]``.
    * ``_rt_keys`` / ``_rt_indptr`` / ``_rt_heads`` mirror this for the
      head-replacement side.

    Lookups are a ``searchsorted`` over the (few) occupied groups plus a
    gather of the (short) per-group member lists — memory and time scale
    with the number of known facts per query, not with ``n_entities``.
    """

    n_entities: int
    n_relations: int
    _keys: np.ndarray = field(repr=False)
    _hr_keys: np.ndarray = field(repr=False)
    _hr_indptr: np.ndarray = field(repr=False)
    _rt_keys: np.ndarray = field(repr=False)
    _rt_indptr: np.ndarray = field(repr=False)
    _rt_heads: np.ndarray = field(repr=False)

    @classmethod
    def from_triples(cls, h: np.ndarray, r: np.ndarray, t: np.ndarray,
                     n_entities: int, n_relations: int) -> "FilterIndex":
        """Group (possibly duplicated) known triples into both adjacencies."""
        keys = np.unique(encode_triples(h, r, t))
        hr = keys >> ENTITY_BITS
        hr_keys, hr_indptr = _csr_groups(hr)
        # Head side: re-pack as (r, t, h) and sort once more.
        rel = hr & ((1 << RELATION_BITS) - 1)
        tails = keys & _ENTITY_MASK
        heads = keys >> (RELATION_BITS + ENTITY_BITS)
        rt_full = np.sort((rel << (2 * ENTITY_BITS)) | (tails << ENTITY_BITS)
                          | heads)
        rt = rt_full >> ENTITY_BITS
        rt_heads = rt_full & _ENTITY_MASK
        rt_keys, rt_indptr = _csr_groups(rt)
        return cls(n_entities=n_entities, n_relations=n_relations,
                   _keys=keys, _hr_keys=hr_keys, _hr_indptr=hr_indptr,
                   _rt_keys=rt_keys, _rt_indptr=rt_indptr, _rt_heads=rt_heads)

    @property
    def n_triples(self) -> int:
        """Number of distinct known triples indexed."""
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays."""
        return sum(a.nbytes for a in (
            self._keys, self._hr_keys, self._hr_indptr,
            self._rt_keys, self._rt_indptr, self._rt_heads))

    def contains(self, h: np.ndarray, r: np.ndarray, t: np.ndarray
                 ) -> np.ndarray:
        """Vectorised membership test: is each ``(h_i, r_i, t_i)`` known?"""
        keys = encode_triples(np.atleast_1d(h), np.atleast_1d(r),
                              np.atleast_1d(t))
        pos = np.searchsorted(self._keys, keys)
        pos = np.clip(pos, 0, len(self._keys) - 1)
        return self._keys[pos] == keys

    def known_tails(self, h: np.ndarray, r: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Known tails of each query ``(h_i, r_i)`` in COO form.

        Returns ``(rows, tails, counts)``: ``tails[k]`` is a known tail of
        query ``rows[k]`` (rows ascending), and ``counts[i]`` is the number
        of known tails of query ``i`` — the columns of a
        ``(batch, n_entities)`` score matrix that hold known facts.
        """
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        qkeys = (h << RELATION_BITS) | r
        rows, keys, counts = _csr_lookup(self._hr_keys, self._hr_indptr,
                                         self._keys, qkeys)
        return rows, keys & _ENTITY_MASK, counts

    def known_heads(self, r: np.ndarray, t: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Known heads of each query ``(r_i, t_i)``; see :meth:`known_tails`."""
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        qkeys = (r << ENTITY_BITS) | t
        return _csr_lookup(self._rt_keys, self._rt_indptr, self._rt_heads,
                           qkeys)


def _csr_groups(sorted_groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique group keys + indptr for an ascending-sorted group column."""
    keys, counts = np.unique(sorted_groups, return_counts=True)
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return keys, indptr


def _csr_lookup(keys: np.ndarray, indptr: np.ndarray, members: np.ndarray,
                qkeys: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather each query key's member list; empty for unoccupied groups."""
    n_queries = len(qkeys)
    if len(keys) == 0 or n_queries == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.zeros(n_queries, dtype=np.int64)
    pos = np.searchsorted(keys, qkeys)
    pos = np.minimum(pos, len(keys) - 1)
    hit = keys[pos] == qkeys
    starts = np.where(hit, indptr[pos], 0)
    counts = np.where(hit, indptr[pos + 1] - indptr[pos], 0)
    total = int(counts.sum())
    rows = np.repeat(np.arange(n_queries, dtype=np.int64), counts)
    # Flat member positions: each query's run starts at `starts[i]` and the
    # arange trick turns the global offset into a within-run offset.
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return rows, members[np.repeat(starts, counts) + offsets], counts


@dataclass
class TripleStore:
    """A complete KG dataset: entity/relation vocabularies plus splits."""

    n_entities: int
    n_relations: int
    train: TripleSet
    valid: TripleSet
    test: TripleSet
    name: str = "kg"
    #: Every fact of train+valid+test, built once here so that no first
    #: use lands inside a timed window.
    filter_index: FilterIndex = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_entities < 1 or self.n_relations < 1:
            raise ValueError("need at least one entity and one relation")
        for split_name, split in (("train", self.train), ("valid", self.valid),
                                  ("test", self.test)):
            for col, limit, col_name in (
                (split.heads, self.n_entities, "head"),
                (split.relations, self.n_relations, "relation"),
                (split.tails, self.n_entities, "tail"),
            ):
                if len(col) and (col.min() < 0 or col.max() >= limit):
                    raise ValueError(
                        f"{split_name} {col_name} ids out of range [0, {limit})"
                    )
        splits = (self.train, self.valid, self.test)
        self.filter_index = FilterIndex.from_triples(
            np.concatenate([s.heads for s in splits]),
            np.concatenate([s.relations for s in splits]),
            np.concatenate([s.tails for s in splits]),
            self.n_entities, self.n_relations)

    @property
    def n_train(self) -> int:
        return len(self.train)

    def is_known(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorised membership test against train+valid+test.

        Used by negative sampling and SS masking to reject false negatives;
        see :meth:`FilterIndex.contains`.
        """
        return self.filter_index.contains(h, r, t)

    def relation_counts(self, split: str = "train") -> np.ndarray:
        """Number of triples per relation id in the given split."""
        triples = getattr(self, split)
        return np.bincount(triples.relations, minlength=self.n_relations)

    def entity_degrees(self, split: str = "train") -> np.ndarray:
        """Number of train triples each entity participates in (h or t)."""
        triples = getattr(self, split)
        deg = np.bincount(triples.heads, minlength=self.n_entities)
        deg += np.bincount(triples.tails, minlength=self.n_entities)
        return deg

    def summary(self) -> dict:
        """Human-readable dataset statistics."""
        return {
            "name": self.name,
            "entities": self.n_entities,
            "relations": self.n_relations,
            "train": len(self.train),
            "valid": len(self.valid),
            "test": len(self.test),
        }
