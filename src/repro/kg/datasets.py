"""Synthetic knowledge-graph generators standing in for FB15K / FB250K.

The paper evaluates on FB15K (14 951 entities, 1 345 relations, ~600K
triples) and FB250K (240K entities, 9 280 relations, ~16M facts), both
skimmed from Freebase.  Freebase dumps are not available offline, so we
generate **structurally similar, learnable** graphs:

* facts are mined from a *latent ComplEx model*: ground-truth complex
  embeddings are drawn, and for each relation the top-``k`` highest-scoring
  (head, tail) pairs become facts.  Because facts are exactly the top of the
  latent ordering, a model that recovers the latent structure achieves
  near-perfect *filtered* ranking — so held-out MRR/TCA genuinely improve
  with training, as the paper's curves do.  (A uniformly random graph has no
  generalisable signal; a *sampled*-candidate construction leaves unmined
  high-scoring pairs that cap filtered MRR well below 1.)
* ``noise_fraction`` replaces that fraction of facts with uniform random
  triples, tuning dataset hardness: FB15K-like uses little noise (paper
  baseline MRR ~0.59), FB250K-like more (paper baseline MRR ~0.28);
* relation frequencies follow a Zipf law, and entity participation inherits
  a natural heavy tail from the latent geometry (large-norm entities appear
  in many top pairs), matching Freebase's skew — which drives the gradient
  sparsity dynamics (paper Fig. 2) and makes relation partitioning a
  non-trivial balancing problem;
* cardinality *ratios* (triples per entity, relations per entity) match the
  paper's datasets; a ``scale`` knob shrinks everything proportionally so
  experiments run on one machine.

Up to ``EXHAUSTIVE_ENTITY_LIMIT`` entities each relation's facts are its
exact top pairs.  The exhaustive miner never builds the ``E x E`` score
matrix: a score is bounded by the product of two norms, so it scores heads
a block at a time, in descending norm, against only the tails whose bound
can still reach the running top ``k``, and stops at the first head whose
bound cannot — about 10% of the cells at ``make_fb15k_like(scale=0.1)``,
with one block of scores live.  Above the limit the generator falls back
to sampled candidate mining (``oversample`` random pairs per kept fact) —
only relevant near ``scale=1``.  It scores its candidates a block at a
time, so one relation holds two index arrays plus one float32 per
candidate plus one block: ~20 bytes per candidate.

Determinism: every generator is a pure function of its arguments including
``seed`` and of the float32 scores the host computes.  Each relation's
facts are its top pairs in descending score, ties toward the smaller pair
id (exhaustive: ``h * n_entities + t``; sampled: candidate draw order),
chosen by :func:`repro.select.best_first` — never by a partition whose
output order depends on the SIMD kernel NumPy dispatches to, which the
noise step, overwriting facts by position, would turn into a different
graph.  The sampled miner sums each score in a fixed order; the exhaustive
one takes its scores from the BLAS matrix product, whose kernels can round
a score differently (OpenBLAS's Haswell and SkylakeX kernels against
Prescott and Sandybridge), so a near tie at a relation's last fact can
fall the other way on another CPU; the graphs
``tests/integration/test_blas_kernels.py`` pins under three kernels do not
have one.
"""

from __future__ import annotations

import tokenize
import zipfile
import zlib

import numpy as np
from numpy.lib.npyio import NpzFile

from ..config import DEFAULT_SEED, FB15K_SPEC, FB250K_SPEC
from ..select import best_first, best_set
from .triples import TripleSet, TripleStore, encode_triples

#: Above this many entities exhaustive mining, whose time grows with E**2
#: times the share of cells whose norm bound reaches the top k, switches to
#: sampled candidate mining, which peaks at two int64 index arrays plus one
#: float32 score per candidate plus one block (~20 bytes per candidate).
#: Moving the limit changes every graph it crosses.
EXHAUSTIVE_ENTITY_LIMIT = 7000

#: Scores (heads x tails) the exhaustive miner computes at a time.
_MINE_CELLS = 1 << 15

#: Candidates the sampled miner scores at a time.
_SAMPLED_BLOCK = 1 << 14


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights over ``n`` items."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def _allocate_counts(total: int, weights: np.ndarray, minimum: int = 1) -> np.ndarray:
    """Split ``total`` items proportionally to ``weights``, >= minimum each."""
    n = len(weights)
    if total < n * minimum:
        raise ValueError(
            f"cannot allocate {total} triples over {n} relations with "
            f"minimum {minimum} each"
        )
    counts = np.maximum(minimum, np.floor(weights * total).astype(np.int64))
    drift = int(counts.sum()) - total
    order = np.argsort(-counts)
    i = 0
    while drift != 0:
        j = order[i % n]
        if drift > 0 and counts[j] > minimum:
            counts[j] -= 1
            drift -= 1
        elif drift < 0:
            counts[j] += 1
            drift += 1
        i += 1
    return counts


def _norms(x_re: np.ndarray, x_im: np.ndarray) -> np.ndarray:
    """float64 Euclidean norm of each ``[x_re | x_im]`` row."""
    x = np.concatenate([x_re, x_im], axis=1, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _mine_exhaustive(e_re, e_im, r_re, r_im, counts: list[int]
                     ) -> list[np.ndarray]:
    """Exactly the top-``counts[rel]`` (h, t) pairs of each relation, best
    first (ties toward the smaller ``h * n_entities + t``), scoring only
    the cells that can reach them.

    A score is the dot of the rotated head ``q_h = (hr_re, hr_im)`` with
    the tail ``e_t = (e_re, e_im)``, so ``|score| <= |q_h| |e_t|`` (norms
    in float64, lifted by a relative slack over float32 rounding).  Heads
    go in descending ``|q_h|``, about ``_MINE_CELLS`` scores at a time: a
    block scores the prefix of tails, in descending ``|e_t|``, whose bound
    reaches ``tau``, the running ``count``-th best score, and the first
    head whose bound falls short of ``tau`` ends the relation.  Candidates
    reaching ``tau`` pile up and are cut back to the ``count`` best each
    time they double; one :func:`best_first` over the survivors in pair-id
    order picks the facts.

    Every product has at least two rows and two columns (a one-row or
    one-column product runs through GEMV, which sums in another order), so
    a cell holds the bits it has in the full ``E x E`` product wherever
    the BLAS kernel's cell bits do not depend on the product's shape: on
    OpenBLAS's SkylakeX, Haswell, Sandybridge and Prescott kernels up to
    seven latent dims (the generators use four), but not on Haswell or
    Prescott from eight on.
    """
    n = len(e_re)
    # Two K-term float32 dots and one add stray at most about
    # (K + 1) * eps / 2 * |q| |e| from the exact score; (K + 2) * eps
    # covers that and the float64 norms' own rounding.
    slack = 1.0 + (e_re.shape[1] + 2) * float(np.finfo(np.float32).eps)
    reach = _norms(e_re, e_im)
    tails = np.argsort(-reach)
    reach = reach[tails] * slack
    t_re, t_im = np.take(e_re, tails, axis=0), np.take(e_im, tails, axis=0)
    slot = np.empty(n, dtype=np.int64)  # each entity's place among tails
    slot[tails] = np.arange(n)
    facts = []
    for rel, count in enumerate(counts):
        count = min(count, n * n - n)
        hr_re = e_re * r_re[rel] - e_im * r_im[rel]
        hr_im = e_re * r_im[rel] + e_im * r_re[rel]
        q = _norms(hr_re, hr_im)
        heads = np.argsort(-q)
        scores = np.empty(0, dtype=np.float32)
        ids = np.empty(0, dtype=np.int64)
        tau = -np.inf
        lo = 0
        while lo < n:
            width = np.count_nonzero(reach * q[heads[lo]] >= tau)
            if width == 0:
                break
            width = max(width, 2)
            hi = min(n, lo + max(2, _MINE_CELLS // width))
            if n - hi == 1:
                hi = n  # no one-row block
            hb = heads[lo:hi]
            lo = hi
            block = np.take(hr_re, hb, axis=0) @ t_re[:width].T
            block += np.take(hr_im, hb, axis=0) @ t_im[:width].T
            own = slot[hb]
            loops = (own < width).nonzero()[0]
            block[loops, own[loops]] = np.nan  # forbid self-loops
            flat = block.ravel()
            if tau == -np.inf and flat.size - len(loops) >= count:
                neg = -flat
                neg.partition(count - 1)  # NaN partitions last
                tau = -neg[count - 1]
            cells = (flat >= tau).nonzero()[0]  # NaN compares False
            row, col = np.divmod(cells, width)
            scores = np.concatenate([scores, flat[cells]])
            ids = np.concatenate([ids, hb[row] * n + tails[col]])
            if len(scores) >= 2 * count:  # keep the best, in id order
                keep = np.argsort(ids)
                keep = keep[best_set(scores[keep], count)]
                scores, ids = scores[keep], ids[keep]
                tau = scores.min()
        order = np.argsort(ids)
        h, t = np.divmod(ids[order[best_first(scores[order], count)]], n)
        rel_col = np.full(count, rel, dtype=np.int64)
        facts.append(np.stack([h, rel_col, t], axis=1))
    return facts


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` for a ``(latent_dim, block)`` float32 array, added
    in the order NumPy's pairwise ``np.sum`` adds a contiguous
    ``latent_dim`` row: index order below 8 terms, eight running sums up to
    128, halves cut at a multiple of 8 above.  So a column sums to the bits
    its row would, on every host."""
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_rows(x[:half]) + _sum_rows(x[half:])
    if n < 8:
        acc = x[0].copy()
        for row in x[1:]:
            acc += row
        return acc
    run = x[:8].copy()
    end = n - n % 8
    for i in range(8, end, 8):
        run += x[i:i + 8]
    acc = (run[0] + run[1]) + (run[2] + run[3])
    acc += (run[4] + run[5]) + (run[6] + run[7])
    for row in x[end:]:
        acc += row
    return acc


def _mine_sampled(e_re_t, e_im_t, r_re, r_im, rel: int, count: int,
                  oversample: int, rng: np.random.Generator) -> np.ndarray:
    """Top-``count`` pairs among ``count * oversample`` random candidates,
    best first (ties toward the earlier candidate).

    ``e_re_t``/``e_im_t`` are the entity latents transposed to ``(latent_dim,
    n_entities)``.  Candidates are scored ``_SAMPLED_BLOCK`` at a time into
    one float32 array, a self-loop scoring NaN ("not a candidate" to
    :func:`best_first`), so beside the two index arrays and the scores only
    one block is ever live.
    """
    n_entities = e_re_t.shape[1]
    m = max(count * oversample, 64)
    h = rng.integers(0, n_entities, size=m)
    t = rng.integers(0, n_entities, size=m)
    rr, ri = r_re[rel][:, None], r_im[rel][:, None]
    scores = np.empty(m, dtype=np.float32)
    for lo in range(0, m, _SAMPLED_BLOCK):
        hb, tb = h[lo:lo + _SAMPLED_BLOCK], t[lo:lo + _SAMPLED_BLOCK]
        x_re, x_im = np.take(e_re_t, hb, axis=1), np.take(e_im_t, hb, axis=1)
        hr_re = x_re * rr
        hr_re -= x_im * ri
        x_re *= ri
        x_im *= rr
        x_re += x_im  # hr_im, in the gathered buffer
        hr_re *= np.take(e_re_t, tb, axis=1)
        x_re *= np.take(e_im_t, tb, axis=1)
        hr_re += x_re
        block = _sum_rows(hr_re)
        block[hb == tb] = np.nan
        scores[lo:lo + len(block)] = block
    top = best_first(scores, count)
    rel_col = np.full(len(top), rel, dtype=np.int64)
    return np.stack([h[top], rel_col, t[top]], axis=1)


def generate_latent_kg(
    n_entities: int,
    n_relations: int,
    n_triples: int,
    latent_dim: int = 4,
    seed: int = DEFAULT_SEED,
    relation_zipf: float = 1.05,
    noise_fraction: float = 0.0,
    oversample: int = 100,
    valid_fraction: float = 0.05,
    test_fraction: float = 0.05,
    name: str = "synthetic",
) -> TripleStore:
    """Generate a learnable synthetic KG (see module docstring).

    ``latent_dim`` controls structural complexity (lower = easier to learn
    with few facts); ``noise_fraction`` controls the unlearnable share and
    hence the achievable MRR/TCA ceiling.
    """
    if n_entities < 4 or n_relations < 1 or n_triples < n_relations:
        raise ValueError(
            f"degenerate sizes: entities={n_entities}, relations={n_relations}, "
            f"triples={n_triples}"
        )
    if not 0 <= noise_fraction < 1:
        raise ValueError(f"noise_fraction must be in [0, 1), got {noise_fraction}")
    if not 0 < valid_fraction + test_fraction < 1:
        raise ValueError("valid_fraction + test_fraction must be in (0, 1)")
    if latent_dim < 1:
        raise ValueError(f"latent_dim must be at least 1, got {latent_dim}")
    if oversample < 1:
        raise ValueError(f"oversample must be at least 1, got {oversample}")
    rng = np.random.default_rng(seed)

    # Ground-truth complex embeddings the facts will be consistent with.
    sigma = 1.0 / np.sqrt(latent_dim)
    e_re = rng.normal(scale=sigma, size=(n_entities, latent_dim)).astype(np.float32)
    e_im = rng.normal(scale=sigma, size=(n_entities, latent_dim)).astype(np.float32)
    r_re = rng.normal(scale=sigma, size=(n_relations, latent_dim)).astype(np.float32)
    r_im = rng.normal(scale=sigma, size=(n_relations, latent_dim)).astype(np.float32)

    rel_counts = _allocate_counts(n_triples,
                                  _zipf_weights(n_relations, relation_zipf))
    if n_entities <= EXHAUSTIVE_ENTITY_LIMIT:
        chunks = _mine_exhaustive(e_re, e_im, r_re, r_im, rel_counts.tolist())
    else:
        e_re_t = np.ascontiguousarray(e_re.T)
        e_im_t = np.ascontiguousarray(e_im.T)
        chunks = [_mine_sampled(e_re_t, e_im_t, r_re, r_im, rel, count,
                                oversample, rng)
                  for rel, count in enumerate(rel_counts.tolist())]
    triples = np.concatenate(chunks, axis=0)

    if noise_fraction > 0:
        n_noise = int(round(noise_fraction * len(triples)))
        noisy = rng.choice(len(triples), size=n_noise, replace=False)
        triples[noisy, 0] = rng.integers(0, n_entities, n_noise)
        triples[noisy, 2] = rng.integers(0, n_entities, n_noise)

    # Deduplicate (noise rows can collide with mined facts) and shuffle.
    keys = encode_triples(triples[:, 0], triples[:, 1], triples[:, 2])
    _, first = np.unique(keys, return_index=True)
    triples = triples[first]
    rng.shuffle(triples)

    n = len(triples)
    n_valid = max(1, int(round(n * valid_fraction)))
    n_test = max(1, int(round(n * test_fraction)))
    valid = TripleSet.from_array(triples[:n_valid])
    test = TripleSet.from_array(triples[n_valid:n_valid + n_test])
    train = TripleSet.from_array(triples[n_valid + n_test:])
    return TripleStore(n_entities=n_entities, n_relations=n_relations,
                       train=train, valid=valid, test=test, name=name)


def _scaled(spec, scale: float, *, min_relations: int = 8,
            min_entities: int = 64) -> tuple[int, int, int]:
    """Scale a paper dataset spec keeping the triples/entity ratio."""
    if scale <= 0 or scale > 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n_entities = max(min_entities, int(round(spec.n_entities * scale)))
    n_relations = max(min_relations, int(round(spec.n_relations * scale)))
    triples_per_entity = spec.n_triples / spec.n_entities
    n_triples = int(round(n_entities * triples_per_entity))
    return n_entities, n_relations, n_triples


def make_fb15k_like(scale: float = 1.0, seed: int = DEFAULT_SEED,
                    **kwargs) -> TripleStore:
    """FB15K-like graph: ~40 triples per entity, nearly noise-free.

    Tuned so a converged ComplEx lands near the paper's FB15K baseline
    numbers (filtered MRR ~0.6, TCA ~0.9).  ``scale=1.0`` reproduces the
    paper's cardinalities (14 951 entities, 1 345 relations, ~600K triples).
    """
    n_e, n_r, n_t = _scaled(FB15K_SPEC, scale)
    kwargs.setdefault("latent_dim", 4)
    kwargs.setdefault("noise_fraction", 0.02)
    # Real FB15K's most frequent relation holds only a few percent of the
    # triples; a mild Zipf exponent keeps that property at small scales
    # (important for relation-partition balance).
    kwargs.setdefault("relation_zipf", 0.8)
    return generate_latent_kg(n_e, n_r, n_t, seed=seed,
                              name=f"fb15k-like(scale={scale})", **kwargs)


def make_fb250k_like(scale: float = 1.0, seed: int = DEFAULT_SEED,
                     **kwargs) -> TripleStore:
    """FB250K-like graph: ~67 triples per entity, noisier (harder).

    Tuned toward the paper's FB250K baseline (filtered MRR ~0.28, TCA ~0.89):
    more noise and a steeper relation skew.
    """
    # Keep the paper's relations >> workers regime even at tiny scales:
    # relation partition across 16 workers needs many relations to balance
    # (FB250K itself has 9 280 of them).
    n_e, n_r, n_t = _scaled(FB250K_SPEC, scale, min_relations=96)
    kwargs.setdefault("latent_dim", 4)
    kwargs.setdefault("noise_fraction", 0.15)
    kwargs.setdefault("relation_zipf", 0.75)
    return generate_latent_kg(n_e, n_r, n_t, seed=seed,
                              name=f"fb250k-like(scale={scale})", **kwargs)


def make_tiny_kg(seed: int = DEFAULT_SEED, n_entities: int = 80,
                 n_relations: int = 8, n_triples: int = 800) -> TripleStore:
    """A very small learnable KG for unit and integration tests."""
    return generate_latent_kg(n_entities, n_relations, n_triples,
                              latent_dim=4, seed=seed, name="tiny")


def save_store(store: TripleStore, path: str) -> None:
    """Persist a dataset to an ``.npz`` file."""
    np.savez_compressed(
        path,
        n_entities=store.n_entities,
        n_relations=store.n_relations,
        name=np.array(store.name),
        train=store.train.to_array(),
        valid=store.valid.to_array(),
        test=store.test.to_array(),
    )


#: :func:`save_store`'s entries and the dtype kinds each may hold; the
#: splits are ``(n, 3)`` arrays, the rest scalars.
_STORE_ENTRIES = {"n_entities": "iu", "n_relations": "iu", "name": "U",
                  "train": "iu", "valid": "iu", "test": "iu"}
_SPLITS = ("train", "valid", "test")

#: What ``np.load`` and ``zipfile`` raise on a damaged archive.
_DAMAGED = (ValueError, OSError, EOFError, RuntimeError, NotImplementedError,
            SyntaxError, tokenize.TokenError, zipfile.BadZipFile, zlib.error)


def _read_entry(data: NpzFile, key: str) -> np.ndarray:
    """One entry of a saved dataset, checked for shape and dtype."""
    if key not in data.files:
        raise ValueError(f"entry {key!r} is missing")
    try:
        value = data[key]
    except _DAMAGED as exc:
        raise ValueError(f"entry {key!r}: {type(exc).__name__}: {exc}") \
            from None
    shape_ok = ((value.ndim == 2 and value.shape[1] == 3) if key in _SPLITS
                else value.ndim == 0)
    if not shape_ok or value.dtype.kind not in _STORE_ENTRIES[key]:
        raise ValueError(f"entry {key!r} has dtype {value.dtype} and shape "
                         f"{value.shape}")
    return value


def load_store(path: str) -> TripleStore:
    """Load a dataset saved with :func:`save_store`.

    A file that cannot be opened raises ``OSError``.  A damaged or
    malformed one raises ``ValueError`` naming ``path`` and, when one
    entry is at fault, the entry.
    """
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                arrays = {key: _read_entry(data, key)
                          for key in _STORE_ENTRIES}
            return TripleStore(
                n_entities=int(arrays["n_entities"]),
                n_relations=int(arrays["n_relations"]),
                train=TripleSet.from_array(arrays["train"]),
                valid=TripleSet.from_array(arrays["valid"]),
                test=TripleSet.from_array(arrays["test"]),
                name=str(arrays["name"]),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except _DAMAGED as exc:
            raise ValueError(f"{path}: {type(exc).__name__}: {exc}") \
                from None
