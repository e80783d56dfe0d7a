"""Seeded fuzzer over a saved dataset file.

A ``save_store`` archive is damaged one way at a time: seeded bit flips
and truncations of the file, and a deletion plus a type swap of every
entry.  For each damaged copy:

* ``load_store`` either refuses it with a ``ValueError`` naming the file
  (and the entry, when one entry is at fault) or loads the pristine graph
  — never a bare ``KeyError``, ``zipfile.BadZipFile``, ``zlib.error`` or
  ``TypeError``;
* ``repro --dataset-file`` refuses it with exit code 2 and the path in its
  ``error:`` line.
"""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.kg.datasets import load_store, make_tiny_kg, save_store

SEED = 1234
FLIPS = 64
CLI_TRAIN = ["--dim", "8", "--batch-size", "128", "--max-epochs", "1",
             "--warmup", "0", "--json"]


def swapped(value: np.ndarray) -> np.ndarray:
    """A value of another kind: a vector for a scalar, a string for an
    array."""
    return np.repeat(value, 3) if value.ndim == 0 else np.array("x")


def npz_bytes(arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def damaged_entries(arrays: dict):
    """``(entry, label, bytes)``: one deletion and one type swap per
    entry."""
    for key, value in arrays.items():
        kept = {k: v for k, v in arrays.items() if k != key}
        yield key, f"delete {key}", npz_bytes(kept)
        yield key, f"swap {key}", npz_bytes({**arrays, key: swapped(value)})


def damaged_bytes(raw: bytes, rng):
    """``(None, label, bytes)``: seeded single-bit flips and truncations."""
    for at in rng.integers(0, len(raw), size=FLIPS):
        bit = int(rng.integers(0, 8))
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        yield None, f"flip byte {at} bit {bit}", bytes(flipped)
    for size in (0, 1, len(raw) // 2, len(raw) - 1):
        yield None, f"truncate to {size}", raw[:size]


def image(store) -> tuple:
    return (store.n_entities, store.n_relations, store.name,
            *(getattr(store, s).to_array().tobytes()
              for s in ("train", "valid", "test")))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    path = tmp_path_factory.mktemp("store-fuzz") / "kg.npz"
    save_store(make_tiny_kg(seed=7), str(path))
    return path


def test_damage_is_refused_naming_the_file_or_harmless(pristine, tmp_path,
                                                       capsys):
    expected = image(load_store(str(pristine)))
    with np.load(pristine) as data:
        arrays = {key: data[key] for key in data.files}
    rng = np.random.default_rng(SEED)
    cases = [*damaged_bytes(pristine.read_bytes(), rng),
             *damaged_entries(arrays)]

    bad = tmp_path / "kg.npz"
    refused = set()
    for key, label, raw in cases:
        bad.write_bytes(raw)
        try:
            store = load_store(str(bad))
        except (ValueError, OSError) as exc:
            refused.add(label)
            assert str(bad) in str(exc), (label, exc)
            if key is not None:
                assert repr(key) in str(exc), (label, exc)
            assert main(["--dataset-file", str(bad), *CLI_TRAIN]) == 2, label
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bad) in err, \
                (label, err)
        else:
            assert image(store) == expected, label
    # Every entry deletion and swap is refused; of the byte-level damage,
    # only bytes no reader checks (zip timestamps, say) load.
    assert all(label in refused for key, label, _ in cases if key)
    assert len(refused) > len(cases) // 2


def test_missing_file_exits_2_naming_it(tmp_path, capsys):
    missing = str(tmp_path / "missing.npz")
    with pytest.raises(OSError):
        load_store(missing)
    assert main(["--dataset-file", missing, *CLI_TRAIN]) == 2
    assert missing in capsys.readouterr().err
