"""Unit tests for the OpenKE directory loader."""

import numpy as np
import pytest

from repro.kg.datasets import make_tiny_kg
from repro.kg.io import load_openke_dir, save_openke_dir


class TestOpenKE:
    def test_roundtrip(self, tmp_path):
        store = make_tiny_kg()
        path = str(tmp_path / "openke")
        save_openke_dir(store, path)
        back = load_openke_dir(path)
        assert back.n_entities == store.n_entities
        assert back.n_relations == store.n_relations
        np.testing.assert_array_equal(back.train.to_array(),
                                      store.train.to_array())
        np.testing.assert_array_equal(back.test.to_array(),
                                      store.test.to_array())

    def test_column_order_is_head_tail_relation(self, tmp_path):
        """OpenKE's notorious h-t-r column order must be honoured."""
        d = tmp_path / "d"
        d.mkdir()
        (d / "entity2id.txt").write_text("3\ne0\t0\ne1\t1\ne2\t2\n")
        (d / "relation2id.txt").write_text("2\nr0\t0\nr1\t1\n")
        for split in ("train", "valid", "test"):
            (d / f"{split}2id.txt").write_text("1\n0 2 1\n")  # h=0 t=2 r=1
        store = load_openke_dir(str(d))
        assert store.train.heads[0] == 0
        assert store.train.relations[0] == 1
        assert store.train.tails[0] == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_openke_dir(str(tmp_path))

    def test_name_defaults_to_directory(self, tmp_path):
        store = make_tiny_kg()
        path = str(tmp_path / "fb15k")
        save_openke_dir(store, path)
        assert load_openke_dir(path).name == "fb15k"

    @pytest.mark.parametrize("fname, first_line", [
        ("entity2id.txt", "fourteen\n"), ("relation2id.txt", "\n")])
    def test_non_integer_count_names_the_file(self, tmp_path, fname,
                                              first_line):
        path = tmp_path / "openke"
        save_openke_dir(make_tiny_kg(), str(path))
        body = (path / fname).read_text().split("\n", 1)[1]
        (path / fname).write_text(first_line + body)
        with pytest.raises(ValueError, match="first line must be a count"
                           ) as info:
            load_openke_dir(str(path))
        assert str(path / fname) in str(info.value)

    def test_malformed_triples_name_the_file(self, tmp_path):
        path = tmp_path / "openke"
        save_openke_dir(make_tiny_kg(), str(path))
        (path / "valid2id.txt").write_text("1\n0 x 1\n")
        with pytest.raises(ValueError) as info:
            load_openke_dir(str(path))
        assert str(path / "valid2id.txt") in str(info.value)

    def test_out_of_range_id_names_the_directory(self, tmp_path):
        path = tmp_path / "openke"
        save_openke_dir(make_tiny_kg(), str(path))
        (path / "entity2id.txt").write_text("3\n")
        with pytest.raises(ValueError, match="out of range") as info:
            load_openke_dir(str(path))
        assert str(path) in str(info.value)
