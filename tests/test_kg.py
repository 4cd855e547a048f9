import itertools

import pytest

from skqe import kg
from skqe.errors import DataError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadTsv:
    def test_three_line_train_file(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb", "a\tr\tc", "b\tq\td"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert graph.num_entities == 4
        assert graph.num_relations == 2
        assert graph.split_counts() == {"train": 3, "valid": 0, "test": 0}

    def test_first_appearance_ids(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["x\tr\ty", "y\tr\tz"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert [graph.entities.name_of(i) for i in range(3)] == ["x", "y", "z"]

    def test_duplicate_across_splits_rejected(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", ["a\tr\tb"])
        with pytest.raises(DataError, match="multiple splits"):
            kg.load_tsv_dir(tmp_path)

    def test_duplicate_within_file_collapses(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb", "a\tr\tb"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert len(graph.triples) == 1

    def test_malformed_line_reports_position(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb", "bad line"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        with pytest.raises(DataError, match="train.tsv:2"):
            kg.load_tsv_dir(tmp_path)

    def test_empty_file_set_rejected(self, tmp_path):
        for name in ("train.tsv", "valid.tsv", "test.tsv"):
            write_lines(tmp_path / name, [])
        with pytest.raises(DataError, match="empty"):
            kg.load_tsv_dir(tmp_path)

    def test_missing_file_rejected_before_any_is_read(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["bad line"])
        write_lines(tmp_path / "test.tsv", [])
        with pytest.raises(DataError, match="missing triple file: .*valid.tsv"):
            kg.load_tsv_dir(tmp_path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["# header", "", "a\tr\tb"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert len(graph.triples) == 1


class TestRoundTrip:
    def test_write_then_load_preserves_content(self, tmp_path, small_graph):
        kg.write_tsv(small_graph, tmp_path)
        reloaded = kg.load_tsv_dir(tmp_path)
        original = {
            (small_graph.entities.name_of(h), small_graph.relations.name_of(r),
             small_graph.entities.name_of(t), s)
            for (h, r, t), s in small_graph.triples.items()
        }
        loaded = {
            (reloaded.entities.name_of(h), reloaded.relations.name_of(r),
             reloaded.entities.name_of(t), s)
            for (h, r, t), s in reloaded.triples.items()
        }
        assert original == loaded

    def test_writer_is_byte_stable(self, tmp_path, small_graph):
        kg.write_tsv(small_graph, tmp_path / "one")
        kg.write_tsv(small_graph, tmp_path / "two")
        for split in kg.SPLITS:
            assert (tmp_path / "one" / f"{split}.tsv").read_bytes() == \
                   (tmp_path / "two" / f"{split}.tsv").read_bytes()


class TestGenerateSynthetic:
    def test_deterministic_for_seed(self, tmp_path):
        g1 = kg.generate_synthetic(200, 5, 4.0, 0.1, 0.1, seed=7)
        g2 = kg.generate_synthetic(200, 5, 4.0, 0.1, 0.1, seed=7)
        assert g1.triples == g2.triples
        kg.write_tsv(g1, tmp_path / "g1")
        kg.write_tsv(g2, tmp_path / "g2")
        for split in kg.SPLITS:
            assert (tmp_path / "g1" / f"{split}.tsv").read_bytes() == \
                   (tmp_path / "g2" / f"{split}.tsv").read_bytes()

    def test_invalid_fractions_rejected(self):
        with pytest.raises(DataError):
            kg.generate_synthetic(50, 3, 2.0, 0.5, 0.6, seed=1)

    @pytest.mark.parametrize("degree", [float("nan"), float("inf"), -1.0, 0.0])
    def test_degree_must_be_finite_and_positive(self, degree):
        with pytest.raises(DataError, match="average out-degree must be finite and positive"):
            kg.generate_synthetic(50, 3, degree, 0.1, 0.1, seed=1)

    def test_golden_counts_for_seed_one(self, small_graph):
        # 50 entities * degree 2 = 100 edges; 10% valid, 10% test
        assert small_graph.split_counts() == {"train": 80, "valid": 10, "test": 10}
        assert small_graph.num_entities == 50
        assert small_graph.num_relations == 3


class TestAdjacencyIndex:
    def test_train_only_index_hides_test_edge(self, toy_graph):
        train_index = kg.build_index(toy_graph, ("train",))
        assert train_index.lookup(1, 1) == ()

    def test_full_index_sees_test_edge(self, toy_graph):
        full_index = kg.build_index(toy_graph)
        assert full_index.lookup(1, 1) == (3,)

    def test_unknown_pair_gives_empty(self, toy_graph):
        full_index = kg.build_index(toy_graph)
        assert full_index.lookup(3, 0) == ()

    def test_index_matches_brute_force_scan(self, small_graph, small_index):
        triples = set(small_graph.triples)
        for h in range(small_graph.num_entities):
            for r in range(small_graph.num_relations):
                expected = tuple(sorted(t for (hh, rr, t) in triples if hh == h and rr == r))
                assert small_index.lookup(h, r) == expected

    def test_lists_sorted_and_unique(self, small_graph):
        subsets = [c for n in (1, 2, 3) for c in itertools.combinations(kg.SPLITS, n)]
        for splits in subsets:
            index = kg.build_index(small_graph, splits)
            want: dict[tuple[int, int], set[int]] = {}
            for (h, r, t), split in small_graph.triples.items():
                if split in splits:
                    want.setdefault((h, r), set()).add(t)
            assert index.forward == {key: tuple(sorted(tails)) for key, tails in want.items()}
            for tails in index.forward.values():
                assert list(tails) == sorted(set(tails))


def test_content_hash_changes_with_data(small_graph):
    other = kg.generate_synthetic(50, 3, 2.0, 0.1, 0.1, seed=2)
    assert small_graph.content_hash() != other.content_hash()
    assert small_graph.content_hash() == small_graph.content_hash()
