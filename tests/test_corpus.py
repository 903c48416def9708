"""Corpus generation, vocabulary closure, and dataset TSV io."""

from __future__ import annotations

import numpy as np
import pytest

from qnlp.corpus import (
    VOCABULARY,
    MalformedLine,
    default_lexicon,
    dump_tsv,
    food_pool,
    generate_mc,
    it_pool,
    load_tsv,
)
from qnlp.errors import ConfigError
from qnlp.pregroup import parse_sentence


class TestPools:
    def test_pool_sizes(self):
        """2 subjects x 3 verbs x 3 objects x 2 x 2 adjective choices."""
        assert len(food_pool()) == 72
        assert len(it_pool()) == 72
        assert len(set(food_pool())) == 72
        assert len(set(it_pool())) == 72

    def test_pools_disjoint(self):
        assert not set(food_pool()) & set(it_pool())

    def test_vocabulary_size(self):
        assert len(VOCABULARY) == 17
        used = {w for s in food_pool() + it_pool() for w in s}
        assert used == VOCABULARY

    def test_sentence_lengths(self):
        assert {len(s) for s in food_pool()} == {3, 4, 5}


class TestGenerateMc:
    def test_sizes_and_balance(self):
        splits = generate_mc(0)
        assert [len(s) for s in splits] == [70, 30, 30]
        for lset in splits:
            labels = lset.labels()
            assert sum(labels) == len(labels) // 2

    def test_deterministic(self):
        assert generate_mc(3) == generate_mc(3)
        assert generate_mc(3) != generate_mc(4)

    def test_splits_disjoint(self):
        splits = generate_mc(1)
        seen = [set(s.sentences()) for s in splits]
        assert not seen[0] & seen[1]
        assert not seen[0] & seen[2]
        assert not seen[1] & seen[2]

    def test_vocabulary_closure(self):
        """Every dev and test word must appear somewhere in train."""
        for seed in range(20):
            splits = generate_mc(seed)
            train_vocab = splits.train.vocabulary()
            assert splits.dev.vocabulary() <= train_vocab
            assert splits.test.vocabulary() <= train_vocab

    def test_labels_interleaved(self):
        labels = generate_mc(0).train.labels()
        half = len(labels) // 2
        assert 0 < sum(labels[:half]) < half

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            generate_mc(0, (71, 30, 30))
        with pytest.raises(ConfigError):
            generate_mc(0, (0, 30, 30))
        with pytest.raises(ConfigError):
            generate_mc(0, (100, 30, 30))
        with pytest.raises(ConfigError):
            generate_mc(0, (70, 30))  # type: ignore[arg-type]


class TestDefaultLexicon:
    def test_covers_vocabulary(self):
        lex = default_lexicon()
        for word in VOCABULARY:
            assert word in lex

    def test_whole_corpus_parses(self):
        lex = default_lexicon()
        for words in food_pool() + it_pool():
            d = parse_sentence(list(words), lex)
            assert d.n_outputs == 1


class TestTsv:
    def test_round_trip(self, tmp_path):
        data = generate_mc(0).dev
        path = tmp_path / "dev.tsv"
        dump_tsv(data, path)
        again = load_tsv(path, name="dev")
        assert again == data

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("1\tman cooks meal\n\n0\tman runs program\n")
        assert len(load_tsv(path)) == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("1\tman cooks meal\nno tab here\n")
        with pytest.raises(MalformedLine, match="2"):
            load_tsv(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("2\tman cooks meal\n")
        with pytest.raises(MalformedLine):
            load_tsv(path)

    def test_empty_sentence(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("1\t\n")
        with pytest.raises(MalformedLine):
            load_tsv(path)


def test_label_array_is_built_once_and_read_only():
    lset = generate_mc(0).train
    labels = lset.label_array
    assert labels.dtype == np.intp and labels.tolist() == list(lset.labels())
    assert lset.label_array is labels
    with pytest.raises(ValueError, match="read-only"):
        labels[0] = 1 - labels[0]
