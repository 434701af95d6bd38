"""Tests for dataset parsing and split management."""

import sys

import pytest
from conftest import FIXTURES_DIR

from simxfer.data import (
    DatasetSplit,
    ScoredPair,
    load_generic_tsv,
    load_sick,
    load_sts_benchmark,
    split_dataset,
)
from simxfer.embeddings import tokenize
from simxfer.errors import ContractError, DataError

STS_LINE = "main-captions\tMSRvid\t2012\t1\t5.00\tA man is cooking.\tA man cooks."


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# sentences holding characters that str.splitlines() breaks at but that
# tokenize reads as whitespace
SEPARATED = ("a\u2028man\fcooks", "a\u2029man\vis\x85cooking\x1cnow\x1d\x1e")


@pytest.mark.parametrize("load,header,layout", [
    (lambda path: load_generic_tsv(path, 0.0, 5.0), None, lambda y, a, b: [y, a, b]),
    (load_sts_benchmark, None, lambda y, a, b: ["main-captions", "MSRvid", "2012", "1", y, a, b]),
    (load_sick, "pair_ID\tsentence_A\tsentence_B\trelatedness_score",
     lambda y, a, b: ["1", a, b, y]),
], ids=["generic", "sts_benchmark", "sick"])
def test_lines_end_only_at_lf_crlf_or_cr(tmp_path, load, header, layout):
    rows = [("1", "the cat", "a dog"), ("2", *SEPARATED), ("3", "a dog", "the cat")]
    lines = ([header] if header else []) + ["\t".join(layout(*row)) for row in rows]
    text = "".join(line + end for line, end in zip(lines, ["\n", "\r\n", "\r", "\n"]))
    path = tmp_path / "data.tsv"
    path.write_bytes(text.encode("utf-8"))
    result = load(path)
    assert result.warnings == 0
    assert [(p.score, p.sentence_a, p.sentence_b) for p in result.pairs] == [
        (float(y), a, b) for y, a, b in rows]


def test_sts_benchmark_column_extraction(tmp_path):
    result = load_sts_benchmark(write(tmp_path, STS_LINE + "\n"))
    [pair] = result.pairs
    assert pair.score == 5.0
    assert pair.sentence_a == "A man is cooking."
    assert pair.sentence_b == "A man cooks."
    assert pair.score_range == (0.0, 5.0)


def test_sts_benchmark_extra_columns_ignored(tmp_path):
    result = load_sts_benchmark(write(tmp_path, STS_LINE + "\textra\tcols\n"))
    assert result.pairs[0].sentence_b == "A man cooks."


def test_sts_benchmark_short_line_skipped(tmp_path):
    short = "\t".join(STS_LINE.split("\t")[:6])
    result = load_sts_benchmark(write(tmp_path, STS_LINE + "\n" + short + "\n"))
    assert len(result.pairs) == 1
    assert result.warnings == 1


def test_sts_benchmark_order_preserved(tmp_path):
    lines = []
    for i, score in enumerate(("1.0", "2.0", "3.0")):
        fields = STS_LINE.split("\t")
        fields[4] = score
        fields[5] = f"sentence number {i}."
        lines.append("\t".join(fields))
    result = load_sts_benchmark(write(tmp_path, "\n".join(lines) + "\n"))
    assert [p.score for p in result.pairs] == [1.0, 2.0, 3.0]


def test_sts_benchmark_empty_is_fatal(tmp_path):
    with pytest.raises(DataError):
        load_sts_benchmark(write(tmp_path, "not\tenough\tfields\n"))


def test_crlf_endings_accepted(tmp_path):
    result = load_sts_benchmark(write(tmp_path, STS_LINE + "\r\n"))
    assert result.pairs[0].score == 5.0


SICK_HEADER = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_label"


def test_sick_header_keyed(tmp_path):
    text = SICK_HEADER + "\n1\tA kid plays.\tA child is playing.\t4.2\tENTAILMENT\n"
    result = load_sick(write(tmp_path, text))
    [pair] = result.pairs
    assert pair.score == 4.2
    assert pair.score_range == (1.0, 5.0)


def test_sick_reordered_columns(tmp_path):
    text = ("relatedness_score\tsentence_B\tsentence_A\tpair_ID\n"
            "4.2\tA child is playing.\tA kid plays.\t1\n")
    result = load_sick(write(tmp_path, text))
    assert result.pairs[0].sentence_a == "A kid plays."
    assert result.pairs[0].sentence_b == "A child is playing."


def test_sick_missing_column_fatal(tmp_path):
    text = "pair_ID\tsentence_A\trelatedness_score\n1\tx\t3.0\n"
    with pytest.raises(DataError) as err:
        load_sick(write(tmp_path, text))
    assert "sentence_B" in str(err.value)


def test_a_utf8_bom_does_not_hide_the_sick_header(tmp_path):
    original = FIXTURES_DIR / "activity_pairs_sick.tsv"
    bommed = tmp_path / "bom.tsv"
    bommed.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert load_sick(bommed) == load_sick(original)


def test_generic_bipolar_range(tmp_path):
    text = "-2\tpack a suitcase\ttravel to another state\n"
    result = load_generic_tsv(write(tmp_path, text), -2, 2)
    assert result.pairs[0].score == -2.0
    assert result.pairs[0].score_range == (-2.0, 2.0)


def test_generic_unipolar_range(tmp_path):
    text = "4\twatch a film\tsee a movie\n"
    result = load_generic_tsv(write(tmp_path, text), 0, 4)
    assert result.pairs[0].score == 4.0


def test_generic_bad_score_skipped(tmp_path):
    text = "abc\tx sentence\ty sentence\n3\tgood line\tanother line\n"
    result = load_generic_tsv(write(tmp_path, text), 0, 4)
    assert len(result.pairs) == 1
    assert result.warnings == 1


def test_generic_out_of_range_skipped(tmp_path):
    text = "9\tx sentence\ty sentence\n3\tgood line\tanother line\n"
    result = load_generic_tsv(write(tmp_path, text), 0, 4)
    assert len(result.pairs) == 1
    assert result.warnings == 1


@pytest.mark.parametrize("lo, hi", [(5, 5), (5, 0), (float("nan"), 5), (0, float("inf")),
                                    (-1e308, 1e308)])
def test_generic_range_needs_lo_below_hi_and_a_finite_width(tmp_path, lo, hi):
    with pytest.raises(ContractError):
        load_generic_tsv(write(tmp_path, "3\tgood line\tanother line\n"), lo, hi)


def test_nan_score_skipped_by_every_loader(tmp_path):
    sts_nan = STS_LINE.replace("\t5.00\t", "\tnan\t")
    sick = (SICK_HEADER + "\n1\tA kid plays.\tA child is playing.\tnan\tE\n"
            "2\tA dog runs.\tA dog is running.\t4.0\tE\n")
    cases = [
        (load_generic_tsv, "nan\ta b\tc d\n3\tgood line\tanother line\n", (0, 4)),
        (load_sts_benchmark, sts_nan + "\n" + STS_LINE + "\n", ()),
        (load_sick, sick, ()),
    ]
    for loader, text, extra in cases:
        result = loader(write(tmp_path, text), *extra)
        assert len(result.pairs) == 1, loader.__name__
        assert result.warnings == 1, loader.__name__


def test_empty_sentences_dropped(tmp_path):
    text = "3\t \tnonempty words\n2\treal sentence\tanother one\n"
    result = load_generic_tsv(write(tmp_path, text), 0, 4)
    assert len(result.pairs) == 1
    assert result.warnings == 1


def test_a_sentence_tokenizes_to_nothing_exactly_when_it_is_all_whitespace():
    """The loaders skip a pair whose sentence ``strip``s to nothing, which must be
    the pairs ``tokenize`` gives no tokens.  ``tokenize`` splits the lowercased
    text on whitespace, and lowercasing maps each code point on its own (final
    sigma aside, which stays a letter), so checking every code point suffices."""
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        assert (tokenize(c) == []) == (c.strip() == ""), hex(code)


def test_loading_is_idempotent(tmp_path):
    text = "1\taa bb\tcc dd\n2\tee ff\tgg hh\n"
    path = write(tmp_path, text)
    first = load_generic_tsv(path, 0, 4)
    second = load_generic_tsv(path, 0, 4)
    assert first.pairs == second.pairs


def test_scored_pair_range_invariant():
    with pytest.raises(ContractError):
        ScoredPair("a", "b", 6.0, (0.0, 5.0))
    with pytest.raises(ContractError):
        ScoredPair("a", "b", float("nan"), (0.0, 5.0))
    with pytest.raises(ContractError):
        ScoredPair("a", "b", 1.0, (5.0, 0.0))


def test_dataset_split_invariants():
    pairs = [ScoredPair("a b", "c d", 1.0, (0.0, 5.0))]
    with pytest.raises(DataError):
        DatasetSplit("train", [], "pearson")
    with pytest.raises(ContractError):
        DatasetSplit("train", pairs, "accuracy")
    with pytest.raises(ContractError):
        DatasetSplit("validation", pairs, "pearson")
    mixed = pairs + [ScoredPair("e f", "g h", 1.0, (1.0, 5.0))]
    with pytest.raises(ContractError):
        DatasetSplit("train", mixed, "pearson")


def make_pairs(n):
    return [ScoredPair(f"sent a{i}", f"sent b{i}", float(i % 5), (0.0, 5.0)) for i in range(n)]


def test_split_cardinality():
    train, dev = split_dataset(make_pairs(10), 0.2, seed=1)
    assert len(train) == 8 and len(dev) == 2
    assert set(id(p) for p in train).isdisjoint(id(p) for p in dev)


def test_split_deterministic():
    pairs = make_pairs(20)
    assert split_dataset(pairs, 0.3, seed=9) == split_dataset(pairs, 0.3, seed=9)
    assert split_dataset(pairs, 0.3, seed=9) != split_dataset(pairs, 0.3, seed=10)


def test_split_exhaustive():
    pairs = make_pairs(17)
    train, dev = split_dataset(pairs, 0.25, seed=4)
    assert sorted(train + dev, key=lambda p: p.sentence_a) == sorted(
        pairs, key=lambda p: p.sentence_a)


def test_split_mirrors_small_dev_convention():
    train, dev = split_dataset(make_pairs(2000), 234 / 2000, seed=0)
    assert len(dev) == 234
    assert len(train) == 1766


def test_split_rejects_bad_arguments():
    with pytest.raises(ContractError):
        split_dataset(make_pairs(1), 0.5, seed=0)
    with pytest.raises(ContractError):
        split_dataset(make_pairs(10), 1.5, seed=0)
