"""Property tests for the file formats: checkpoints, reports, pair files,
word-vector files and spec files.

Examples are derandomized and few, so the suite stays deterministic and
fast; every run checks the same inputs.
"""

import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simxfer.checkpoint import load_checkpoint, save_checkpoint
from simxfer.cli import (
    _KNOWN_KEYS,
    ExperimentReport,
    build_spec,
    parse_report,
    parse_spec_file,
    write_report,
)
from simxfer.data import load_generic_tsv, load_sick, load_sts_benchmark
from simxfer.embeddings import load_embeddings
from simxfer.errors import DataError, SpecError

FEW = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# one-line text: no control characters (tab, newline, \x1c-\x1e, \x85, ...),
# line or paragraph separators, or surrogates
LINE_TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CORRELATION = st.floats(-1.0, 1.0)  # a report refuses any other correlation
COUNT = st.integers(0, 10**6)
# a report refuses any other batch size, learning rate and epoch budget
POSITIVE = st.integers(1, 10**6)
RATE = st.floats(0.0, exclude_min=True, allow_infinity=False)


def _scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("prop") / "file"


# --- checkpoints ----------------------------------------------------------------


TENSORS = st.dictionaries(
    LINE_TEXT,
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=FINITE),
    max_size=4)


@FEW
@given(tensors=TENSORS)
def test_checkpoint_round_trip_is_bitwise(tmp_path_factory, tensors):
    path = _scratch_file(tmp_path_factory)
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert loaded.keys() == tensors.keys()
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()  # keeps -0.0 and subnormals


# --- reports --------------------------------------------------------------------


@st.composite
def reports(draw):
    best = draw(st.none() | st.tuples(POSITIVE, RATE, POSITIVE)) or (None,) * 3
    return ExperimentReport(
        dataset=draw(LINE_TEXT), metric=draw(LINE_TEXT), encoder=draw(LINE_TEXT),
        setting=draw(LINE_TEXT), test_correlation=draw(CORRELATION),
        dev_correlation=draw(st.none() | CORRELATION),
        best_batch_size=best[0], best_learning_rate=best[1], best_max_epochs=best[2],
        best_epoch=draw(st.none() | COUNT),
        warnings=draw(COUNT),
        cells=draw(st.lists(st.tuples(POSITIVE, RATE, POSITIVE, CORRELATION), max_size=4)),
    )


@FEW
@given(report=reports())
def test_report_round_trip_is_exact(tmp_path_factory, report):
    path = _scratch_file(tmp_path_factory)
    write_report(report, path)
    assert parse_report(path) == report


REPORT_KEYS = st.sampled_from([
    "cell", "dataset", "metric", "encoder", "setting", "test_correlation", "dev_correlation",
    "best_batch_size", "best_learning_rate", "best_max_epochs", "best_epoch", "warnings"])
REPORT_VALUES = (st.sampled_from(["32", "0.5", "-1", "abc", "nan", "1e400", ""])
                 | st.text(max_size=4))
REPORT_LINES = (
    st.tuples(REPORT_KEYS, REPORT_VALUES).map("\t".join)
    | st.lists(REPORT_VALUES, min_size=4, max_size=4).map(lambda f: "\t".join(["cell", *f]))
    | st.lists(REPORT_KEYS | REPORT_VALUES, max_size=6).map("\t".join))
REPORT_TEXT = st.lists(REPORT_LINES, max_size=8).map(
    lambda lines: "simxfer-report 1\n" + "\n".join(lines) + "\n")


@FEW
@given(content=REPORT_TEXT.map(lambda t: t.encode("utf-8", "surrogatepass"))
       | st.binary(max_size=64))
def test_parse_report_returns_or_raises_data_error(tmp_path_factory, content):
    path = _scratch_file(tmp_path_factory)
    path.write_bytes(content)
    try:
        assert isinstance(parse_report(path), ExperimentReport)
    except DataError:
        pass


# --- pair files -----------------------------------------------------------------


SCORES = st.sampled_from(["0", "1", "2.5", "5", "-0.5", "7", "nan", "inf", "-inf", "1e400",
                          "NaN", "x", ""])
SENTENCES = st.sampled_from(["the cat", "a dog runs", "", " ", "!!"]) | st.text(max_size=4)
NOISE = st.lists(SCORES | SENTENCES, max_size=8).map("\t".join)
# (loader, header line or None, fields of a well-formed line from score, sentence_a, sentence_b)
LOADERS = {
    "generic": (lambda path: load_generic_tsv(path, 0.0, 5.0), None, lambda y, a, b: [y, a, b]),
    "sts_benchmark": (load_sts_benchmark, None,
                      lambda y, a, b: ["main-captions", "MSRvid", "2012test", "0001", y, a, b]),
    "sick": (load_sick, "pair_ID\tsentence_A\tsentence_B\trelatedness_score",
             lambda y, a, b: ["1", a, b, y]),
}


@FEW
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_pair_loaders_keep_finite_scores_and_count_every_line(tmp_path_factory, name, data):
    load, header, layout = LOADERS[name]
    def shaped(scores, sentences):
        return st.builds(lambda *f: "\t".join(layout(*f)), scores, sentences, sentences)

    valid = shaped(st.sampled_from(["1", "2.5", "5"]), st.sampled_from(["the cat", "a dog"]))
    lines = data.draw(st.lists(valid | shaped(SCORES, SENTENCES) | NOISE, max_size=12))
    text = "\n".join([header] * (header is not None) + lines) + "\n"
    path = _scratch_file(tmp_path_factory)
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    # lines end at LF, CRLF or a lone CR, as the loaders document
    data_lines = [line for line in re.split("\r\n|\r|\n", text)[header is not None:]
                  if line.strip()]
    try:
        result = load(path)
    except DataError:
        return  # no valid pair
    assert all(math.isfinite(p.score) for p in result.pairs)
    assert len(result.pairs) + result.warnings == len(data_lines)


# --- word-vector files ----------------------------------------------------------


VECTOR_DIM = 3
FINITE_VALUES = st.sampled_from(["0", "1.5", "-2", "1e-300", "1.7e308", "-1.7e308"])
VALUES = FINITE_VALUES | st.sampled_from(["nan", "inf", "-inf", "1e400", "x", ""])
WORDS = st.sampled_from(["cat", "dog", "<unk>", ""]) | LINE_TEXT


def vector_lines(words, values):
    return st.builds(lambda w, v: " ".join([w, *v]), words,
                     st.lists(values, min_size=VECTOR_DIM, max_size=VECTOR_DIM))


VECTOR_LINES = (vector_lines(st.sampled_from(["cat", "dog", "fog"]), FINITE_VALUES)
                | vector_lines(WORDS, VALUES)
                | st.lists(WORDS | VALUES, max_size=6).map(" ".join))


@FEW
@given(lines=st.lists(VECTOR_LINES, max_size=12))
def test_load_embeddings_keeps_finite_values_and_counts_every_line(tmp_path_factory, lines):
    path = _scratch_file(tmp_path_factory)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        result = load_embeddings(path, VECTOR_DIM)
    except DataError:
        return  # no valid line
    matrix = result.embedding.matrix.values
    assert np.isfinite(matrix).all()
    assert matrix.shape[0] - 1 + result.skipped_lines == len(lines)  # row 0 is UNK


# --- spec files -----------------------------------------------------------------


VALID_SPEC = {
    "data.format": "generic", "data.train": "train.tsv", "data.test": "test.tsv",
    "data.score_lo": "0", "data.score_hi": "5", "embeddings.path": "vectors.txt",
    "embeddings.dim": "4", "transfer.setting": "DNT",
}
SPEC_KEYS = st.sampled_from([*sorted(_KNOWN_KEYS), "learning"])
SPEC_VALUES = st.sampled_from([
    "0", "1", "5", "-1", "0.5", "0.01,100", "32,0", "nan", "inf", "-inf", "1e400", "", "true",
    "UE", "FT", "NT", "DNT", "KL", "MSE", "generic", "sick", "sts_benchmark", "pearson",
    "spearman", "kendall", "word-average", "bilstm-max", "lstm"]) | LINE_TEXT


@FEW
@given(dropped=st.sets(st.sampled_from(sorted(VALID_SPEC)), max_size=1),
       changed=st.dictionaries(SPEC_KEYS, SPEC_VALUES, max_size=4))
def test_build_spec_returns_a_runnable_spec_or_raises_spec_error(tmp_path_factory, dropped,
                                                                 changed):
    entries = {k: v for k, v in VALID_SPEC.items() if k not in dropped} | changed
    path = _scratch_file(tmp_path_factory)
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    try:
        spec = build_spec(parse_spec_file(path), path)
    except SpecError:
        return
    assert all(0 < lr < math.inf for lr in spec.grid.learning_rates)
    lo, hi = spec.score_range
    assert lo < hi and math.isfinite(hi - lo)
