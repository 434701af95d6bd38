"""Tests for vocabulary, embedding loading, tokenization, and lookup through
the token ids of a ``PairTable`` and ``lookup_rows``."""

import random
import string
import tracemalloc

import numpy as np
import pytest
from conftest import FIXTURES_DIR
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_load_embeddings, reference_tokenize

from simxfer import embeddings
from simxfer.autodiff import Tape, backward, dense, lookup_rows, matmul
from simxfer.data import ScoredPair
from simxfer.embeddings import _CHUNK_LINES, UNK_INDEX, load_embeddings, tokenize
from simxfer.encoders import EncoderConfig, init_encoder
from simxfer.errors import ContractError, DataError
from simxfer.transfer import PairTable, SimilarityModel


def write_vectors(tmp_path, text, name="vecs.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def token_ids(result, text):
    """The token ids of ``text``: its row of a ``PairTable``, without the padding."""
    config = EncoderConfig("word-average", input_dim=result.embedding.matrix.shape[1])
    model = SimilarityModel(result.vocabulary, result.embedding, config, init_encoder(config))
    table = PairTable(model, [ScoredPair(text, text, 0.0, (0.0, 1.0))])
    return table.ids[0, : table.lengths[0]].tolist()


def lookup(result, text):
    """The T x d embedding rows of ``text``'s tokens, as the package looks them up."""
    return lookup_rows(result.embedding.matrix, token_ids(result, text))


def test_load_small_file(tmp_path):
    path = write_vectors(tmp_path, "the 0.1 0.2\ncat 0.3 0.4\n")
    result = load_embeddings(path, expected_dim=2)
    assert len(result.vocabulary) == 3  # unk, the, cat
    assert result.embedding.matrix.shape == (3, 2)
    assert result.vocabulary.index["the"] == 1
    assert result.vocabulary.index["cat"] == 2
    assert result.skipped_lines == 0


def test_unk_row_is_mean_of_loaded_vectors(tmp_path):
    path = write_vectors(tmp_path, "a 1.0 3.0\nb 3.0 5.0\n")
    result = load_embeddings(path, expected_dim=2)
    assert token_ids(result, "zzz") == [UNK_INDEX]
    assert np.allclose(result.embedding.matrix.values[UNK_INDEX], [2.0, 4.0])


def test_malformed_lines_counted(tmp_path):
    lines = [f"w{i} 0.{i} 0.{i}" for i in range(9)]
    lines.insert(4, "broken 0.5")  # wrong dimension
    path = write_vectors(tmp_path, "\n".join(lines) + "\n")
    result = load_embeddings(path, expected_dim=2)
    assert len(result.vocabulary) == 10  # unk + 9 valid
    assert result.skipped_lines == 1


def test_unparseable_floats_skipped(tmp_path):
    path = write_vectors(tmp_path, "ok 0.1 0.2\nbad x y\n")
    result = load_embeddings(path, expected_dim=2)
    assert len(result.vocabulary) == 2
    assert result.skipped_lines == 1


def test_non_finite_vectors_skipped_and_unk_stays_finite(tmp_path):
    path = write_vectors(tmp_path, "a 1.0 3.0\nb nan 1.0\nc inf 0.5\nd 3.0 5.0\n")
    result = load_embeddings(path, expected_dim=2)
    assert result.skipped_lines == 2
    assert "b" not in result.vocabulary and "c" not in result.vocabulary
    assert np.array_equal(result.embedding.matrix.values[UNK_INDEX], [2.0, 4.0])


def test_unk_row_stays_finite_when_the_row_sum_overflows(tmp_path):
    path = write_vectors(tmp_path, "a 1.7e308 1.0\nb 1.7e308 3.0\n")
    unk = load_embeddings(path, expected_dim=2).embedding.matrix.values[UNK_INDEX]
    assert np.allclose(unk, [1.7e308, 2.0], rtol=1e-15)


def test_duplicate_tokens_keep_first(tmp_path):
    path = write_vectors(tmp_path, "dog 1 1\ndog 9 9\n")
    result = load_embeddings(path, expected_dim=2)
    assert np.allclose(result.embedding.matrix.values[result.vocabulary.index["dog"]], [1, 1])


def test_empty_file_is_fatal(tmp_path):
    path = write_vectors(tmp_path, "")
    with pytest.raises(DataError):
        load_embeddings(path, expected_dim=2)


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(DataError):
        load_embeddings(tmp_path / "nope.txt", expected_dim=2)


def loaded(path, dim, load=load_embeddings):
    """What a load yields, in a form ``==`` compares exactly: the vocabulary, the
    skipped count and the matrix's bytes; or the class of the error it raised."""
    try:
        result = load(path, dim)
    except (ContractError, DataError) as exc:
        return type(exc)
    values = result.embedding.matrix.values
    return result.vocabulary.index, result.skipped_lines, values.shape, values.tobytes()


def assert_loads_as_reference(path, dim):
    assert loaded(path, dim) == loaded(path, dim, reference_load_embeddings)


# values numpy's C reader refuses but float() accepts (1_0, an Arabic-Indic one),
# values both refuse, non-finite and out-of-range values, and stray whitespace
ODD_FIELDS = ("1_0", "١", "\t1.0", "1.0\xa0", "nan", "-inf", "infinity", "0x10",
              "1e400", "1e-400", ".5e", "1,5", "1.2.3", "", "\x00", "-0.0", "+2E3")


def random_vector_text(rng, dim, lines):
    """``lines`` lines of ``dim`` values over a small vocabulary, with odd tokens,
    odd values, wrong field counts, duplicates, LF/CRLF/CR ends and at times a BOM."""
    words = [f"w{i}" for i in range(rng.randint(1, lines))]
    out = ["﻿"] if rng.random() < 0.1 else []
    for _ in range(lines):
        token = rng.choice(words + ["", "two words", "١"])
        count = dim + rng.choice((0,) * 18 + (-1, 1))
        values = [rng.choice(ODD_FIELDS) if rng.random() < 0.01 else repr(rng.uniform(-3, 3))
                  for _ in range(count)]
        out.append(" ".join([token] + values) + rng.choice(("\n", "\r\n", "\r")))
    return "".join(out)


@pytest.mark.parametrize("seed", range(40))
def test_load_equals_the_line_by_line_reference_on_random_files(tmp_path, seed):
    rng = random.Random(seed)
    dim = rng.choice((1, 2, 4))
    path = tmp_path / "vecs.txt"
    path.write_text(random_vector_text(rng, dim, rng.randint(1, 2500)), encoding="utf-8",
                    newline="")
    assert_loads_as_reference(path, dim)


def good_line(i, token=None):
    return f"{token or f'w{i}'} {i % 7 - 3}.5 0.{i}\n"


def chunks_around(*lines):
    """``lines`` spread over the first two chunks: the first line opens the file,
    the rest follow one full chunk of good lines."""
    return [lines[0]] + [good_line(i) for i in range(_CHUNK_LINES)] + list(lines[1:])


@pytest.mark.parametrize("lines", [
    [good_line(i) for i in range(_CHUNK_LINES - 1)] + ["last 1.0 x\n"] + [good_line(i) for i in range(5)],
    [good_line(i) for i in range(_CHUNK_LINES - 1)] + ["last 1_0 2\n", good_line(0, "next")],
    chunks_around("dup nan 1.0\n", "dup 2.0 3.0\n"),
    chunks_around("dup 2.0 3.0\n", "dup x 1\n", "dup 1_0 1\n"),
    [good_line(i) for i in range(_CHUNK_LINES)],
    [good_line(i) for i in range(_CHUNK_LINES + 1)],
    ["x 1\n", "y 2.0 \n", "z ١ 1\n"],
], ids=["bad-last-line-of-a-chunk", "float-only-last-line-of-a-chunk",
        "non-finite-first-good-duplicate-next-chunk", "good-first-refused-duplicates-next-chunk",
        "one-chunk", "one-chunk-and-one-line", "short-file"])
def test_load_equals_the_reference_at_chunk_boundaries(tmp_path, lines):
    assert_loads_as_reference(write_vectors(tmp_path, "".join(lines)), 2)


def test_a_good_duplicate_in_a_later_chunk_replaces_a_non_finite_first(tmp_path):
    path = write_vectors(tmp_path, "".join(chunks_around("dup nan 1.0\n", "dup 2.0 3.0\n")))
    result = load_embeddings(path, 2)
    assert result.embedding.matrix.values[result.vocabulary.index["dup"]].tolist() == [2.0, 3.0]


@pytest.mark.parametrize("text,dim,error", [
    ("", 2, DataError),
    ("a nan 1\nb 1 x\n c 1 2\nd 1\n" * _CHUNK_LINES, 2, DataError),  # every line bad
    ("v \n", 1, DataError),
    (None, 2, DataError),  # no such file
    ("w 1 2\n", 0, ContractError),
    ("w 1\n", -1, ContractError),
])
def test_load_raises_what_the_reference_raises(tmp_path, text, dim, error):
    path = tmp_path / "nope.txt" if text is None else write_vectors(tmp_path, text)
    assert loaded(path, dim) is error
    assert_loads_as_reference(path, dim)


def test_a_utf8_bom_does_not_rename_the_first_vector(tmp_path):
    original = FIXTURES_DIR / "wordvecs_50d.txt"
    bommed = tmp_path / "bom.txt"
    bommed.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert loaded(bommed, 50) == loaded(original, 50)
    assert "music" in load_embeddings(bommed, 50).vocabulary


def write_clean_vectors(tmp_path, lines, dim, seed=0):
    values = np.random.default_rng(seed).standard_normal((lines, dim))
    path = tmp_path / "clean.txt"
    path.write_text("".join(f"w{i} " + " ".join(map(repr, row.tolist())) + "\n"
                            for i, row in enumerate(values)), encoding="utf-8")
    return path


def test_load_peak_memory_is_bounded_by_the_matrix_size(tmp_path):
    """The loader's traced peak is at most 2.25 times the matrix it returns.

    The rows kept so far and the assembled matrix are the two copies it needs.
    Measured on a 5,000 x 100 file: 2.16 times; the line-by-line reference
    (a row list, ``np.mean``'s array of it and ``np.vstack``) peaks at 2.48."""
    path = write_clean_vectors(tmp_path, 5000, 100)
    tracemalloc.start()
    try:
        result = load_embeddings(path, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * result.embedding.matrix.values.nbytes


def test_a_clean_file_never_takes_the_line_by_line_path(tmp_path, monkeypatch):
    """One ``np.loadtxt`` call per chunk and no per-line parse: if numpy's reader
    began to refuse well-formed values, loads would stay exact but slow."""
    path = write_clean_vectors(tmp_path, 5000, 20)
    calls = {"loadtxt": 0, "line": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(embeddings.np, "loadtxt", counted("loadtxt", np.loadtxt))
    monkeypatch.setattr(embeddings, "_parse_line", counted("line", embeddings._parse_line))
    result = load_embeddings(path, 20)
    assert result.skipped_lines == 0 and len(result.vocabulary) == 5001
    assert calls == {"loadtxt": -(-5000 // _CHUNK_LINES), "line": 0}


@pytest.mark.parametrize(
    "text,expected",
    [
        ("To watch a film.", ["to", "watch", "a", "film", "."]),
        ("don't stop", ["don't", "stop"]),
        ("  ", []),
        ('"hello!"', ['"', "hello", "!", '"']),
        ("...", [".", ".", "."]),
        ("A man, a plan", ["a", "man", ",", "a", "plan"]),
    ],
)
def test_tokenize(text, expected):
    assert tokenize(text) == expected


TOKENIZER_ALPHABET = (string.ascii_letters + string.digits + string.punctuation + " \t\n"
                      + "\u3000\x1c\x85" + "\u0130\u00df")  # Unicode spaces; İ and ß change length


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet=TOKENIZER_ALPHABET, max_size=40) | st.text(max_size=20))
def test_tokenize_equals_the_character_by_character_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_tokenize_never_empty_for_word_input():
    assert tokenize("(x)") == ["(", "x", ")"]


def test_lookup_known_token(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\ncat 0.3 0.4\n"), 2)
    with Tape():
        out = lookup(result, "the")
    assert out.shape == (1, 2)
    assert np.array_equal(out.values[0], result.embedding.matrix.values[1])


def test_lookup_oov_maps_to_unk(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\n"), 2)
    with Tape():
        out = lookup(result, "zzzunseen")
    assert np.array_equal(out.values[0], result.embedding.matrix.values[UNK_INDEX])


def test_lookup_preserves_order(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\ncat 0.3 0.4\n"), 2)
    with Tape():
        out = lookup(result, "the cat")
    assert np.array_equal(out.values,
                          result.embedding.matrix.values[[1, 2]])


def test_lookup_empty_sentence_errors(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\n"), 2)
    with pytest.raises(DataError):
        with Tape():
            lookup(result, "")


def test_gradients_reach_trainable_matrix(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\ncat 0.3 0.4\n"), 2)
    matrix = result.embedding.matrix
    matrix.trainable = True
    with Tape() as tape:
        rows = lookup(result, "cat cat")
        flat = matmul(rows, np.ones(2))
        loss = matmul(flat, flat)
    grad = backward(tape, loss)[matrix]  # row-sparse: only the looked-up row
    cat_row = result.vocabulary.index["cat"]
    assert grad.rows.tolist() == [cat_row]
    assert np.any(grad.values[0] != 0)
    assert np.all(dense(grad)[UNK_INDEX] == 0)


def test_frozen_matrix_receives_no_gradient(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\n"), 2)
    with Tape() as tape:
        rows = lookup(result, "the")
        flat = matmul(rows, np.ones(2))
        loss = matmul(flat, flat)
    assert result.embedding.matrix not in backward(tape, loss)


def test_lookup_of_tokenize_is_deterministic(tmp_path):
    result = load_embeddings(write_vectors(tmp_path, "the 0.1 0.2\ncat 0.3 0.4\n"), 2)
    text = "The cat, the CAT."
    with Tape():
        a = lookup(result, text).values
    with Tape():
        b = lookup(result, text).values
    assert np.array_equal(a, b)
