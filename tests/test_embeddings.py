"""Tests for vocabulary, embedding loading, tokenization, and lookup through
the token ids of a ``PairTable`` and ``lookup_rows``."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_tokenize

from simxfer.autodiff import Tape, backward, dense, lookup_rows, matmul
from simxfer.data import ScoredPair
from simxfer.embeddings import UNK_INDEX, load_embeddings, tokenize
from simxfer.encoders import EncoderConfig, init_encoder
from simxfer.errors import DataError
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
