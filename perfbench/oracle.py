"""Correctness checks for the benchmark's runs.

Predictions are recomputed here in plain numpy from the trained tensors
(word mean, LSTM recurrence, head softmax expectation, cosine), without
calling the package, and every check raises ``CheckFailed`` with a
message saying what disagreed.  The correlation check uses
``scipy.stats.pearsonr``, imported only when it runs, so that scipy's
memory stays out of the workload's peak resident set.
"""

from __future__ import annotations

import hashlib

import numpy as np

from inputs import row_digest

NORM_GUARD = 1e-12  # both norms below this: cosine is 0, as the method defines it
PRED_RTOL = 1e-9
PRED_ATOL = 1e-12
CORR_TOL = 1e-9
GATES = ("input", "forget", "output", "candidate")
UNK_INDEX = 0
# Pairs and sentences are recomputed in chunks this large, so that the
# checks' own arrays stay small beside the workload's peak resident set.
CHUNK = 256


class CheckFailed(AssertionError):
    """A run's output disagrees with the method."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm(tensors: dict[str, np.ndarray], tag: str, steps: np.ndarray) -> np.ndarray:
    """Hidden states of one direction for a batch of equal-length sentences.

    ``steps`` is n x T x d; returns n x T x h.
    """
    w = {g: tensors[f"enc.{tag}.w_{g}"] for g in GATES}
    u = {g: tensors[f"enc.{tag}.u_{g}"] for g in GATES}
    b = {g: tensors[f"enc.{tag}.b_{g}"] for g in GATES}
    n, length, _ = steps.shape
    h = np.zeros((n, w["input"].shape[0]))
    c = np.zeros_like(h)
    out = np.empty((n, length, h.shape[1]))
    for t in range(length):
        x = steps[:, t, :]
        pre = {g: x @ w[g].T + h @ u[g].T + b[g] for g in GATES}
        c = _sigmoid(pre["forget"]) * c + _sigmoid(pre["input"]) * np.tanh(pre["candidate"])
        h = _sigmoid(pre["output"]) * np.tanh(c)
        out[:, t, :] = h
    return out


def encode_sentences(tensors: dict[str, np.ndarray], index: dict[str, int], encoder: str,
                     sentences: list[list[str]]) -> np.ndarray:
    """Sentence embeddings, one row per sentence, in groups of equal length
    of at most CHUNK sentences."""
    matrix = tensors["wem.matrix"]
    out: np.ndarray | None = None
    by_length: dict[int, list[int]] = {}
    for i, tokens in enumerate(sentences):
        by_length.setdefault(len(tokens), []).append(i)
    groups = [same[k:k + CHUNK] for same in by_length.values()
              for k in range(0, len(same), CHUNK)]
    for members in groups:
        rows = np.array([[index.get(tok, UNK_INDEX) for tok in sentences[i]] for i in members])
        steps = matrix[rows]  # n x T x d
        if encoder == "word-average":
            emb = steps.mean(axis=1)
        else:
            fw = _lstm(tensors, "fw", steps)
            bw = _lstm(tensors, "bw", steps[:, ::-1, :])[:, ::-1, :]
            both = np.concatenate([fw, bw], axis=2)
            emb = both.mean(axis=1) if encoder == "bilstm-avg" else both.max(axis=1)
        if out is None:
            out = np.empty((len(sentences), emb.shape[1]))
        out[members] = emb
    return out


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    cos = np.einsum("ij,ij->i", a, b) / (np.maximum(na, NORM_GUARD) * np.maximum(nb, NORM_GUARD))
    return np.where((na < NORM_GUARD) & (nb < NORM_GUARD), 0.0, cos)


def head_expectation(tensors: dict[str, np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Expected bin score sum_i i * p_i of the dense + softmax head."""
    hidden = _sigmoid((a * b) @ tensors["cla.w_times"].T + np.abs(a - b) @ tensors["cla.w_plus"].T
                      + tensors["cla.b_h"])
    logits = hidden @ tensors["cla.w_p"].T + tensors["cla.b_p"]
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p @ np.arange(1, p.shape[1] + 1, dtype=np.float64)


def predictions(tensors: dict[str, np.ndarray], index: dict[str, int], encoder: str,
                setting: str, pairs: list[tuple[float, list[str], list[str]]]) -> np.ndarray:
    """Raw predicted scores of the pairs under the setting (UE/DNT cosine, FT/NT head),
    CHUNK pairs at a time."""
    out = []
    for k in range(0, len(pairs), CHUNK):
        part = pairs[k:k + CHUNK]
        emb = encode_sentences(tensors, index, encoder,
                               [p[1] for p in part] + [p[2] for p in part])
        left, right = emb[: len(part)], emb[len(part):]
        if setting in ("UE", "DNT"):
            out.append(cosine_rows(left, right))
        else:
            out.append(head_expectation(tensors, left, right))
    return np.concatenate(out)


def tensors_digest(tensors: dict[str, np.ndarray]) -> str:
    """Digest of every tensor's name and bytes, without copying them."""
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensors[name]).data)
    return digest.hexdigest()


def check_predictions(program, oracle: np.ndarray, what: str) -> None:
    program = np.asarray(program, dtype=np.float64)
    if program.shape != oracle.shape or not np.allclose(program, oracle, rtol=PRED_RTOL,
                                                        atol=PRED_ATOL):
        worst = (float(np.max(np.abs(program - oracle))) if program.shape == oracle.shape
                 else float("nan"))
        raise CheckFailed(f"{what}: program predictions differ from the numpy recomputation "
                          f"(max abs diff {worst:.3e})")


def check_correlation(reported: float, oracle: np.ndarray, gold, what: str) -> None:
    from scipy.stats import pearsonr

    expected = float(pearsonr(oracle, np.asarray(gold, dtype=np.float64))[0])
    if not abs(reported - expected) <= CORR_TOL * max(abs(expected), 1e-3):
        raise CheckFailed(f"{what}: reported correlation {reported!r} != pearsonr of the "
                          f"recomputed predictions {expected!r}")


def check_beats_untrained(trained: float, untrained: float, what: str) -> None:
    if not trained > untrained:
        raise CheckFailed(f"{what}: trained correlation {trained:.4f} is not above the "
                          f"untrained UE correlation {untrained:.4f}")


def check_frozen(before: dict[str, np.ndarray], after: dict[str, np.ndarray]) -> None:
    for name, values in before.items():
        if values.tobytes() != after[name].tobytes():
            raise CheckFailed(f"frozen tensor {name} changed during training")


def check_rows(matrix: np.ndarray, index: dict[str, int], file_digests: dict[str, str],
               unk_digest: str, occurring: set[str]) -> None:
    """Rows of tokens that occur in no split keep their loaded values bitwise;
    at least one row of a token that occurs has moved."""
    moved = 0
    for token, row in index.items():
        loaded = file_digests.get(token, unk_digest if row == UNK_INDEX else None)
        if loaded is None:
            raise CheckFailed(f"token {token!r} is not in the vector file")
        same = row_digest(matrix[row]) == loaded
        if token in occurring:
            moved += not same
        elif not same:
            raise CheckFailed(f"row of {token!r}, which occurs in no split, changed")
    if not moved:
        raise CheckFailed("no row of a token that occurs in the splits moved")


def check_grid_choice(cells: list[tuple[float, int, int, float]],
                      chosen: tuple[float, int, int]) -> None:
    """``cells`` are (learning rate, batch, epochs, dev correlation).  The chosen
    cell has the highest dev correlation; differences within 1e-12 are ties,
    broken toward smaller learning rate, then smaller batch, then fewer epochs."""
    top = max(c[3] for c in cells)
    tied = [c for c in cells if top - c[3] <= 1e-12]
    expected = min(c[:3] for c in tied)
    if tuple(chosen) != tuple(expected):
        raise CheckFailed(f"grid chose cell {chosen}, but the arg-max of the reported dev "
                          f"correlations is {expected}")
