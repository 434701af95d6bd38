"""Independent reference implementations used only by the test suite.

These are deliberately written without the package's tape machinery or
vectorized shortcuts, so they can serve as oracles for the production
paths: naive two-pass Pearson, O(n^2) counting ranks for Spearman, and a
step-by-step LSTM recurrence over plain numpy arrays.
"""

import math

import numpy as np


def brute_force_pearson(x, y):
    """Two-pass textbook formula with plain Python loops."""
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = 0.0
    var_x = 0.0
    var_y = 0.0
    for xi, yi in zip(x, y):
        cov += (xi - mean_x) * (yi - mean_y)
        var_x += (xi - mean_x) ** 2
        var_y += (yi - mean_y) ** 2
    return cov / math.sqrt(var_x * var_y)


def brute_force_average_ranks(values):
    """O(n^2) ranking: rank_i = 1 + #smaller + (#equal - 1) / 2."""
    values = np.asarray(values, dtype=np.float64)
    smaller = (values[None, :] < values[:, None]).sum(axis=1)
    equal = (values[None, :] == values[:, None]).sum(axis=1)
    return 1.0 + smaller + (equal - 1) / 2.0


def brute_force_spearman(x, y):
    rx = brute_force_average_ranks(x)
    ry = brute_force_average_ranks(y)
    return brute_force_pearson(rx.tolist(), ry.tolist())


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_reference_states(weights, recurrent, biases, inputs):
    """Plain-numpy LSTM recurrence, one hidden state per step.

    ``weights``/``recurrent``/``biases`` are dicts keyed by gate name
    (input, forget, output, candidate) holding ndarray values.
    """
    h = np.zeros(biases["input"].shape[0])
    c = np.zeros_like(h)
    states = []
    for x in inputs:
        i = _sigmoid(weights["input"] @ x + recurrent["input"] @ h + biases["input"])
        f = _sigmoid(weights["forget"] @ x + recurrent["forget"] @ h + biases["forget"])
        o = _sigmoid(weights["output"] @ x + recurrent["output"] @ h + biases["output"])
        g = np.tanh(weights["candidate"] @ x + recurrent["candidate"] @ h + biases["candidate"])
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h.copy())
    return states


def bilstm_reference_embedding(direction_params, token_vectors, pooling):
    """Full bidirectional encode matching the production wiring.

    ``direction_params`` maps 'fw'/'bw' to (weights, recurrent, biases)
    dicts; pooling is 'avg' or 'max' over per-step [fw; bw] vectors.
    """
    fw = lstm_reference_states(*direction_params["fw"], list(token_vectors))
    bw = lstm_reference_states(*direction_params["bw"], list(token_vectors)[::-1])[::-1]
    per_step = np.stack([np.concatenate([f, b]) for f, b in zip(fw, bw)])
    if pooling == "avg":
        return per_step.mean(axis=0)
    return per_step.max(axis=0)


def dense_lookup_backward(node, g):
    """The lookup adjoint as a full matrix: zeros, then ``np.add.at`` over the indices."""
    out = np.zeros_like(node.inputs[0].values)
    np.add.at(out, node.attrs["indices"], g)
    return (out,)
