"""Independent reference implementations used only by the test suite.

These are deliberately written without the package's tape machinery or
vectorized shortcuts, so they can serve as oracles for the production
paths: naive two-pass Pearson, O(n^2) counting ranks for Spearman, and a
step-by-step LSTM recurrence over plain numpy arrays.  Others keep an
earlier form of a production path instead: the BiLSTM recorded gate by
gate on the tape, both packed (the arithmetic the fused ``bilstm`` kernel
reproduces) and one length group at a time (the encoder before packing),
the dense lookup adjoint, Adam one tensor at a time, the
character-by-character tokenizer, the word-vector loader that splits every
line and calls ``float()`` on each value, the text-keyed batch embedding
(``embed_sentences`` and ``embed_pairs``) that the pair table replaced, a
training loop that embeds every batch and every dev slice anew with it and
steps Adam one tensor at a time, a grid search that trains every cell with its
own ``train`` call, and the transfer-setting rules written as one test of the
setting name per case.
"""

import math
import string

import numpy as np

from simxfer.autodiff import (
    RowSparse,
    Tape,
    Tensor,
    add,
    backward,
    bilstm,
    concat,
    cosine,
    dense,
    elementwise_multiply,
    lookup_rows,
    matmul,
    max_over_axis,
    mean_over_axis,
    select_row,
    sigmoid,
    stack,
    tanh,
    transpose,
)
from simxfer.embeddings import (
    UNK_INDEX,
    EmbeddingLoadResult,
    EmbeddingMatrix,
    Vocabulary,
    tokenize,
)
from simxfer.encoders import GATES
from simxfer.errors import ContractError, DataError, NumericError
from simxfer.metrics import correlation
from simxfer.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TIE_TOLERANCE,
    UNDEFINED_CORRELATION,
    CellResult,
    GridSearchResult,
    TrainingHistory,
    train,
)
from simxfer.transfer import (
    SCORE_SLICE,
    classifier_forward,
    dnt_loss,
    ft_loss,
    normalize_score,
    rescale_to_bins,
    sparse_target_distribution,
)


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


def _tape_lstm_states(params, tag, steps, h):
    w = {gate: transpose(params[f"enc.{tag}.w_{gate}"]) for gate in GATES}
    u = {gate: transpose(params[f"enc.{tag}.u_{gate}"]) for gate in GATES}
    b = {gate: params[f"enc.{tag}.b_{gate}"] for gate in GATES}
    hidden = Tensor(np.zeros(steps[0].shape[:-1] + (h,)))
    cell = Tensor(np.zeros(steps[0].shape[:-1] + (h,)))
    states = []
    for x in steps:
        gates = {}
        for gate in GATES:
            pre = add(add(matmul(x, w[gate]), matmul(hidden, u[gate])), b[gate])
            gates[gate] = tanh(pre) if gate == "candidate" else sigmoid(pre)
        cell = add(elementwise_multiply(gates["forget"], cell),
                   elementwise_multiply(gates["input"], gates["candidate"]))
        hidden = elementwise_multiply(gates["output"], tanh(cell))
        states.append(hidden)
    return states


def tape_bilstm_states(params, token_vectors, hidden_dim):
    """The T x (n x) 2h per-step states of ``bilstm``, recorded gate by gate:
    a ``select_row`` per step, matmul/add/sigmoid/tanh nodes per gate and
    step, and ``stack`` and ``concat`` around the two directions."""
    rows = [select_row(token_vectors, t) for t in range(token_vectors.shape[0])]
    fwd = _tape_lstm_states(params, "fw", rows, hidden_dim)
    bwd = list(reversed(_tape_lstm_states(params, "bw", rows[::-1], hidden_dim)))
    return concat((stack(fwd), stack(bwd)))


def tape_encode(params, config, token_vectors):
    """A BiLSTM's embeddings of one length group (T x d or T x n x d) over
    ``tape_bilstm_states``: the arithmetic of ``bilstm`` per length group."""
    per_step = tape_bilstm_states(params, token_vectors, config.hidden_dim)
    if config.kind == "bilstm-avg":
        return mean_over_axis(per_step, axis=0)
    return max_over_axis(per_step, axis=0)


def per_group_encode(params, config, matrix, ids, lengths, rows):
    """``encoders.encode`` as it was before packing: each distinct row once, the
    rows of one length from one T x n x d lookup and, for a BiLSTM, one
    ``tape_encode`` per length; then a concat and a gather into ``rows`` order."""
    rows = list(rows)
    groups = {}
    for row in dict.fromkeys(rows):
        groups.setdefault(int(lengths[row]), []).append(row)
    position = {row: i for i, row in enumerate(r for group in groups.values() for r in group)}
    parts = []
    for length, group in groups.items():
        vectors = lookup_rows(matrix, ids[group, :length].T)
        parts.append(mean_over_axis(vectors, axis=0) if config.kind == "word-average"
                     else tape_encode(params, config, vectors))
    return lookup_rows(concat(parts, axis=0), [position[row] for row in rows])


def _tape_resized(state, k):
    """``autodiff._resized`` as nodes: a row gather to shrink, a concat of zero rows to grow."""
    if k < len(state.values):
        return lookup_rows(state, range(k))
    return concat((state, Tensor(np.zeros((k - len(state.values), state.shape[1])))), axis=0)


def _tape_packed_direction(tokens, params, sizes, starts):
    w, u, b = params[:4], params[4:8], params[8:]
    xw = [matmul(tokens, transpose(wk)) for wk in w]
    ut = [transpose(uk) for uk in u]
    hidden = cell = Tensor(np.zeros((0, b[0].shape[0])))
    states = []
    for k, start in zip(sizes, starts):
        h_prev, c_prev = _tape_resized(hidden, k), _tape_resized(cell, k)
        gates = []
        for gate, xk, uk, bk in zip(GATES, xw, ut, b):
            pre = add(add(lookup_rows(xk, range(start, start + k)), matmul(h_prev, uk)), bk)
            gates.append(tanh(pre) if gate == "candidate" else sigmoid(pre))
        i, f, o, g = gates
        cell = add(elementwise_multiply(f, c_prev), elementwise_multiply(i, g))
        hidden = elementwise_multiply(o, tanh(cell))
        states.append(hidden)
    return states


def tape_packed_bilstm(tokens, lengths, forward, backward):
    """``autodiff.bilstm`` recorded gate by gate, with its signature: per gate
    one ``matmul`` of all packed tokens, then per step a row gather of that
    product, the recurrent ``matmul``, the adds and the activations; a gather
    or a concat of zero rows hands each step's state to the next.  Each
    step's state is padded with zero rows to n, and ``stack`` and ``concat``
    build the T x n x 2h output."""
    lengths = np.asarray(lengths)
    sizes = [int((lengths > t).sum()) for t in range(lengths[0])]
    starts = [0, *np.cumsum(sizes[:-1]).tolist()]
    forward, backward = list(forward), list(backward)
    fwd = _tape_packed_direction(tokens, forward, sizes, starts)
    bwd = _tape_packed_direction(tokens, backward, sizes[::-1], starts[::-1])[::-1]

    def padded(states):
        return stack([concat((s, Tensor(np.zeros((len(lengths) - s.shape[0], s.shape[1])))),
                             axis=0) for s in states])

    return concat((padded(fwd), padded(bwd)))


def dense_lookup_backward(node, g, keep):
    """The lookup adjoint as a full matrix: zeros, then ``np.add.at`` over the indices."""
    out = np.zeros_like(node.inputs[0].values)
    np.add.at(out, node.attrs["indices"], g)
    return (out,)


_PUNCT = set(string.punctuation)


def reference_tokenize(text):
    """Lowercase, split on whitespace, then peel leading and trailing ASCII
    punctuation one character at a time, each character a token."""
    tokens = []
    for chunk in text.lower().split():
        leading = []
        trailing = []
        while chunk and chunk[0] in _PUNCT:
            leading.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _PUNCT:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def reference_load_embeddings(path, expected_dim):
    """``load_embeddings`` one line at a time: split every line and ``float()``
    each value.  Its rules are the loader's grammar: a line loads iff it has
    ``expected_dim`` values after a non-empty token, ``float()`` accepts them all,
    they are finite and the token is new."""
    if expected_dim <= 0:
        raise ContractError("expected_dim must be positive")
    vocab = Vocabulary()
    rows = []
    skipped = 0
    try:
        handle = open(path, "r", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise DataError(f"cannot open embedding file {path}: {exc}") from exc
    with handle:
        for line in handle:
            parts = line.rstrip("\r\n").split(" ")
            if len(parts) != expected_dim + 1 or not parts[0]:
                skipped += 1
                continue
            token = parts[0]
            try:
                vector = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                skipped += 1
                continue
            if not np.isfinite(vector).all():
                skipped += 1
                continue
            if token in vocab:
                skipped += 1
                continue
            vocab.add(token)
            rows.append(vector)
    if not rows:
        raise DataError(f"embedding file {path} contains no valid lines")
    with np.errstate(over="ignore"):
        unk_row = np.mean(rows, axis=0)
    if not np.isfinite(unk_row).all():
        unk_row = np.sum(np.divide(rows, len(rows)), axis=0)
    matrix = Tensor(np.vstack([unk_row] + rows), trainable=False, name="wem.matrix")
    return EmbeddingLoadResult(vocab, EmbeddingMatrix(matrix, expected_dim), skipped)


def embed_sentences(model, sentences):
    """tokenize -> lookup -> encode for a batch of sentences (recorded if a tape is open).

    Returns an n x e tensor whose row i embeds ``sentences[i]``.  Each
    distinct sentence is encoded once.  Word-average looks up and averages
    the sentences of one token length together, lengths in first-seen order;
    a BiLSTM sorts the sentences by descending length, ties in first-seen
    order, and runs one packed ``bilstm`` over all of them.
    """
    get = model.vocabulary.index.get
    ids = {text: [get(t, UNK_INDEX) for t in tokenize(text)] for text in dict.fromkeys(sentences)}
    if not all(ids.values()):
        raise DataError("empty sentence: no tokens to look up")
    matrix, kind = model.embedding.matrix, model.encoder_config.kind
    if kind == "word-average":
        by_length = {}
        for text in ids:
            by_length.setdefault(len(ids[text]), []).append(text)
        order = [t for group in by_length.values() for t in group]
        embedded = concat([mean_over_axis(lookup_rows(matrix, np.array([ids[t] for t in group]).T))
                           for group in by_length.values()], axis=0)
    else:
        order = sorted(ids, key=lambda text: -len(ids[text]))
        lengths = [len(ids[text]) for text in order]
        packed = [ids[text][t] for t in range(lengths[0]) for text in order if len(ids[text]) > t]
        values = list(model.encoder_params.values())
        states = bilstm(lookup_rows(matrix, packed), lengths, values[:12], values[12:])
        pool = mean_over_axis if kind == "bilstm-avg" else max_over_axis
        embedded = pool(states, axis=0, lengths=lengths)
    row = {text: i for i, text in enumerate(order)}
    return lookup_rows(embedded, [row[text] for text in sentences])


def embed_pairs(model, pairs):
    """m x e embeddings of the first and of the second sentences of the
    pairs, from one ``embed_sentences`` call."""
    m = len(pairs)
    both = embed_sentences(model, [p.sentence_a for p in pairs] + [p.sentence_b for p in pairs])
    return lookup_rows(both, range(m)), lookup_rows(both, range(m, 2 * m))


def _pair_outputs(config, model, pairs):
    """(head distribution or None, predicted scores) of the pairs, via ``embed_pairs``."""
    h_left, h_right = embed_pairs(model, pairs)
    if config.has_head:
        return classifier_forward(h_left, h_right, model.classifier)
    return None, cosine(h_left, h_right)


class ReferenceAdamState:
    """Adam's moments one tensor at a time, ``trainer.AdamState`` before it laid
    them out flat: ``m[p]``, ``v[p]`` and, while p has had only ``RowSparse``
    gradients, the sorted rows ``rows[p]`` they cover (None once whole)."""

    def __init__(self, params):
        self.m = {p: np.zeros((0,) + p.shape[1:]) for p in params}
        self.v = {p: np.zeros((0,) + p.shape[1:]) for p in params}
        self.rows = {p: np.zeros(0, np.intp) for p in params}
        self.t = 0

    def touch(self, p, rows):
        old = self.rows[p]
        union = np.union1d(old, rows)
        if len(union) > len(old):
            for moments in (self.m, self.v):
                moments[p] = RowSparse(old, moments[p], p.shape).on_rows(union)
            self.rows[p] = union
        return union

    def make_whole(self, p):
        rows = self.rows[p]
        if rows is None:
            return
        for moments in (self.m, self.v):
            moments[p] = (RowSparse(rows, moments[p], p.shape).dense() if len(rows)
                          else np.zeros_like(p.values))
        self.rows[p] = None


def _reference_adam_delta(m, v, g, lr, bias1, bias2):
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    return lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def reference_adam_step(grads, state, lr):
    """``trainer.adam_step`` one tensor at a time, in state order, with ~11
    numpy calls per tensor; it checks each gradient just before that tensor
    moves, so a non-finite one refuses the step after the tensors before it
    moved."""
    if not 0 < lr < math.inf:
        raise ContractError("learning rate must be positive and finite")
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    for p in state.m:
        g = grads.get(p)
        if not p.trainable or g is None:
            continue
        sparse = isinstance(g, RowSparse)
        if not np.all(np.isfinite(g.values if sparse else g)):
            raise NumericError(f"non-finite gradient for {p.name or p!r}")
        if sparse and state.rows[p] is not None:
            rows = state.touch(p, g.rows)
            p.values[rows] -= _reference_adam_delta(state.m[p], state.v[p], g.on_rows(rows),
                                                    lr, bias1, bias2)
        else:
            state.make_whole(p)
            p.values -= _reference_adam_delta(state.m[p], state.v[p], dense(g), lr, bias1, bias2)


def reference_train(model, config, train_pairs, dev_pairs, metric, training_config):
    """Training that embeds each batch and each dev slice with ``embed_pairs``.

    Same shuffle, batches, targets, losses, Adam steps (one tensor at a time,
    ``reference_adam_step``), early stopping and best-epoch restore as
    ``trainer.train``; returns ``(model, TrainingHistory)``.
    """
    model.apply_freeze_policy(config)
    params = [t for ts in model.parameter_sets().values() for t in ts if t.trainable]
    state = ReferenceAdamState(params)
    rng = np.random.default_rng(training_config.seed)
    history = TrainingHistory()
    best_values = None
    since_best = 0
    for epoch in range(training_config.max_epochs):
        order = rng.permutation(len(train_pairs))
        losses = []
        for start in range(0, len(order), training_config.batch_size):
            batch = [train_pairs[i] for i in order[start : start + training_config.batch_size]]
            with Tape() as tape:
                p_hat, cosines = _pair_outputs(config, model, batch)
                if config.has_head:
                    targets = np.array([sparse_target_distribution(
                        rescale_to_bins(p.score, p.score_range, config.bins), config.bins)
                        for p in batch])
                    loss = mean_over_axis(ft_loss(targets, p_hat, config.loss_kind), axis=0)
                else:
                    targets = [normalize_score(p.score, p.score_range, config.norm_range)
                               for p in batch]
                    loss = dnt_loss(cosines, targets, norm_range=config.norm_range)
            reference_adam_step(backward(tape, loss), state, training_config.learning_rate)
            losses.append(float(loss.values))
        history.train_losses.append(float(np.mean(losses)))
        predictions = []
        for start in range(0, len(dev_pairs), SCORE_SLICE):
            predictions.extend(_pair_outputs(config, model,
                                             dev_pairs[start : start + SCORE_SLICE])[1].values)
        try:
            dev_corr = correlation(metric, [float(y) for y in predictions],
                                   [p.score for p in dev_pairs])
        except NumericError:
            dev_corr = UNDEFINED_CORRELATION
        history.dev_correlations.append(dev_corr)
        if dev_corr > history.best_dev_correlation:
            history.best_dev_correlation, history.best_epoch = dev_corr, epoch
            best_values = {t: t.values.copy() for t in params}
            since_best = 0
        else:
            since_best += 1
            if since_best >= training_config.patience:
                break
    for t, values in best_values.items():
        t.values = values
    return model, history


def reference_grid_search(model_factory, transfer_config, train_split, dev_split, grid):
    """``trainer.grid_search`` as one ``train`` call per cell, on a fresh model each.

    Cells run in ``grid.cells()`` order, and a later cell replaces the
    running winner only when it is better by more than ``TIE_TOLERANCE``.
    """
    cells, best = [], None
    for cfg in grid.cells():
        try:
            model, history = train(model_factory(), transfer_config, train_split, dev_split, cfg)
        except NumericError as exc:
            cells.append(CellResult(cfg, UNDEFINED_CORRELATION, -1, 0, error=str(exc)))
            continue
        cells.append(CellResult(cfg, history.best_dev_correlation, history.best_epoch,
                                history.epochs_run))
        if best is None or cells[-1].dev_correlation > best[0].dev_correlation + TIE_TOLERANCE:
            best = (cells[-1], model, history)
    if best is None:
        raise NumericError("all grid cells failed: " + "; ".join(c.error for c in cells))
    return GridSearchResult(best[0].config, best[1], best[2], cells)


def reference_transfer_config(setting, loss_kind=None, freeze_wem=True, norm_range=None,
                              bins=None):
    """Raise ``ContractError`` for a transfer config the per-setting rules
    refuse; return the parameter sets an accepted one trains."""
    if setting not in ("UE", "FT", "NT", "DNT"):
        raise ContractError(f"unknown transfer setting {setting!r}")
    if setting in ("FT", "NT"):
        if loss_kind not in ("MSE", "KL"):
            raise ContractError(f"{setting} requires loss_kind MSE or KL")
        if bins is None or bins < 2:
            raise ContractError(f"{setting} requires bins >= 2")
        if norm_range is not None:
            raise ContractError(f"{setting} does not use norm_range")
    if setting == "DNT":
        if loss_kind is not None or bins is not None:
            raise ContractError("DNT has a fixed loss; loss_kind/bins do not apply")
        if tuple(norm_range or ()) not in ((0.0, 1.0), (-1.0, 1.0)):
            raise ContractError("DNT requires norm_range (0,1) or (-1,1)")
    if setting == "UE":
        if loss_kind is not None or bins is not None or norm_range is not None:
            raise ContractError("UE admits no training-related fields")
    if setting in ("FT", "UE") and not freeze_wem:
        raise ContractError(f"{setting} always freezes the embedding matrix")
    if setting == "UE":
        return frozenset()
    if setting == "FT":
        return frozenset({"cla"})
    base = {"enc", "cla"} if setting == "NT" else {"enc"}
    if not freeze_wem:
        base.add("wem")
    return frozenset(base)
