"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (written straight to the terminal so it shows even under
pytest's output capture)."""

import math

import numpy as np
import pytest

from conftest import FIXTURES_DIR, terminal_line
from oracles import brute_force_pearson, brute_force_spearman
from synthetic import as_split, make_model, overlap_pairs, random_pairs

from simxfer import autodiff as ad
from simxfer.autodiff import Tensor, cosine, grad_check
from simxfer.cli import main as cli_main
from simxfer.cli import parse_report
from simxfer.data import DatasetSplit, load_generic_tsv, split_dataset
from simxfer.embeddings import load_embeddings
from simxfer.encoders import EncoderConfig, init_encoder
from simxfer.errors import NumericError
from simxfer.metrics import pearson, spearman
from simxfer.trainer import TrainingConfig, batch_loss, evaluate_split, train
from simxfer.transfer import (
    SimilarityModel,
    TransferConfig,
    normalize_score,
    sparse_target_distribution,
    trainable_parameter_sets,
)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}"
    terminal_line(line)
    assert ok, line


# --- 1. gradient fidelity ----------------------------------------------------


def _probe(out):
    flat = out if out.values.ndim <= 1 else ad.mean_over_axis(out, axis=0)
    if flat.values.ndim == 0:
        return flat
    weights = Tensor(np.cos(np.arange(flat.shape[0])) + 0.5)
    return ad.matmul(weights, flat)


def _primitive_checks(rng):
    vec = lambda n=5: Tensor(rng.normal(size=n), trainable=True)  # noqa: E731
    mat = lambda r, c: Tensor(rng.normal(size=(r, c)), trainable=True)  # noqa: E731
    cases = {}
    a, b = vec(), vec()
    cases["add"] = (lambda: _probe(ad.add(a, b)), [a, b])
    c, d = vec(), vec()
    cases["subtract"] = (lambda: _probe(ad.subtract(c, d)), [c, d])
    e, f = vec(), vec()
    cases["elementwise_multiply"] = (lambda: _probe(ad.elementwise_multiply(e, f)), [e, f])
    g = vec()
    cases["absolute"] = (lambda: _probe(ad.absolute(g)), [g])
    h = vec()
    cases["sigmoid"] = (lambda: _probe(ad.sigmoid(h)), [h])
    i = vec()
    cases["tanh"] = (lambda: _probe(ad.tanh(i)), [i])
    j = vec()
    cases["softmax"] = (lambda: _probe(ad.softmax(j)), [j])
    k = vec()
    cases["scale"] = (lambda: _probe(ad.scale(k, -1.7)), [k])
    m1, m2 = mat(3, 4), mat(4, 2)
    cases["matmul"] = (lambda: _probe(ad.matmul(m1, m2)), [m1, m2])
    n1, n2 = vec(3), vec(2)
    cases["concat"] = (lambda: _probe(ad.concat((n1, n2))), [n1, n2])
    s1, s2 = vec(4), vec(4)
    cases["stack"] = (lambda: _probe(ad.stack((s1, s2))), [s1, s2])
    r1 = mat(3, 4)
    cases["select_row"] = (lambda: _probe(ad.select_row(r1, 2)), [r1])
    l1 = mat(6, 3)
    cases["lookup"] = (lambda: _probe(ad.lookup_rows(l1, [1, 4, 4, 0])), [l1])
    p1 = mat(3, 4)
    cases["mean_over_axis"] = (lambda: _probe(ad.mean_over_axis(p1, axis=0)), [p1])
    q1 = mat(3, 4)
    cases["max_over_axis"] = (lambda: _probe(ad.max_over_axis(q1, axis=0)), [q1])
    w1 = Tensor(np.abs(rng.normal(size=5)) + 0.5, trainable=True)
    cases["log"] = (lambda: _probe(ad.log(w1)), [w1])
    u1, u2 = vec(), vec()
    cases["cosine"] = (lambda: cosine(u1, u2), [u1, u2])
    p2 = Tensor(rng.normal(size=(3, 3, 2)), trainable=True)
    cases["mean_over_axis lengths"] = (
        lambda: _probe(ad.mean_over_axis(p2, axis=0, lengths=[3, 1, 2])), [p2])
    q2 = Tensor(rng.normal(size=(3, 3, 2)), trainable=True)
    cases["max_over_axis lengths"] = (
        lambda: _probe(ad.max_over_axis(q2, axis=0, lengths=[3, 1, 2])), [q2])
    x1 = mat(6, 3)  # three packed sentences of 3, 2 and 1 tokens
    lstm = [mat(*shape) if len(shape) == 2 else vec(*shape)
            for shape in ([(2, 3)] * 4 + [(2, 2)] * 4 + [(2,)] * 4) * 2]
    cases["bilstm"] = (
        lambda: _probe(ad.mean_over_axis(ad.bilstm(x1, [3, 2, 1], lstm[:12], lstm[12:]))),
        [x1, *lstm])
    return cases


def _grad_model(bins=None):
    # a fixed, verified-clean test point: sentence embeddings stay away from
    # the |h_L - h_R| kink at the finite-difference scale, and embedding
    # scale 3x keeps every recurrent-gate gradient well above the 1e-8
    # relative-error denominator floor
    model = make_model(kind="bilstm-avg", hidden=8, dim=4, n_tokens=6,
                       bins=bins, hidden_width=4, seed=78)
    model.embedding.matrix.values *= 3.0
    return model


def _grad_pairs():
    rng = np.random.default_rng(1002)

    def sentence():
        return " ".join(f"tok{rng.integers(0, 6)}" for _ in range(6))

    from simxfer.data import ScoredPair

    return [ScoredPair(sentence(), sentence(), float(rng.uniform(0, 5)), (0.0, 5.0))
            for _ in range(2)]


# Step for the deep end-to-end checks.  At 1e-5 the oracle's own rounding
# noise (~1e-11 absolute) exceeds the 1e-4 band for coordinates whose true
# gradient sits at the 1e-8 denominator floor; 1e-4 is on the accuracy
# plateau of the central-difference error curve for all three losses.
END_TO_END_STEP = 1e-4


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for name, (fn, params) in _primitive_checks(rng).items():
        for _ in range(5):
            for p in params:
                p.values = rng.normal(size=p.values.shape)
                if name == "log":
                    p.values = np.abs(p.values) + 0.5
            err = grad_check(fn, params, step=1e-5)
            worst = max(worst, err)
            assert err < 1e-4, f"primitive {name}: {err}"

    pairs = _grad_pairs()

    dnt = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=False)
    model = _grad_model()
    model.apply_freeze_policy(dnt)
    params = [model.embedding.matrix, *model.encoder_params.values()]
    err_dnt = grad_check(lambda: batch_loss(model, dnt, pairs), params, step=END_TO_END_STEP)
    worst = max(worst, err_dnt)

    errs_eq2 = {}
    for kind in ("MSE", "KL"):
        nt = TransferConfig("NT", loss_kind=kind, bins=5, freeze_wem=False)
        model = _grad_model(bins=5)
        model.apply_freeze_policy(nt)
        params = [model.embedding.matrix, *model.encoder_params.values(),
                  *model.classifier.values()]
        errs_eq2[kind] = grad_check(lambda: batch_loss(model, nt, pairs),
                                    params, step=END_TO_END_STEP)
        worst = max(worst, errs_eq2[kind])

    ok = worst < 1e-4 and err_dnt < 1e-4 and all(v < 1e-4 for v in errs_eq2.values())
    report(1, ok, f"all primitives and end-to-end losses match central differences "
                  f"(worst rel err {worst:.2e}; squared-cosine loss {err_dnt:.2e}, "
                  f"MSE {errs_eq2['MSE']:.2e}, KL {errs_eq2['KL']:.2e}; tol 1e-4)")


# --- 2. freeze-policy conservation -------------------------------------------


FREEZE_CONFIGS = [
    ("UE", TransferConfig("UE")),
    ("FT", TransferConfig("FT", loss_kind="MSE", bins=5)),
    ("NT wem-frozen", TransferConfig("NT", loss_kind="MSE", bins=5, freeze_wem=True)),
    ("NT wem-updated", TransferConfig("NT", loss_kind="KL", bins=5, freeze_wem=False)),
    ("DNT wem-frozen", TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=True)),
    ("DNT wem-updated", TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=False)),
]


def test_criterion_2_freeze_policy_conservation():
    pairs = random_pairs(50, n_tokens=20, seed=2001)
    split = as_split("train", pairs)
    dev = as_split("dev", pairs[:10])
    outcomes = []
    for label, config in FREEZE_CONFIGS:
        model = make_model(kind="bilstm-avg", hidden=4, dim=4, n_tokens=20,
                           bins=5, hidden_width=4, seed=2002)
        before = model.snapshot()
        if config.setting == "UE":
            model.apply_freeze_policy(config)
            evaluate_split(model, config, pairs[:10], "pearson")
        else:
            cfg = TrainingConfig(batch_size=16, learning_rate=0.01, max_epochs=5,
                                 patience=5, seed=3)
            model, _ = train(model, config, split, dev, cfg)
        after = model.snapshot()
        trainable = trainable_parameter_sets(config)
        for set_name, tensors in model.parameter_sets().items():
            changed = any(not np.array_equal(before[t.name], after[t.name]) for t in tensors)
            if set_name in trainable:
                assert changed, f"{label}: {set_name} should have moved"
            else:
                assert not changed, f"{label}: {set_name} must stay bitwise frozen"
        outcomes.append(label)
    report(2, len(outcomes) == 6,
           f"freeze policy conserved across {len(outcomes)} configurations "
           f"({', '.join(outcomes)}): frozen sets bitwise unchanged, trained sets moved")


# --- 3. target-distribution identity ------------------------------------------


def test_criterion_3_sparse_target_identity():
    rng = np.random.default_rng(3001)
    r = np.arange(1, 6, dtype=np.float64)
    worst_sum = 0.0
    worst_dot = 0.0
    for _ in range(1000):
        y = float(rng.uniform(1.0, 5.0))
        p = sparse_target_distribution(y, 5)
        worst_sum = max(worst_sum, abs(p.sum() - 1.0))
        worst_dot = max(worst_dot, abs(float(np.dot(r, p)) - y))
    ok = worst_sum < 1e-9 and worst_dot < 1e-9
    report(3, ok, f"1000 random targets: |sum(p)-1| <= {worst_sum:.2e}, "
                  f"|r.p - y| <= {worst_dot:.2e} (tol 1e-9)")


# --- 4. metric oracle equivalence ----------------------------------------------


def test_criterion_4_metric_oracle_equivalence():
    rng = np.random.default_rng(4001)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 501))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if rng.uniform() < 0.5:  # tied inputs
            x = np.round(x, 1)
            y = np.round(y, 1)
        try:
            dp = abs(pearson(x, y) - brute_force_pearson(x.tolist(), y.tolist()))
            ds = abs(spearman(x, y) - brute_force_spearman(x, y))
        except NumericError:
            continue
        worst = max(worst, dp, ds)
        checked += 1
    assert worst < 1e-10
    no_tie = abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8)
    tie = abs(spearman([1, 1, 2], [1, 2, 3]) - 1.5 / math.sqrt(3.0))
    ok = worst < 1e-10 and no_tie < 1e-12 and tie < 1e-12
    report(4, ok, f"1000 random inputs (n up to 500, with ties) match brute-force "
                  f"oracles within {worst:.2e} (tol 1e-10); worked values 0.8 and "
                  f"0.866025 reproduce")


# --- 5. overfit capability -------------------------------------------------------


def test_criterion_5_overfit_capability():
    dnt = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=False)
    model = make_model(kind="bilstm-avg", hidden=16, dim=8, n_tokens=24, seed=100)
    pairs = overlap_pairs(50, n_tokens=24, seed=101)
    split = as_split("train", pairs)
    cfg = TrainingConfig(batch_size=25, learning_rate=0.01, max_epochs=80,
                         patience=80, seed=9)
    model, history = train(model, dnt, split, split, cfg)
    train_pearson = evaluate_split(model, dnt, pairs, "pearson")
    loss_ratio = history.train_losses[history.best_epoch] / history.train_losses[0]
    ok = train_pearson > 0.95 and loss_ratio < 0.10 and history.epochs_run <= 200
    report(5, ok, f"squared-cosine training overfits the separable set: train "
                  f"Pearson {train_pearson:.4f} (> 0.95) after {history.epochs_run} "
                  f"epochs; best-epoch loss at {loss_ratio:.1%} of initial (< 10%)")


# --- 6. directional sanity on the bundled fixture --------------------------------


def test_criterion_6_training_beats_untrained_baseline():
    emb = load_embeddings(FIXTURES_DIR / "wordvecs_50d.txt", 50)
    pairs = load_generic_tsv(FIXTURES_DIR / "activity_pairs.tsv", 0, 5).pairs
    assert len(pairs) == 200
    train_pairs, dev_pairs = split_dataset(pairs, 0.15, seed=42)
    config = EncoderConfig("word-average", input_dim=50)
    model = SimilarityModel(emb.vocabulary, emb.embedding, config, init_encoder(config))
    dnt = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=False)
    baseline = evaluate_split(model, TransferConfig("UE"), train_pairs, "pearson")
    cfg = TrainingConfig(batch_size=32, learning_rate=0.01, max_epochs=60,
                         patience=8, seed=42)
    model, _ = train(model, dnt, DatasetSplit("train", train_pairs, "pearson"),
                     DatasetSplit("dev", dev_pairs, "pearson"), cfg)
    trained = evaluate_split(model, dnt, train_pairs, "pearson")
    report(6, trained >= baseline,
           f"trained cosine regression reaches train-split Pearson {trained:.4f} "
           f">= untrained baseline {baseline:.4f} on the bundled 200-pair fixture")


# --- 7. normalization equivalence class -------------------------------------------


def test_criterion_7_normalization_equivalence():
    rng = np.random.default_rng(7001)
    worst_pearson = 0.0
    worst_spearman = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 60))
        predictions = rng.normal(size=n)
        gold = rng.uniform(0.0, 5.0, size=n)
        if np.ptp(gold) < 1e-6 or np.ptp(predictions) < 1e-6:
            continue
        base_p = pearson(predictions, gold)
        base_s = spearman(predictions, gold)
        for target in ((0.0, 1.0), (-1.0, 1.0)):
            normalized = [normalize_score(float(v), (0.0, 5.0), target) for v in gold]
            worst_pearson = max(worst_pearson, abs(pearson(predictions, normalized) - base_p))
        for transform in (np.exp, lambda v: v ** 3, lambda v: np.arctan(v) * 10):
            worst_spearman = max(worst_spearman,
                                 abs(spearman(predictions, transform(gold)) - base_s))
    ok = worst_pearson < 1e-12 and worst_spearman < 1e-12
    report(7, ok, f"Pearson invariant under score normalization to [0,1] and [-1,1] "
                  f"(max drift {worst_pearson:.2e}, tol 1e-12); Spearman invariant "
                  f"under increasing transforms (max drift {worst_spearman:.2e})")


# --- 8. early-stopping contract ----------------------------------------------------


def test_criterion_8_early_stopping_contract():
    model = make_model(kind="word-average", dim=4, seed=8001)
    train_pairs = overlap_pairs(30, seed=8002)
    dev_pairs = [type(p)(p.sentence_a, p.sentence_b, 5.0 - p.score, p.score_range)
                 for p in train_pairs]
    dnt = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=False)
    cfg = TrainingConfig(batch_size=8, learning_rate=0.01, max_epochs=30, patience=4, seed=3)
    model, history = train(model, dnt, as_split("train", train_pairs),
                           as_split("dev", dev_pairs), cfg)
    peaked_early = history.best_epoch < history.epochs_run - 1 < cfg.max_epochs - 1
    returned = evaluate_split(model, dnt, dev_pairs, "pearson")
    ok = (peaked_early
          and history.best_dev_correlation == max(history.dev_correlations)
          and history.best_dev_correlation >= history.dev_correlations[-1]
          and abs(returned - history.best_dev_correlation) < 1e-9)
    report(8, ok, f"dev peaked at epoch {history.best_epoch} of {history.epochs_run}; "
                  f"returned checkpoint scores {returned:.4f} = per-epoch max, "
                  f">= final epoch {history.dev_correlations[-1]:.4f}")


# --- 9. end-to-end grid determinism -------------------------------------------------


def test_criterion_9_grid_determinism(tmp_path):
    spec_text = "\n".join([
        "name = activity",
        "data.format = generic",
        f"data.train = {FIXTURES_DIR / 'activity_pairs.tsv'}",
        f"data.test = {FIXTURES_DIR / 'activity_pairs_test.tsv'}",
        "data.dev_fraction = 0.15",
        "data.score_lo = 0",
        "data.score_hi = 5",
        "metric = pearson",
        f"embeddings.path = {FIXTURES_DIR / 'wordvecs_50d.txt'}",
        "embeddings.dim = 50",
        "encoder.kind = word-average",
        "transfer.setting = DNT",
        "transfer.freeze_wem = false",
        "transfer.norm_lo = 0",
        "transfer.norm_hi = 1",
        "seed = 7",
    ]) + "\n"
    spec = tmp_path / "grid.spec"
    spec.write_text(spec_text, encoding="utf-8")
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert cli_main(["grid", "--spec", str(spec), "--out", str(out_a)]) == 0
    assert cli_main(["grid", "--spec", str(spec), "--out", str(out_b)]) == 0
    first, second = out_a.read_bytes(), out_b.read_bytes()
    cells = len(parse_report(out_a).cells)
    ok = first == second and cells == 24
    report(9, ok, f"two grid invocations over the default {cells}-cell grid "
                  f"produced byte-identical reports ({len(first)} bytes)")
