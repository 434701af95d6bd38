"""One workload's measured rounds, in a fresh process started by ``run.py``.

Each round does what ``simxfer run`` / ``simxfer grid`` do, through the
package's public functions (embeddings, data, encoders, transfer,
trainer): set up (load the vector and pair files, split, build the
model), train or grid-search, and score the test split.  It then scores
a larger scoring set with the trained model, one timed ``evaluate_split``
call per chunk, and checks every output against the numpy recomputation
in ``oracle.py``.  Only this file's own clock reads time the phases;
with ``--trace 1`` the first round runs untraced and the rest run under
``tracing.Tracer``.

Usage (normally through run.py):
  python3 perfbench/experiment.py --workload NAME --inputs DIR --seed N \
      --seconds S --trace 0|1 --result FILE [--trace-file FILE] [--scale K]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import simxfer  # noqa: E402
from simxfer import data, embeddings, encoders, trainer, transfer  # noqa: E402
from simxfer.autodiff import Tensor  # noqa: E402

import oracle  # noqa: E402
from inputs import SCORE_RANGE, WORKLOADS, InputFiles, Workload, read_pairs  # noqa: E402
from tracing import Tracer  # noqa: E402

METRIC = "pearson"
BINS = 5
CLASSIFIER_HIDDEN = 50
# A round scores the scoring set with one timed evaluate_split call per chunk,
# so score_pairs_per_s is a median over many short samples, not a few long ones.
SCORE_CHUNKS = 8


@dataclass
class SetUp:
    """What set-up hands to training: splits, the model factory and one model."""

    emb: object
    train_split: object
    dev_split: object
    test_pairs: list
    transfer_config: object
    model_factory: object
    model: object


@dataclass
class Round:
    """One round's timings and counts, and what its checks need."""

    setup_s: list[float]
    experiment_s: float
    train_s: float
    train_pair_steps: int
    attempted: int
    failed: int
    test_corr: float
    scoring: "ScorePass"
    setup: SetUp | None = None
    model: object = None
    chosen: tuple | None = None
    cells: list = field(default_factory=list)
    initial: dict = field(default_factory=dict)
    untrained_ue: np.ndarray | None = None
    unk_digest: str = ""
    oracle_test: np.ndarray | None = None
    oracle_score: np.ndarray | None = None
    trained_digest: str = ""


@dataclass
class ScorePass:
    """One pass over the scoring set: seconds and correlation of each chunk."""

    seconds: list[float]
    corrs: list[float]


def chunk_bounds(n: int) -> list[tuple[int, int]]:
    """``SCORE_CHUNKS`` contiguous (start, end) slices of ``n`` scoring pairs,
    as equal as they come."""
    edges = [round(k * n / SCORE_CHUNKS) for k in range(SCORE_CHUNKS + 1)]
    return list(zip(edges, edges[1:]))


def transfer_config(w: Workload):
    if w.setting in ("FT", "NT"):
        return transfer.TransferConfig(w.setting, loss_kind=w.loss, freeze_wem=w.freeze_wem,
                                       bins=BINS)
    return transfer.TransferConfig(w.setting, freeze_wem=w.freeze_wem, norm_range=(0.0, 1.0))


def set_up(w: Workload, files: InputFiles, seed: int) -> SetUp:
    """Load the vector and pair files, split, and build the model, as ``simxfer run`` does."""
    emb = embeddings.load_embeddings(files.vectors, w.dim)
    train_all = data.load_generic_tsv(files.train, *SCORE_RANGE).pairs
    test_pairs = data.load_generic_tsv(files.test, *SCORE_RANGE).pairs
    train_pairs, dev_pairs = data.split_dataset(train_all, w.dev_fraction, seed)
    enc_config = encoders.EncoderConfig(w.encoder, w.dim, w.hidden, seed=seed + 1)
    xfer = transfer_config(w)
    initial = emb.embedding.matrix.values

    def model_factory():
        classifier = None
        if w.setting in ("FT", "NT"):
            classifier = transfer.init_classifier(enc_config.output_dim, BINS,
                                                  CLASSIFIER_HIDDEN, seed=seed + 2)
        model = transfer.SimilarityModel(
            emb.vocabulary,
            embeddings.EmbeddingMatrix(Tensor(initial.copy(), name="wem.matrix"), w.dim),
            enc_config, encoders.init_encoder(enc_config), classifier)
        model.apply_freeze_policy(xfer)
        return model

    return SetUp(emb, data.DatasetSplit("train", train_pairs, METRIC),
                 data.DatasetSplit("dev", dev_pairs, METRIC), test_pairs, xfer,
                 model_factory, model_factory())


def _values(model) -> dict[str, np.ndarray]:
    return {name: t.values for name, t in model.named_tensors().items()}


def _cells(w: Workload) -> int:
    return len(w.batch_sizes) * len(w.learning_rates) * len(w.epoch_budgets)


def planned_batches(w: Workload, n_train: int) -> int:
    return sum(math.ceil(n_train / b) * e * len(w.learning_rates)
               for b in w.batch_sizes for e in w.epoch_budgets)


@contextlib.contextmanager
def phase(tracer: Tracer | None, name: str, out: list[float]):
    """Time one phase with the benchmark's clock; record it as a span when traced."""
    span = tracer.begin(f"bench.{name}") if tracer else None
    if tracer:
        tracer.in_training = name == "train"
    start = time.perf_counter()
    try:
        yield
    finally:
        out.append(time.perf_counter() - start)
        if tracer:
            tracer.in_training = False
            tracer.end(span)


def measure_round(w: Workload, files: InputFiles, seed: int, chunks: list[list],
                  refs: dict, tracer: Tracer | None) -> Round:
    """Set up (repeated), train, score the test split, then score the scoring set."""
    setup_s: list[float] = []
    setup = None
    for _ in range(w.setup_repeats):
        setup = None  # drop the previous set-up before timing the next one
        gc.collect()
        with phase(tracer, "setup", setup_s):
            setup = set_up(w, files, seed)
    model = setup.model
    initial = {name: v.copy() for name, v in _values(model).items()
               if name.split(".")[0] in w.frozen}
    untrained_ue = oracle.predictions(_values(model), model.vocabulary.index, w.encoder, "UE",
                                      refs["test"])
    unk_digest = oracle.row_digest(model.embedding.matrix.values[oracle.UNK_INDEX])
    n_train = len(setup.train_split.pairs)

    gc.collect()
    train_s: list[float] = []
    chosen = None
    with phase(tracer, "train", train_s):
        if w.grid:
            grid = trainer.HyperGrid(w.batch_sizes, w.learning_rates, w.epoch_budgets,
                                     patience=w.patience, seed=seed)
            result = trainer.grid_search(setup.model_factory, setup.transfer_config,
                                         setup.train_split, setup.dev_split, grid)
            model, cells = result.best_model, result.cells
            chosen = (result.best_config.learning_rate, result.best_config.batch_size,
                      result.best_config.max_epochs)
        else:
            config = trainer.TrainingConfig(w.batch_sizes[0], w.learning_rates[0],
                                            w.epoch_budgets[0], w.patience, seed)
            model, history = trainer.train(model, setup.transfer_config, setup.train_split,
                                           setup.dev_split, config)
            cells = [trainer.CellResult(config, history.best_dev_correlation,
                                        history.best_epoch, history.epochs_run)]
    test_s: list[float] = []
    with phase(tracer, "test", test_s):
        test_corr = trainer.evaluate_split(model, setup.transfer_config, setup.test_pairs, METRIC)
    scoring = score_pass(model, setup.transfer_config, chunks, tracer)

    failed = sum(1 + math.ceil(n_train / c.config.batch_size) * c.config.max_epochs
                 for c in cells if c.error is not None)  # cells ended by NumericError
    return Round(
        setup_s=setup_s, experiment_s=setup_s[-1] + train_s[0] + test_s[0], train_s=train_s[0],
        train_pair_steps=sum(n_train * c.epochs_run for c in cells),
        attempted=(planned_batches(w, n_train) + _cells(w) + len(setup.test_pairs)
                   + sum(len(chunk) for chunk in chunks)),
        failed=failed, test_corr=test_corr, scoring=scoring, setup=setup, model=model,
        chosen=chosen, cells=cells, initial=initial, untrained_ue=untrained_ue,
        unk_digest=unk_digest)


def score_pass(model, xfer, chunks: list[list], tracer: Tracer | None) -> ScorePass:
    """Score every chunk of the scoring set with ``evaluate_split``, timing each call."""
    gc.collect()
    seconds: list[float] = []
    corrs = []
    for chunk in chunks:
        with phase(tracer, "score", seconds):
            corrs.append(trainer.evaluate_split(model, xfer, chunk, METRIC))
    return ScorePass(seconds, corrs)


def load_references(files: InputFiles) -> dict:
    """The benchmark's own reading of the inputs, which the checks compare against."""
    return {"train": read_pairs(files.train), "test": read_pairs(files.test),
            "score": read_pairs(files.score),
            "digests": json.loads(files.row_digests.read_text(encoding="utf-8"))}


def check_round(w: Workload, rnd: Round, first: Round | None, refs: dict) -> None:
    """The first round gets every check that needs the trained model (the
    correlation checks come after the peak memory is read).  Training is
    deterministic per seed, so later rounds must reproduce the first bitwise."""
    model, setup = rnd.model, rnd.setup
    trained = _values(model)
    rnd.trained_digest = oracle.tensors_digest(trained)
    if first is not None:
        if ((rnd.trained_digest, rnd.test_corr, rnd.scoring.corrs, rnd.chosen)
                != (first.trained_digest, first.test_corr, first.scoring.corrs, first.chosen)):
            raise oracle.CheckFailed("a later round did not reproduce the first round's "
                                     "trained tensors, correlations and chosen cell")
        return
    index = model.vocabulary.index
    rnd.oracle_test = oracle.predictions(trained, index, w.encoder, w.setting, refs["test"])
    program = [transfer.predict(setup.transfer_config, model, p) for p in setup.test_pairs]
    oracle.check_predictions(program, rnd.oracle_test, "test split")
    rnd.oracle_score = oracle.predictions(trained, index, w.encoder, w.setting, refs["score"])
    oracle.check_frozen(rnd.initial, trained)
    if rnd.chosen is not None:
        oracle.check_grid_choice(
            [(c.config.learning_rate, c.config.batch_size, c.config.max_epochs,
              c.dev_correlation) for c in rnd.cells if c.error is None], rnd.chosen)
    if not w.freeze_wem:
        occurring = {tok for ref in (refs["train"], refs["test"]) for p in ref
                     for tok in (*p[1], *p[2])}
        oracle.check_rows(trained["wem.matrix"], index, refs["digests"], rnd.unk_digest,
                          occurring)


def check_correlations(rnd: Round, bounds: list[tuple[int, int]], refs: dict) -> None:
    """The test and scoring-chunk correlations against scipy's pearsonr of the
    recomputed predictions, and the test correlation against the untrained one."""
    gold_test = [p[0] for p in refs["test"]]
    oracle.check_correlation(rnd.test_corr, rnd.oracle_test, gold_test, "test split")
    gold_score = [p[0] for p in refs["score"]]
    for k, (lo, hi) in enumerate(bounds):
        oracle.check_correlation(rnd.scoring.corrs[k], rnd.oracle_score[lo:hi], gold_score[lo:hi],
                                 f"scoring chunk {k}")
    untrained = float(np.corrcoef(rnd.untrained_ue, gold_test)[0, 1])
    oracle.check_beats_untrained(rnd.test_corr, untrained, "test split")


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "src_lines": src_lines,
        "simxfer": getattr(simxfer, "__version__", "?"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--scale", type=int, default=1, help="divide input sizes (smoke runs)")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload].scaled(args.scale) if args.scale > 1 else WORKLOADS[args.workload]
    files = InputFiles(args.inputs)
    refs = load_references(files)
    score_pairs = data.load_generic_tsv(files.score, *SCORE_RANGE).pairs
    bounds = chunk_bounds(len(score_pairs))
    chunks = [score_pairs[lo:hi] for lo, hi in bounds]

    tracer = Tracer() if args.trace else None
    rounds: list[Round] = []
    traced_rounds: list[int] = []
    failures: list[str] = []
    started = time.perf_counter()
    # Rounds run while the next one, at the mean length so far, fits in the
    # measuring time.  A traced run makes two rounds, an untraced one as the
    # reference for the tracing overhead and a traced one: a round's spans
    # run to hundreds of thousands, and one round's are enough.
    while (not rounds or (tracer and not traced_rounds) or (
            not tracer
            and (time.perf_counter() - started) * (len(rounds) + 1) / len(rounds) <= args.seconds)):
        traced = tracer is not None and len(rounds) > 0
        if traced:
            tracer.round = len(rounds)
            traced_rounds.append(len(rounds))
            tracer.install(simxfer)
        try:
            rnd = measure_round(w, files, args.seed, chunks, refs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        try:
            check_round(w, rnd, rounds[0] if rounds else None, refs)
        except oracle.CheckFailed as exc:
            failures.append(f"round {len(rounds)}: {exc}")
        rnd.setup = rnd.model = None  # free the model before the next round
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if rounds[0].oracle_score is not None:  # None: the first round's checks already failed
        try:
            check_correlations(rounds[0], bounds, refs)
        except oracle.CheckFailed as exc:
            failures.append(f"round 0: {exc}")
    for failure in failures:
        sys.stderr.write(f"check failed: {failure}\n")

    untraced = [r for i, r in enumerate(rounds) if i not in traced_rounds]
    end_to_end = {
        "setup_s": statistics.median(s for r in untraced for s in r.setup_s),
        "experiment_s": statistics.median(r.experiment_s for r in untraced),
        "train_pairs_per_s": statistics.median(r.train_pair_steps / r.train_s for r in untraced),
        "score_pairs_per_s": statistics.median(len(chunk) / s for r in untraced
                                               for chunk, s in zip(chunks, r.scoring.seconds)),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "correct": not failures, "check_failures": failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "end_to_end": end_to_end,
        "per_round": [{"traced": i in traced_rounds, "setup_s": statistics.median(r.setup_s),
                       "experiment_s": r.experiment_s, "train_s": r.train_s,
                       "score_chunk_s": r.scoring.seconds} for i, r in enumerate(rounds)],
        "environment": environment(),
    }
    if tracer is not None:
        traced_exp = statistics.median(rounds[i].experiment_s for i in traced_rounds)
        overhead = {"traced_experiment_s": traced_exp,
                    "untraced_experiment_s": end_to_end["experiment_s"],
                    "overhead_s": traced_exp - end_to_end["experiment_s"]}
        result["per_layer"] = tracer.metrics(traced_rounds, w.setup_repeats)
        result["trace_overhead"] = overhead
        result["absent"] = tracer.absent
        if args.trace_file:
            tracer.write(args.trace_file, result["per_layer"], overhead)
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
