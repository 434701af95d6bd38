"""Tests of the benchmark itself.

* a smoke run of every workload, traced and untraced, at a reduced size
  (fewer unused vector rows, a smaller scoring set, fewer set-up repeats)
* negative tests: each correctness check rejects a deliberately perturbed
  trained parameter, prediction or reported result

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import experiment  # puts the package source on sys.path
import oracle
from inputs import WORKLOADS, generate
from run import END_TO_END_UNITS
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
SMOKE_SCALE = 8
SEED = 5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--scale", str(SMOKE_SCALE)],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    units = PER_LAYER if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        assert (HERE / "_results" / f"{workload}-seed{SEED}.trace.jsonl").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def trained(request, tmp_path_factory):
    """One measured round of a reduced workload, with the program's test predictions."""
    w = WORKLOADS[request.param].scaled(SMOKE_SCALE)
    files = generate(w, SEED, tmp_path_factory.mktemp(w.name))
    refs = experiment.load_references(files)
    score_pairs = experiment.data.load_generic_tsv(files.score, 0.0, 5.0).pairs
    bounds = experiment.chunk_bounds(len(score_pairs))
    chunks = [score_pairs[lo:hi] for lo, hi in bounds]
    rnd = experiment.measure_round(w, files, SEED, chunks, refs, tracer=None)
    experiment.check_round(w, rnd, None, refs)
    experiment.check_correlations(rnd, bounds, refs)
    program = np.array([experiment.transfer.predict(rnd.setup.transfer_config, rnd.model, p)
                        for p in rnd.setup.test_pairs])
    return w, rnd, refs, program, bounds


def _oracle_test(w, values, rnd, refs):
    return oracle.predictions(values, rnd.model.vocabulary.index, w.encoder, w.setting,
                              refs["test"])


TRAINED_PARAMETER = {"bilstm_dnt": "enc.fw.w_input", "ft_grid": "cla.w_p",
                     "bigvocab_wem": "wem.matrix"}


def test_prediction_check_rejects_perturbed_parameter(trained):
    w, rnd, refs, program, bounds = trained
    values = {k: v.copy() for k, v in experiment._values(rnd.model).items()}
    oracle.check_predictions(program, _oracle_test(w, values, rnd, refs), "test split")
    name = TRAINED_PARAMETER[w.name]
    row = rnd.model.vocabulary.index[refs["test"][0][1][0]] if name == "wem.matrix" else 0
    values[name][row] += 1e-3
    with pytest.raises(oracle.CheckFailed):
        oracle.check_predictions(program, _oracle_test(w, values, rnd, refs), "test split")


def test_prediction_check_rejects_perturbed_prediction(trained):
    w, rnd, refs, program, bounds = trained
    perturbed = program.copy()
    perturbed[3] *= 1 + 1e-6
    with pytest.raises(oracle.CheckFailed):
        oracle.check_predictions(perturbed, rnd.oracle_test, "test split")


def test_correlation_check_rejects_perturbed_correlation(trained):
    w, rnd, refs, program, bounds = trained
    gold = [p[0] for p in refs["test"]]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_correlation(rnd.test_corr + 1e-6, rnd.oracle_test, gold, "test split")


def test_correlation_check_rejects_perturbed_scoring_chunk(trained):
    w, rnd, refs, program, bounds = trained
    corrs = [*rnd.scoring.corrs[:-1], rnd.scoring.corrs[-1] + 1e-6]
    perturbed = replace(rnd, scoring=replace(rnd.scoring, corrs=corrs))
    with pytest.raises(oracle.CheckFailed, match="scoring chunk"):
        experiment.check_correlations(perturbed, bounds, refs)


def test_untrained_check_rejects_no_gain(trained):
    w, rnd, refs, program, bounds = trained
    with pytest.raises(oracle.CheckFailed):
        oracle.check_beats_untrained(rnd.test_corr, rnd.test_corr, "test split")


def test_frozen_check_rejects_one_ulp(trained):
    w, rnd, refs, program, bounds = trained
    if not rnd.initial:
        pytest.skip(f"{w.name} has no frozen parameter")
    after = {k: v.copy() for k, v in experiment._values(rnd.model).items()}
    name = sorted(rnd.initial)[0]
    after[name].flat[0] = np.nextafter(after[name].flat[0], np.inf)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_frozen(rnd.initial, after)


def test_row_check_rejects_moved_unused_row_and_unmoved_matrix(trained):
    w, rnd, refs, program, bounds = trained
    if w.freeze_wem:
        pytest.skip(f"{w.name} keeps wem frozen")
    index = rnd.model.vocabulary.index
    occurring = {t for ref in (refs["train"], refs["test"]) for p in ref for t in (*p[1], *p[2])}
    matrix = rnd.model.embedding.matrix.values.copy()
    unused = next(t for t in index if t not in occurring and t in refs["digests"])
    matrix[index[unused], 0] = np.nextafter(matrix[index[unused], 0], np.inf)
    with pytest.raises(oracle.CheckFailed, match="occurs in no split"):
        oracle.check_rows(matrix, index, refs["digests"], rnd.unk_digest, occurring)
    loaded = rnd.setup.emb.embedding.matrix.values
    with pytest.raises(oracle.CheckFailed, match="moved"):
        oracle.check_rows(loaded, index, refs["digests"], rnd.unk_digest, occurring)


def test_grid_check_rejects_a_cell_that_is_not_the_arg_max(trained):
    w, rnd, refs, program, bounds = trained
    if rnd.chosen is None:
        pytest.skip(f"{w.name} runs a single cell")
    cells = [(c.config.learning_rate, c.config.batch_size, c.config.max_epochs,
              c.dev_correlation) for c in rnd.cells]
    other = next(i for i, c in enumerate(cells) if c[:3] != rnd.chosen)
    cells[other] = (*cells[other][:3], max(c[3] for c in cells) + 1e-6)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_grid_choice(cells, rnd.chosen)


def test_later_round_must_reproduce_the_first(trained):
    w, rnd, refs, program, bounds = trained
    later = replace(rnd, trained_digest="", test_corr=rnd.test_corr + 1e-12)
    with pytest.raises(oracle.CheckFailed):
        experiment.check_round(w, later, rnd, refs)
