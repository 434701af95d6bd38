"""Tests for the spec/report formats and the four CLI subcommands."""

import pytest

from conftest import FIXTURES_DIR, REPO_ROOT

from simxfer import cli
from simxfer.cli import (
    ExperimentReport,
    build_spec,
    emit_table,
    main,
    parse_report,
    parse_spec_file,
    write_report,
)
from simxfer.embeddings import load_embeddings
from simxfer.errors import DataError, SpecError

def minimal_spec_text(**overrides):
    entries = {
        "name": "activity",
        "data.format": "generic",
        "data.train": str(FIXTURES_DIR / "activity_pairs.tsv"),
        "data.test": str(FIXTURES_DIR / "activity_pairs_test.tsv"),
        "data.score_lo": "0",
        "data.score_hi": "5",
        "metric": "pearson",
        "embeddings.path": str(FIXTURES_DIR / "wordvecs_50d.txt"),
        "embeddings.dim": "50",
        "encoder.kind": "word-average",
        "transfer.setting": "UE",
        "seed": "7",
    }
    entries.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in entries.items() if v is not None) + "\n"


def write_spec(tmp_path, name="exp.spec", **overrides):
    path = tmp_path / name
    path.write_text(minimal_spec_text(**overrides), encoding="utf-8")
    return path


# --- spec files ---------------------------------------------------------------


def test_parse_spec_file_comments_and_blanks(tmp_path):
    path = tmp_path / "c.spec"
    path.write_text("# comment\n\nseed = 3  # trailing comment\nname = x\n"
                    "data.format = generic\n")
    entries = parse_spec_file(path)
    assert entries["seed"] == "3"
    assert entries["name"] == "x"


def test_a_utf8_bom_does_not_break_the_first_spec_line(tmp_path):
    original = FIXTURES_DIR / "specs" / "ue_wordavg.spec"
    bommed = tmp_path / "bom.spec"
    bommed.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert parse_spec_file(bommed) == parse_spec_file(original)


def test_parse_spec_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.spec"
    path.write_text("learning = fast\n")
    with pytest.raises(SpecError):
        parse_spec_file(path)


def test_parse_spec_rejects_duplicate_key(tmp_path):
    path = tmp_path / "c.spec"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(SpecError):
        parse_spec_file(path)


def test_build_spec_seed_override(tmp_path):
    path = write_spec(tmp_path)
    spec = build_spec(parse_spec_file(path), path, seed_override=99)
    assert spec.seed == 99


def test_build_spec_requires_loss_fields_consistency(tmp_path):
    path = write_spec(tmp_path, **{"transfer.setting": "DNT", "transfer.norm_hi": "2"})
    with pytest.raises(SpecError):
        build_spec(parse_spec_file(path), path)


def test_build_spec_sick_rejects_spearman(tmp_path):
    path = write_spec(tmp_path, **{"data.format": "sick", "metric": "spearman",
                                   "data.score_lo": None, "data.score_hi": None})
    with pytest.raises(SpecError):
        build_spec(parse_spec_file(path), path)


def test_data_dir_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMXFER_DATA_DIR", str(REPO_ROOT))
    path = write_spec(tmp_path, **{
        "data.train": "fixtures/activity_pairs.tsv",
        "data.test": "fixtures/activity_pairs_test.tsv",
        "embeddings.path": "fixtures/wordvecs_50d.txt",
    })
    spec = build_spec(parse_spec_file(path), path)
    assert spec.train_path == REPO_ROOT / "fixtures/activity_pairs.tsv"
    assert spec.train_path.exists()


def test_setting_labels(tmp_path):
    spec = build_spec(parse_spec_file(write_spec(tmp_path)), "s")
    assert spec.setting_label() == "UE"
    path = write_spec(tmp_path, **{"transfer.setting": "NT", "transfer.loss": "KL",
                                   "transfer.freeze_wem": "false"})
    assert build_spec(parse_spec_file(path), path).setting_label() == "NT-KL+wem"
    path = write_spec(tmp_path, **{"transfer.setting": "DNT"})
    assert build_spec(parse_spec_file(path), path).setting_label() == "DNT"


# --- reports ------------------------------------------------------------------


def sample_report(**overrides):
    fields = dict(dataset="activity", metric="pearson", encoder="word-average",
                  setting="DNT+wem", test_correlation=0.8123456789012345,
                  dev_correlation=0.7998, best_batch_size=32, best_learning_rate=0.01,
                  best_max_epochs=30, best_epoch=12, warnings=1,
                  cells=[(32, 0.01, 10, 0.7), (64, 0.001, 30, 0.69)])
    fields.update(overrides)
    return ExperimentReport(**fields)


def test_report_round_trip(tmp_path):
    report = sample_report()
    path = tmp_path / "r.tsv"
    write_report(report, path)
    loaded = parse_report(path)
    assert loaded == report


def test_report_round_trip_ue(tmp_path):
    report = sample_report(dev_correlation=None, best_batch_size=None,
                           best_learning_rate=None, best_max_epochs=None,
                           best_epoch=None, cells=[])
    path = tmp_path / "r.tsv"
    write_report(report, path)
    assert parse_report(path) == report


def test_parse_report_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("hello\n")
    with pytest.raises(DataError):
        parse_report(path)


@pytest.mark.parametrize("cell", [
    "cell\tabc\t0.1\t10\t0.3",
    "cell\t32\t0.1\tten\t0.3",
    "cell\t32\t0.1\t10",
], ids=["batch", "epochs", "short"])
def test_table_rejects_malformed_cell_as_data_error(tmp_path, capsys, cell):
    path = tmp_path / "r.tsv"
    write_report(sample_report(), path)
    path.write_text(path.read_text(encoding="utf-8") + cell + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="malformed cell line"):
        parse_report(path)
    assert main(["table", str(path)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("test_correlation\t0.5", "duplicate report key 'test_correlation'"),
    ("bogus\tx", "unknown report key 'bogus'"),
], ids=["duplicate", "unknown"])
def test_table_rejects_duplicate_and_unknown_report_keys(tmp_path, capsys, line, message):
    path = tmp_path / "r.tsv"
    write_report(sample_report(), path)
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=message):
        parse_report(path)
    assert main(["table", str(path)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("test_correlation", "nan"), ("test_correlation", "7.5"), ("test_correlation", "-inf"),
    ("dev_correlation", "nan"), ("dev_correlation", "-1.5"),
    ("cell", "inf"), ("cell", "nan"), ("cell", "1.0000001"),
])
def test_table_refuses_a_correlation_outside_minus_one_to_one(tmp_path, capsys, field, value):
    fields = {"cells": [(32, 0.01, 10, float(value))]} if field == "cell" else {field: float(value)}
    bad = tmp_path / "bad.tsv"
    write_report(sample_report(setting="UE", **fields), bad)
    good = tmp_path / "good.tsv"
    write_report(sample_report(setting="FT-KL", test_correlation=0.5), good)
    with pytest.raises(DataError, match=r"not in \[-1, 1\]"):
        parse_report(bad)
    assert main(["table", str(bad), str(good)]) == 2
    assert "data error" in capsys.readouterr().err


def test_report_round_trips_the_undefined_correlation(tmp_path):
    report = sample_report(test_correlation=-1.0, dev_correlation=-1.0,
                           cells=[(32, 0.01, 10, -1.0), (64, 0.001, 30, 1.0)])
    path = tmp_path / "r.tsv"
    write_report(report, path)
    assert parse_report(path) == report


@pytest.mark.parametrize("fields", [
    {"best_batch_size": -4, "best_learning_rate": float("nan"), "warnings": -3,
     "cells": [(-4, float("nan"), 0, 0.5)]},
    {"best_batch_size": -4}, {"best_learning_rate": float("nan")}, {"best_max_epochs": 0},
    {"best_learning_rate": None}, {"warnings": -3}, {"best_epoch": -1},
    {"cells": [(-4, float("nan"), 0, 0.5)]}, {"cells": [(32, 0.01, 0, 0.5)]},
    {"cells": [(32, float("inf"), 10, 0.5)]},
])
def test_table_refuses_a_report_no_run_writes(tmp_path, capsys, fields):
    bad = tmp_path / "bad.tsv"
    write_report(sample_report(**fields), bad)
    with pytest.raises(DataError):
        parse_report(bad)
    assert main(["table", str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


def test_a_perfect_two_pair_eval_is_read_back_by_table(tmp_path):
    # these two pairs' cosines and scores give a Pearson r that rounds to
    # 1 + 2**-52 unless the coefficient is clamped to [-1, 1]
    lines = (FIXTURES_DIR / "activity_pairs_test.tsv").read_text(encoding="utf-8").splitlines()
    test = tmp_path / "two.tsv"
    test.write_text(f"{lines[0]}\n{lines[36]}\n", encoding="utf-8")
    out = tmp_path / "ue.tsv"
    spec = write_spec(tmp_path, **{"data.test": str(test)})
    assert main(["eval", "--spec", str(spec), "--out", str(out)]) == 0
    assert "test_correlation\t1.0\n" in out.read_text(encoding="utf-8")
    assert main(["table", str(out)]) == 0


# --- table --------------------------------------------------------------------


def test_emit_table_flags_best_and_ties():
    reports = [
        sample_report(setting="UE", test_correlation=0.650),
        sample_report(setting="DNT", test_correlation=0.840),
        sample_report(setting="DNT+wem", test_correlation=0.8395),  # tie within .002
        sample_report(setting="FT-KL", test_correlation=0.700),
    ]
    tsv, pretty = emit_table(reports)
    lines = tsv.splitlines()
    assert lines[0] == "encoder\tsetting\tactivity/pearson"
    cells = {line.split("\t")[1]: line.split("\t")[2] for line in lines[1:]}
    assert cells["DNT"] == "0.840*"
    assert cells["DNT+wem"] == "0.840*"  # rendered at 3 decimals, still starred
    assert cells["UE"] == "0.650"
    assert cells["FT-KL"] == "0.700"
    assert "encoder" in pretty


def test_emit_table_rejects_duplicates():
    with pytest.raises(DataError):
        emit_table([sample_report(), sample_report()])


def test_emit_table_multiple_datasets():
    reports = [
        sample_report(setting="UE", test_correlation=0.5),
        sample_report(setting="DNT", test_correlation=0.8),
        sample_report(setting="UE", dataset="other", test_correlation=0.4),
        sample_report(setting="DNT", dataset="other", test_correlation=0.7),
    ]
    tsv, _ = emit_table(reports)
    lines = tsv.splitlines()
    assert lines[0].count("\t") == 3  # encoder, setting, two dataset columns
    assert len(lines) == 3


# --- subcommands ----------------------------------------------------------------


def test_eval_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "ue.tsv"
    assert main(["eval", "--spec", str(spec), "--out", str(out)]) == 0
    report = parse_report(out)
    assert report.setting == "UE"
    assert report.best_batch_size is None
    assert -1.0 <= report.test_correlation <= 1.0
    assert "test pearson" in capsys.readouterr().out


def test_eval_rejects_training_spec(tmp_path):
    spec = write_spec(tmp_path, **{"transfer.setting": "DNT"})
    assert main(["eval", "--spec", str(spec)]) == 1


def test_run_subcommand_uses_first_grid_cell(tmp_path):
    spec = write_spec(tmp_path, **{
        "transfer.setting": "DNT",
        "transfer.freeze_wem": "false",
        "train.batch_sizes": "32",
        "train.learning_rates": "0.01",
        "train.epoch_budgets": "4",
    })
    out = tmp_path / "dnt.tsv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    report = parse_report(out)
    assert report.best_batch_size == 32
    assert report.best_learning_rate == 0.01
    assert len(report.cells) == 1
    again = tmp_path / "dnt2.tsv"
    assert main(["run", "--spec", str(spec), "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_run_rejects_ue(tmp_path):
    assert main(["run", "--spec", str(write_spec(tmp_path))]) == 1


def test_grid_and_table_subcommands(tmp_path):
    spec = write_spec(tmp_path, **{
        "transfer.setting": "DNT",
        "transfer.freeze_wem": "false",
        "train.batch_sizes": "32",
        "train.learning_rates": "0.01,0.001",
        "train.epoch_budgets": "3",
    })
    out_a = tmp_path / "a.tsv"
    assert main(["grid", "--spec", str(spec), "--out", str(out_a)]) == 0
    report = parse_report(out_a)
    assert len(report.cells) == 2

    ue_out = tmp_path / "ue.tsv"
    assert main(["eval", "--spec", str(write_spec(tmp_path)), "--out", str(ue_out)]) == 0
    table_out = tmp_path / "table.tsv"
    assert main(["table", str(out_a), str(ue_out), "--out", str(table_out)]) == 0
    table = table_out.read_text()
    assert "DNT+wem" in table and "UE" in table


def test_grid_reports_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, **{
        "transfer.setting": "DNT",
        "transfer.freeze_wem": "false",
        "train.batch_sizes": "16,32",
        "train.learning_rates": "0.01",
        "train.epoch_budgets": "3",
    })
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["grid", "--spec", str(spec), "--out", str(out_a)]) == 0
    assert main(["grid", "--spec", str(spec), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("setting,frozen", [
    ({"transfer.setting": "FT", "transfer.loss": "KL", "transfer.bins": "5"}, True),
    ({"transfer.setting": "DNT", "transfer.freeze_wem": "false"}, False),
], ids=["FT", "DNT+wem"])
def test_grid_cells_share_a_frozen_matrix_and_copy_a_trained_one(tmp_path, monkeypatch,
                                                                 setting, frozen):
    models = []
    real_grid_search = cli.grid_search

    def spy(model_factory, *args):
        def factory():
            models.append(model_factory())
            return models[-1]
        return real_grid_search(factory, *args)

    monkeypatch.setattr(cli, "grid_search", spy)
    spec = write_spec(tmp_path, **setting, **{
        "train.batch_sizes": "32",
        "train.learning_rates": "0.01,0.1",
        "train.epoch_budgets": "2,3",
    })
    assert main(["grid", "--spec", str(spec), "--out", str(tmp_path / "grid.tsv")]) == 0
    loaded = load_embeddings(FIXTURES_DIR / "wordvecs_50d.txt", 50).embedding.matrix.values
    arrays = [m.embedding.matrix.values for m in models]
    assert len(arrays) == 2  # one model per (lr, batch): its run serves every epoch budget
    if frozen:
        assert all(a is arrays[0] for a in arrays)
        assert arrays[0].tobytes() == loaded.tobytes()
    else:
        assert len({id(a) for a in arrays}) == 2
        assert all(a.tobytes() != loaded.tobytes() for a in arrays)


def test_hyperparameter_selection_ignores_test_file(tmp_path):
    """Swapping the test file changes the reported number, not the chosen cell."""
    common = {
        "transfer.setting": "DNT",
        "transfer.freeze_wem": "false",
        "train.batch_sizes": "16,32",
        "train.learning_rates": "0.01",
        "train.epoch_budgets": "3",
    }
    alt_test = tmp_path / "alt_test.tsv"
    alt_test.write_text("1.00\tsome guitar words\tsnow fog words\n"
                        "4.00\tthe piano melody\told chord concert\n", encoding="utf-8")
    spec_a = write_spec(tmp_path, name="a.spec", **common)
    spec_b = write_spec(tmp_path, name="b.spec", **{**common, "data.test": str(alt_test)})
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["grid", "--spec", str(spec_a), "--out", str(out_a)]) == 0
    assert main(["grid", "--spec", str(spec_b), "--out", str(out_b)]) == 0
    a, b = parse_report(out_a), parse_report(out_b)
    assert (a.best_batch_size, a.best_learning_rate, a.best_max_epochs) == \
        (b.best_batch_size, b.best_learning_rate, b.best_max_epochs)
    assert a.cells == b.cells
    assert a.test_correlation != b.test_correlation


def test_a_saturated_softmax_fails_only_its_own_grid_cell(tmp_path, monkeypatch):
    """At lr 100 the FT head's softmax reaches exact zeros and KL's log fails
    that cell; the lr 0.01 cell still trains and wins."""
    monkeypatch.setenv("SIMXFER_DATA_DIR", str(REPO_ROOT))
    entries = parse_spec_file(REPO_ROOT / "fixtures" / "specs" / "ft_wordavg_run.spec")
    entries.update({"train.learning_rates": "0.01,100", "train.epoch_budgets": "50"})
    spec = tmp_path / "saturated.spec"
    spec.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    out = tmp_path / "grid.tsv"
    assert main(["grid", "--spec", str(spec), "--out", str(out)]) == 0
    report = parse_report(out)
    assert report.best_learning_rate == 0.01
    assert [(lr, corr) for _, lr, _, corr in report.cells][1] == (100.0, -1.0)


# --- exit codes -----------------------------------------------------------------


def test_usage_error_exit_code():
    assert main(["run"]) == 1  # missing --spec
    assert main([]) == 1


def test_spec_error_exit_code(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("what even is this\n")
    assert main(["run", "--spec", str(bad)]) == 1


def test_non_utf8_spec_is_a_spec_error(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_bytes(b"name = \xff\n")
    assert main(["run", "--spec", str(bad)]) == 1


@pytest.mark.parametrize("key, value", [
    ("train.patience", "0"),
    ("train.batch_sizes", "0"),
    ("train.learning_rates", "-0.1"),
    ("train.epoch_budgets", "0"),
    ("data.dev_fraction", "1.5"),
    ("classifier.hidden", "0"),
    ("train.learning_rates", "nan"),
    ("train.learning_rates", "inf"),
    ("data.score_lo", "5"),  # equal to data.score_hi
    ("data.score_lo", "nan"),
    ("train.learning_rates", "0.01, 0.01"),  # would write the same cell line twice
    ("train.learning_rates", "0.01, 1e-2"),
    ("train.batch_sizes", "32, 64, 32"),
    ("train.epoch_budgets", "10, 10"),
])
def test_bad_grid_and_model_values_are_spec_errors(tmp_path, capsys, key, value):
    # every data path is missing, so a check made after loading would exit 2
    missing = str(tmp_path / "missing.tsv")
    spec = write_spec(tmp_path, **{"transfer.setting": "FT", "transfer.loss": "KL",
                                   "data.train": missing, "data.test": missing,
                                   "embeddings.path": missing, key: value})
    assert main(["run", "--spec", str(spec)]) == 1
    assert "spec error" in capsys.readouterr().err


@pytest.mark.parametrize("mode, setting, key, value, message", [
    ("run", "DNT", "transfer.loss", "KL", "DNT has a fixed loss"),
    ("run", "DNT", "transfer.bins", "7", "DNT has a fixed loss"),
    ("run", "FT", "transfer.norm_lo", "-1", "FT does not use norm_range"),
    ("run", "NT", "transfer.norm_hi", "1", "NT does not use norm_range"),
    ("eval", "UE", "transfer.loss", "MSE", "UE admits no training-related fields"),
    ("eval", "UE", "transfer.norm_lo", "0", "UE admits no training-related fields"),
], ids=["DNT-loss", "DNT-bins", "FT-norm_lo", "NT-norm_hi", "UE-loss", "UE-norm_lo"])
def test_transfer_keys_the_setting_does_not_use_are_spec_errors(tmp_path, capsys, mode,
                                                                setting, key, value, message):
    # every data path is missing, so a key dropped instead of refused would exit 2
    missing = str(tmp_path / "missing.tsv")
    spec = write_spec(tmp_path, **{"transfer.setting": setting, key: value,
                                   "data.train": missing, "data.test": missing,
                                   "embeddings.path": missing})
    assert main([mode, "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "spec error" in err and message in err


@pytest.mark.parametrize("mode", ["eval", "grid"])
def test_a_tab_in_the_name_is_a_spec_error(tmp_path, capsys, mode):
    # every data path is missing, so a name checked after reading would exit 2
    missing = str(tmp_path / "missing.tsv")
    spec = tmp_path / "exp.spec"
    spec.write_text(minimal_spec_text(**{
        "name": "act\tivity", "transfer.setting": "UE" if mode == "eval" else "DNT",
        "data.train": missing, "data.test": missing, "embeddings.path": missing}))
    assert main([mode, "--spec", str(spec), "--out", str(tmp_path / "out.tsv")]) == 1
    err = capsys.readouterr().err
    assert "spec error" in err and "must not contain a tab or line break" in err
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize("name", ["act\tivity", "act\rivity", "act\nivity"],
                         ids=["tab", "CR", "LF"])
def test_build_spec_refuses_a_name_that_would_split_a_report_line(tmp_path, name):
    entries = parse_spec_file(write_spec(tmp_path))
    with pytest.raises(SpecError, match="must not contain a tab or line break"):
        build_spec({**entries, "name": name}, "exp.spec")
    stem = tmp_path / "act\tivity.tsv"  # the default name is the train file's stem
    with pytest.raises(SpecError, match="must not contain a tab or line break"):
        build_spec({k: v for k, v in {**entries, "data.train": str(stem)}.items() if k != "name"},
                   "exp.spec")


def test_a_name_with_unicode_line_separators_runs_and_tabulates(tmp_path):
    """Only LF, CRLF and a lone CR end a line of a spec or a report file;
    U+2028 and a form feed are part of the name."""
    name = "act\u2028iv\x0city"
    spec, out, table = tmp_path / "exp.spec", tmp_path / "ue.tsv", tmp_path / "table.tsv"
    spec.write_text(minimal_spec_text(name=name), encoding="utf-8")
    assert main(["eval", "--spec", str(spec), "--out", str(out)]) == 0
    assert parse_report(out).dataset == name
    assert main(["table", str(out), "--out", str(table)]) == 0
    assert name in table.read_text(encoding="utf-8")


@pytest.mark.parametrize("mode, args, overrides", [
    ("run", ["--seed", "-1"], {"transfer.setting": "DNT", "transfer.freeze_wem": "false"}),
    ("eval", [], {"seed": "-3"}),
    ("run", [], {"transfer.setting": "DNT", "encoder.kind": "bilstm-avg",
                 "encoder.hidden": "4", "encoder.seed": "-1"}),
    ("run", [], {"transfer.setting": "FT", "classifier.seed": "-1"}),
], ids=["option-seed", "spec-seed", "encoder-seed", "classifier-seed"])
def test_negative_seeds_are_spec_errors(tmp_path, capsys, mode, args, overrides):
    # the embedding file, read first, is missing, so a seed checked late would exit 2
    spec = write_spec(tmp_path, **{"embeddings.path": str(tmp_path / "missing.txt"), **overrides})
    assert main([mode, "--spec", str(spec), *args]) == 1
    err = capsys.readouterr().err
    assert "spec error" in err and "seed must be non-negative" in err


def test_data_error_exit_code(tmp_path):
    spec = write_spec(tmp_path, **{"data.train": str(tmp_path / "missing.tsv"),
                                   "transfer.setting": "DNT",
                                   "train.epoch_budgets": "2"})
    assert main(["run", "--spec", str(spec)]) == 2


@pytest.mark.parametrize("key, pairs, extra", [
    ("data.train", 1, {}),
    ("data.train", 9, {}),  # a 0.15 dev split of 9 pairs holds one pair
    ("data.dev", 1, {}),
    ("data.test", 1, {"data.dev": str(FIXTURES_DIR / "activity_pairs_test.tsv")}),
], ids=["train-split", "train-split-one-dev-pair", "dev", "test"])
def test_too_few_pairs_is_a_data_error(tmp_path, capsys, key, pairs, extra):
    small = tmp_path / "small.tsv"
    small.write_text("2.00\tguitar piano\tmelody chord\n" * pairs, encoding="utf-8")
    spec = write_spec(tmp_path, **{"encoder.kind": "bilstm-avg", "encoder.hidden": "4",
                                   "transfer.setting": "DNT", "train.epoch_budgets": "1",
                                   **extra, key: str(small)})
    assert main(["run", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(small) in err


def test_eval_needs_no_dev_pairs(tmp_path):
    small = tmp_path / "small.tsv"
    small.write_text("2.00\tguitar piano\tmelody chord\n" * 2, encoding="utf-8")
    assert main(["eval", "--spec", str(write_spec(tmp_path, **{"data.train": str(small)}))]) == 0


def test_numeric_error_exit_code(tmp_path):
    # constant gold scores make the test correlation undefined
    const = tmp_path / "const.tsv"
    const.write_text("2.00\tguitar piano\tmelody chord\n2.00\tsnow fog\train storm\n",
                     encoding="utf-8")
    spec = write_spec(tmp_path, **{"data.test": str(const)})
    assert main(["eval", "--spec", str(spec)]) == 3
