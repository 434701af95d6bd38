"""Command-line front end.

Subcommands:
  run    a one-cell grid: the grid's first cell in tie-break order, i.e.
         the smallest value of each hyperparameter list
  grid   the full hyperparameter grid, reporting every cell and keeping
         only the winning cell's model
  eval   untrained (UE) evaluation only
  table  aggregate report files into one model x dataset table

Experiment specs are flat ``key = value`` text files ('#' starts a
comment).  Relative dataset and embedding paths are resolved against the
``SIMXFER_DATA_DIR`` environment variable when it is set.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.

Report files are deterministic TSV: identical spec and seed produce
byte-identical files.  Wall-clock timing is printed to stdout only and
deliberately kept out of the file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import (FIXED_RANGES, FORMATS, DatasetSplit, checked_range, load_pairs, read_lines,
                   split_dataset)
from .embeddings import EmbeddingMatrix, load_embeddings
from .encoders import EncoderConfig, init_encoder
from .errors import ContractError, DataError, NumericError, ShapeError, SimxferError, SpecError
from .autodiff import Tensor
from .metrics import METRICS
from .trainer import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_EPOCH_BUDGETS,
    DEFAULT_LEARNING_RATES,
    HyperGrid,
    evaluate_split,
    grid_search,
)
from .transfer import (
    DEFAULT_BINS,
    DEFAULT_HIDDEN_WIDTH,
    SETTINGS,
    SimilarityModel,
    TransferConfig,
    init_classifier,
    trainable_parameter_sets,
)

REPORT_HEADER = "simxfer-report 1"
ENV_DATA_DIR = "SIMXFER_DATA_DIR"

_KNOWN_KEYS = {
    "name", "seed", "out", "metric",
    "data.format", "data.train", "data.dev", "data.test", "data.dev_fraction",
    "data.score_lo", "data.score_hi",
    "embeddings.path", "embeddings.dim",
    "encoder.kind", "encoder.hidden", "encoder.seed",
    "transfer.setting", "transfer.loss", "transfer.freeze_wem",
    "transfer.norm_lo", "transfer.norm_hi", "transfer.bins",
    "classifier.hidden", "classifier.seed",
    "train.batch_sizes", "train.learning_rates", "train.epoch_budgets", "train.patience",
}


def parse_spec_file(path) -> dict[str, str]:
    lines = read_lines(path, "spec file", SpecError)
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise SpecError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise SpecError(f"expected a boolean, got {text!r}")


@dataclass
class ExperimentSpec:
    """A fully-resolved experiment configuration."""

    name: str
    seed: int
    out: str | None
    data_format: str
    train_path: Path
    dev_path: Path | None
    test_path: Path
    dev_fraction: float
    score_range: tuple[float, float]
    metric: str
    embeddings_path: Path
    embeddings_dim: int
    encoder: EncoderConfig
    transfer: TransferConfig
    classifier_hidden: int
    classifier_seed: int
    grid: HyperGrid

    def setting_label(self) -> str:
        cfg = self.transfer
        label = cfg.setting
        if cfg.loss_kind:
            label += f"-{cfg.loss_kind}"
        if not cfg.freeze_wem:
            label += "+wem"
        return label


def _resolve(path_text: str) -> Path:
    path = Path(path_text)
    prefix = os.environ.get(ENV_DATA_DIR)
    if prefix and not path.is_absolute():
        return Path(prefix) / path
    return path


def build_spec(entries: dict[str, str], path, seed_override: int | None = None,
               out_override: str | None = None) -> ExperimentSpec:
    def need(key: str) -> str:
        if key not in entries:
            raise SpecError(f"{path}: missing required key {key!r}")
        return entries[key]

    try:
        data_format = need("data.format")
        if data_format not in FORMATS:
            raise SpecError(f"{path}: unknown data.format {data_format!r}")
        metric = entries.get("metric", "pearson")
        if data_format in FIXED_RANGES:
            score_range = FIXED_RANGES[data_format]
            if metric != "pearson":
                raise SpecError(f"{path}: {data_format} reports Pearson's r; metric must be pearson")
        else:
            score_range = checked_range(need("data.score_lo"), need("data.score_hi"))
        if metric not in METRICS:
            raise SpecError(f"{path}: unknown metric {metric!r}")

        seed = seed_override if seed_override is not None else int(entries.get("seed", "0"))
        # defaults fill only the fields the setting uses; TransferConfig refuses others
        setting = need("transfer.setting").upper()
        row = SETTINGS.get(setting, frozenset())
        loss = entries.get("transfer.loss") or ("MSE" if "cla" in row else None)
        bins = entries.get("transfer.bins", DEFAULT_BINS if "cla" in row else None)
        norm_range = None
        if (row and "cla" not in row) or {"transfer.norm_lo", "transfer.norm_hi"} & entries.keys():
            norm_range = (float(entries.get("transfer.norm_lo", "0")),
                          float(entries.get("transfer.norm_hi", "1")))
        transfer = TransferConfig(
            setting=setting,
            loss_kind=loss and loss.upper(),
            freeze_wem=_bool(entries.get("transfer.freeze_wem", "true")),
            norm_range=norm_range,
            bins=None if bins is None else int(bins),
        )

        grid = HyperGrid(
            batch_sizes=_ints(entries.get("train.batch_sizes", "")) or DEFAULT_BATCH_SIZES,
            learning_rates=_floats(entries.get("train.learning_rates", "")) or DEFAULT_LEARNING_RATES,
            epoch_budgets=_ints(entries.get("train.epoch_budgets", "")) or DEFAULT_EPOCH_BUDGETS,
            patience=int(entries.get("train.patience", "5")),
            seed=seed,
        )
        grid.cells()  # refuses bad grid values and a negative seed before any file is read

        embeddings_dim = int(need("embeddings.dim"))
        encoder = EncoderConfig(
            kind=entries.get("encoder.kind", "word-average"),
            input_dim=embeddings_dim,
            hidden_dim=int(entries.get("encoder.hidden", "0")),
            seed=int(entries.get("encoder.seed", str(seed + 1))),
        )

        train_path = _resolve(need("data.train"))
        spec = ExperimentSpec(
            name=entries.get("name", Path(need("data.train")).stem),
            seed=seed,
            out=out_override if out_override is not None else entries.get("out"),
            data_format=data_format,
            train_path=train_path,
            dev_path=_resolve(entries["data.dev"]) if "data.dev" in entries else None,
            test_path=_resolve(need("data.test")),
            dev_fraction=float(entries.get("data.dev_fraction", "0.15")),
            score_range=score_range,
            metric=metric,
            embeddings_path=_resolve(need("embeddings.path")),
            embeddings_dim=embeddings_dim,
            encoder=encoder,
            transfer=transfer,
            classifier_hidden=int(entries.get("classifier.hidden", str(DEFAULT_HIDDEN_WIDTH))),
            classifier_seed=int(entries.get("classifier.seed", str(seed + 2))),
            grid=grid,
        )
        if any(c in spec.name for c in "\t\r\n"):  # the report is one tab-separated line per key
            raise SpecError(f"{path}: name {spec.name!r} must not contain a tab or line break")
        if not 0.0 < spec.dev_fraction < 1.0:
            raise SpecError(f"{path}: data.dev_fraction must lie strictly between 0 and 1")
        if spec.classifier_hidden <= 0:
            raise SpecError(f"{path}: classifier.hidden must be positive")
        if spec.classifier_seed < 0:
            raise SpecError(f"{path}: classifier.seed must be non-negative")
    except (ValueError, ContractError) as exc:
        raise SpecError(f"{path}: {exc}") from exc
    return spec


@dataclass
class ExperimentReport:
    dataset: str
    metric: str
    encoder: str
    setting: str
    test_correlation: float
    dev_correlation: float | None = None
    best_batch_size: int | None = None
    best_learning_rate: float | None = None
    best_max_epochs: int | None = None
    best_epoch: int | None = None
    warnings: int = 0
    cells: list[tuple[int, float, int, float]] = field(default_factory=list)
    wall_clock_seconds: float | None = None  # in-memory only, never serialized


# the report's key lines in file order, each with the type that parses its value
REPORT_FIELDS = {"dataset": str, "metric": str, "encoder": str, "setting": str,
                 "test_correlation": float, "dev_correlation": float, "best_batch_size": int,
                 "best_learning_rate": float, "best_max_epochs": int, "best_epoch": int,
                 "warnings": int}


def write_report(report: ExperimentReport, path) -> None:
    lines = [REPORT_HEADER]
    for key, kind in REPORT_FIELDS.items():
        value = getattr(report, key)
        if value is not None:
            lines.append(f"{key}\t{value!r}" if kind is float else f"{key}\t{value}")
    for batch, lr, epochs, corr in report.cells:
        lines.append(f"cell\t{batch}\t{lr!r}\t{epochs}\t{corr!r}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("\n".join(lines) + "\n")


def parse_report(path) -> ExperimentReport:
    lines = read_lines(path, "report")
    if not lines or lines[0] != REPORT_HEADER:
        raise DataError(f"{path}: not a report file (missing '{REPORT_HEADER}')")
    fields: dict[str, str] = {}
    cells: list[tuple[int, float, int, float]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if parts[0] == "cell":
            try:
                batch, lr, epochs, corr = parts[1:]
                cells.append((int(batch), float(lr), int(epochs), float(corr)))
            except ValueError:
                raise DataError(f"{path}: malformed cell line {line!r}") from None
        elif len(parts) != 2:
            raise DataError(f"{path}: malformed report line {line!r}")
        elif parts[0] not in REPORT_FIELDS:
            raise DataError(f"{path}: unknown report key {parts[0]!r}")
        elif parts[0] in fields:
            raise DataError(f"{path}: duplicate report key {parts[0]!r}")
        else:
            fields[parts[0]] = parts[1]
    try:
        report = ExperimentReport(**{k: REPORT_FIELDS[k](v) for k, v in fields.items()}, cells=cells)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: incomplete report: {exc}") from exc
    for corr in (report.test_correlation, report.dev_correlation, *(c[3] for c in cells)):
        if corr is not None and not -1.0 <= corr <= 1.0:  # NaN fails too
            raise DataError(f"{path}: correlation {corr} is not in [-1, 1]")
    return report


TIE_MARGIN = 0.002


def emit_table(reports: list[ExperimentReport]) -> tuple[str, str]:
    """Render reports as (tab-separated, aligned-text) tables.

    One row per (encoder, setting), one column per dataset/metric.  The
    best result per encoder and dataset is starred; results within .002
    of the best count as ties and are starred too.
    """
    if not reports:
        raise ContractError("emit_table requires at least one report")
    datasets: list[str] = []
    rows: list[tuple[str, str]] = []
    values: dict[tuple[str, str, str], float] = {}
    for rep in reports:
        column = f"{rep.dataset}/{rep.metric}"
        if column not in datasets:
            datasets.append(column)
        row = (rep.encoder, rep.setting)
        if row not in rows:
            rows.append(row)
        key = (rep.encoder, rep.setting, column)
        if key in values:
            raise DataError(f"duplicate report for encoder={rep.encoder} "
                            f"setting={rep.setting} dataset={column}")
        values[key] = rep.test_correlation

    best: dict[tuple[str, str], float] = {}
    for (encoder, _setting, column), corr in values.items():
        cur = best.get((encoder, column))
        if cur is None or corr > cur:
            best[(encoder, column)] = corr

    header = ["encoder", "setting", *datasets]
    table_rows: list[list[str]] = []
    for encoder, setting in rows:
        cells = []
        for column in datasets:
            corr = values.get((encoder, setting, column))
            if corr is None:
                cells.append("-")
                continue
            mark = "*" if best[(encoder, column)] - corr < TIE_MARGIN else ""
            cells.append(f"{corr:.3f}{mark}")
        table_rows.append([encoder, setting, *cells])

    tsv = "\n".join("\t".join(r) for r in [header, *table_rows]) + "\n"
    widths = [max(len(r[i]) for r in [header, *table_rows]) for i in range(len(header))]
    pretty_lines = []
    for r in [header, *table_rows]:
        pretty_lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    pretty = "\n".join(pretty_lines) + "\n"
    return tsv, pretty


def _require_two_pairs(path, pairs: list, what: str) -> None:
    """A split, and a correlation, needs two pairs or more."""
    if len(pairs) < 2:
        raise DataError(f"dataset file {path} gives {len(pairs)} {what} pair(s); "
                        "at least 2 are needed")


def run_experiment(spec: ExperimentSpec, mode: str) -> ExperimentReport:
    """Load data and embeddings, build the model, train per mode, score test."""
    started = time.perf_counter()
    if mode == "eval" and trainable_parameter_sets(spec.transfer):
        raise SpecError(f"{spec.transfer.setting} trains; eval runs untrained settings only")
    if mode != "eval" and not trainable_parameter_sets(spec.transfer):
        raise SpecError(f"{spec.transfer.setting} has no training; use the eval subcommand")

    emb = load_embeddings(spec.embeddings_path, spec.embeddings_dim)
    warnings = emb.skipped_lines
    train_result = load_pairs(spec.train_path, spec.data_format, spec.score_range)
    warnings += train_result.warnings
    if spec.dev_path is not None:
        dev_pairs = load_pairs(spec.dev_path, spec.data_format, spec.score_range)
        warnings += dev_pairs.warnings
        train_pairs, dev_pairs = train_result.pairs, dev_pairs.pairs
    else:
        _require_two_pairs(spec.train_path, train_result.pairs, "valid")
        train_pairs, dev_pairs = split_dataset(train_result.pairs, spec.dev_fraction, spec.seed)
    test_result = load_pairs(spec.test_path, spec.data_format, spec.score_range)
    _require_two_pairs(spec.test_path, test_result.pairs, "valid")
    warnings += test_result.warnings

    initial_matrix = emb.embedding.matrix.values

    def model_factory() -> SimilarityModel:
        # a frozen matrix is never written, so every cell can share the loaded one
        matrix = Tensor(initial_matrix if spec.transfer.freeze_wem else initial_matrix.copy(),
                        name="wem.matrix")
        classifier = None
        if spec.transfer.has_head:
            classifier = init_classifier(spec.encoder.output_dim, spec.transfer.bins,
                                         spec.classifier_hidden, seed=spec.classifier_seed)
        return SimilarityModel(
            vocabulary=emb.vocabulary,
            embedding=EmbeddingMatrix(matrix, spec.embeddings_dim),
            encoder_config=spec.encoder,
            encoder_params=init_encoder(spec.encoder),
            classifier=classifier,
        )

    report = ExperimentReport(
        dataset=spec.name,
        metric=spec.metric,
        encoder=spec.encoder.kind,
        setting=spec.setting_label(),
        test_correlation=0.0,
        warnings=warnings,
    )

    if mode == "eval":
        model = model_factory()
    else:
        _require_two_pairs(spec.dev_path or spec.train_path, dev_pairs, "dev")
        grid = spec.grid
        if mode == "run":
            first = grid.cells()[0]
            grid = replace(grid, batch_sizes=(first.batch_size,),
                           learning_rates=(first.learning_rate,),
                           epoch_budgets=(first.max_epochs,))
        result = grid_search(model_factory, spec.transfer,
                             DatasetSplit("train", train_pairs, spec.metric),
                             DatasetSplit("dev", dev_pairs, spec.metric), grid)
        model = result.best_model
        report.cells = [(c.config.batch_size, c.config.learning_rate,
                         c.config.max_epochs, c.dev_correlation) for c in result.cells]
        report.dev_correlation = result.best_history.best_dev_correlation
        report.best_batch_size = result.best_config.batch_size
        report.best_learning_rate = result.best_config.learning_rate
        report.best_max_epochs = result.best_config.max_epochs
        report.best_epoch = result.best_history.best_epoch

    report.test_correlation = evaluate_split(model, spec.transfer,
                                             test_result.pairs, spec.metric)
    report.wall_clock_seconds = time.perf_counter() - started
    if spec.out:
        write_report(report, spec.out)
    return report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simxfer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "grid", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="experiment spec file")
        p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
        p.add_argument("--out", default=None, help="report output path (overrides spec)")
    p = sub.add_parser("table")
    p.add_argument("reports", nargs="+", help="report files to aggregate")
    p.add_argument("--out", default=None, help="write the TSV table here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "table":
            reports = [parse_report(p) for p in args.reports]
            tsv, pretty = emit_table(reports)
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.out).write_text(tsv, encoding="utf-8")
            sys.stdout.write(pretty)
            return 0
        entries = parse_spec_file(args.spec)
        spec = build_spec(entries, args.spec, seed_override=args.seed, out_override=args.out)
        report = run_experiment(spec, args.command)
        label = f"{report.encoder} [{report.setting}] on {report.dataset}"
        sys.stdout.write(f"{label}: test {report.metric} = {report.test_correlation:.4f}\n")
        if report.best_batch_size is not None:
            sys.stdout.write(
                f"best cell: batch={report.best_batch_size} lr={report.best_learning_rate} "
                f"epochs={report.best_max_epochs} (dev {report.dev_correlation:.4f})\n")
        sys.stdout.write(f"wall clock: {report.wall_clock_seconds:.2f}s\n")
        if spec.out:
            sys.stdout.write(f"report written to {spec.out}\n")
        return 0
    except SpecError as exc:
        sys.stderr.write(f"simxfer: spec error: {exc}\n")
        return 1
    except DataError as exc:
        sys.stderr.write(f"simxfer: data error: {exc}\n")
        return 2
    except (NumericError, ShapeError, ContractError) as exc:
        sys.stderr.write(f"simxfer: numeric error: {exc}\n")
        return 3
    except SimxferError as exc:
        sys.stderr.write(f"simxfer: error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
