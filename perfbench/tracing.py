"""The traced run's layer spans and per-layer metrics.

The tracer wraps the public functions of the package under the names
their callers look them up by (for example ``simxfer.trainer.backward``,
which ``train`` calls), so nothing in the package changes.  Each wrapped
call records a span: name, start, end and the span that was open when it
started.  Spans stay in memory until ``write`` puts them, with per-layer
self times and the per-layer metrics, in a side-car JSONL file.

A wrapped function that no longer exists is listed as absent and its
metric reads 0; that is not an error.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, span name).  The module is the one whose namespace the
# caller looks the function up in; the span is named after the layer that
# does the work.
TARGETS = (
    ("data", "load_generic_tsv", "data.load_generic_tsv"),
    ("data", "split_dataset", "data.split_dataset"),
    ("embeddings", "load_embeddings", "embeddings.load_embeddings"),
    ("transfer", "tokenize", "embeddings.tokenize"),
    ("transfer", "lookup", "embeddings.lookup"),
    ("transfer", "encode", "encoders.encode"),
    ("trainer", "batch_loss", "trainer.batch_loss"),
    ("trainer", "backward", "autodiff.backward"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "predict", "transfer.predict"),
    ("trainer", "evaluate_split", "trainer.evaluate_split"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "grid_search", "trainer.grid_search"),
    ("transfer.SimilarityModel", "snapshot", "transfer.snapshot"),
)

# per-layer metric -> unit
PER_LAYER = {
    "data.load_s": "s",
    "embeddings.load_s": "s",
    "embeddings.rows": "rows",
    "embeddings.lookup_s": "s",
    "encoders.encode_s": "s",
    "autodiff.nodes_per_batch": "nodes",
    "autodiff.backward_s": "s",
    "autodiff.gc_pause_s": "s",
    "autodiff.gc_collections": "collections",
    "transfer.head_loss_s": "s",
    "transfer.predict_s": "s",
    "transfer.snapshot_s": "s",
    "trainer.adam_step_s": "s",
    "trainer.dev_eval_s": "s",
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    round: int
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Spans, tape-node counts and GC pauses of the traced rounds."""

    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    rows: int = 0
    round: int = 0
    in_training: bool = False
    gc_pause: dict[int, float] = field(default_factory=dict)
    gc_count: dict[int, int] = field(default_factory=dict)
    _open: list[Span] = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _gc_started: float = 0.0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._open[-1].id if self._open else None, name,
                    self.round, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._open:
            self._open[-1].child_time += span.duration

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name == "autodiff.backward":
                self.nodes.append(len(args[0].nodes))
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if name == "embeddings.load_embeddings":
                self.rows = int(result.embedding.matrix.values.shape[0])
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self.in_training:
            pause = time.perf_counter() - self._gc_started
            self.gc_pause[self.round] = self.gc_pause.get(self.round, 0.0) + pause
            self.gc_count[self.round] = self.gc_count.get(self.round, 0) + 1

    def install(self, package) -> None:
        """Wrap every target found under ``package`` (the imported simxfer)."""
        for module, attr, name in TARGETS:
            owner = package
            for part in module.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{module}.{attr}")
                continue
            self._wrap(owner, attr, name)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_time
        return out

    def metrics(self, rounds: list[int], setups_per_round: int) -> dict[str, float]:
        """Per-layer metrics, averaged over the traced ``rounds``.

        Load times are per set-up; the others are totals per round.
        """
        by_id = {s.id: s for s in self.spans}
        total: dict[str, float] = {name: 0.0 for name in PER_LAYER}
        for span in self.spans:
            if span.round not in rounds:
                continue
            if span.name in ("data.load_generic_tsv", "data.split_dataset"):
                total["data.load_s"] += span.duration / setups_per_round
            elif span.name == "embeddings.load_embeddings":
                total["embeddings.load_s"] += span.duration / setups_per_round
            elif span.name in ("embeddings.tokenize", "embeddings.lookup"):
                total["embeddings.lookup_s"] += span.duration
            elif span.name == "encoders.encode":
                total["encoders.encode_s"] += span.duration
            elif span.name == "autodiff.backward":
                total["autodiff.backward_s"] += span.duration
            elif span.name == "trainer.batch_loss":
                total["transfer.head_loss_s"] += span.self_time
            elif span.name == "transfer.predict":
                total["transfer.predict_s"] += span.duration
            elif span.name == "transfer.snapshot":
                total["transfer.snapshot_s"] += span.duration
            elif span.name == "trainer.adam_step":
                total["trainer.adam_step_s"] += span.duration
            elif (span.name == "trainer.evaluate_split" and span.parent is not None
                  and by_id[span.parent].name == "trainer.train"):
                total["trainer.dev_eval_s"] += span.duration
        for r in rounds:
            total["autodiff.gc_pause_s"] += self.gc_pause.get(r, 0.0)
            total["autodiff.gc_collections"] += self.gc_count.get(r, 0)
        out = {name: value / len(rounds) for name, value in total.items()}
        out["embeddings.rows"] = float(self.rows)
        out["autodiff.nodes_per_batch"] = (sum(self.nodes) / len(self.nodes)
                                           if self.nodes else 0.0)
        return out

    def write(self, path: Path, metrics: dict[str, float], overhead: dict[str, float]) -> None:
        """Write spans, self times, metrics and the tracing overhead as JSONL."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            origin = self.spans[0].start if self.spans else 0.0
            for s in self.spans:  # times in microseconds from the first span
                out.write(json.dumps({"span": s.id, "parent": s.parent, "name": s.name,
                                      "round": s.round,
                                      "start_us": round((s.start - origin) * 1e6),
                                      "end_us": round((s.end - origin) * 1e6)},
                                     separators=(",", ":")) + "\n")
            for name, entry in sorted(self.self_times().items()):
                out.write(json.dumps({"type": "self_time", "name": name, **entry}) + "\n")
            out.write(json.dumps({"type": "absent", "functions": self.absent}) + "\n")
            out.write(json.dumps({"type": "per_layer", "metrics": metrics}) + "\n")
            out.write(json.dumps({"type": "overhead", **overhead}) + "\n")
