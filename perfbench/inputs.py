"""Workload definitions and seeded input generation.

Every workload is described by a ``Workload`` record: the make-up of its
inputs (vector rows x dims, pair counts, sentence lengths) and the
experiment it drives (encoder, transfer setting, grid).  ``generate``
writes the inputs for one seed as plain files, in the formats the
package loads: a word-vector text file and generic ``score TAB a TAB b``
pair files.

Sentences are built from topic clusters plus filler words, and pair
scores follow a random topic-affinity table, so training has headroom
over the untrained cosine.  Sentence lengths are a fixed multiset that
the seed only permutes, and the epoch budgets are never cut short by
patience, so every seed gives the same amount of work: the seed changes
what the inputs say, not how much there is.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SCORE_RANGE = (0.0, 5.0)
TOPICS = 8
WORDS_PER_TOPIC = 6
TOPIC_SCALE = 0.25  # spread of the topic centres
LENGTHS = (3, 4, 5, 6)  # sentence lengths, cycled then permuted by the seed
TOKEN_WIDTH = 6  # every generated token is exactly this many characters
DECIMALS = 5  # vector entries are written as "+d.ddddd" / "-d.ddddd"


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    fillers: int
    filler_scale: float  # spread of the filler-word vectors
    unused_rows: int  # vector rows whose tokens occur in no pair file
    train_file_pairs: int  # split into train and dev by split_dataset
    dev_fraction: float
    test_pairs: int
    score_pairs: int  # scoring set for score_pairs_per_s
    encoder: str
    hidden: int
    setting: str
    loss: str | None
    freeze_wem: bool
    frozen: tuple[str, ...]  # parameter sets the paper's setting keeps fixed
    batch_sizes: tuple[int, ...]
    learning_rates: tuple[float, ...]
    epoch_budgets: tuple[int, ...]
    setup_repeats: int  # set-ups per round; short set-ups are repeated

    @property
    def grid(self) -> bool:
        return len(self.batch_sizes) * len(self.learning_rates) * len(self.epoch_budgets) > 1

    @property
    def patience(self) -> int:
        # never smaller than the budget, so every cell runs its full budget
        return max(self.epoch_budgets)

    def scaled(self, factor: int) -> "Workload":
        """The same workload with its unused rows, scoring set and set-up repeats
        divided by ``factor``, for quick smoke runs.  Training and the test split
        are unchanged, so the checks hold as they do at full size."""
        return replace(
            self,
            unused_rows=self.unused_rows // factor,
            score_pairs=max(self.score_pairs // factor, 30),
            setup_repeats=max(self.setup_repeats // factor, 1),
        )


# Why each workload exists is in BENCHMARK.json.  The sizes keep a round
# (set-up, training, test scoring, scoring set) to a few seconds, so a run
# holds several rounds, and give training a clear margin over the untrained
# cosine on every seed tried (40 seeds for bigvocab_wem, 20 for the others).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bilstm_dnt",
            dim=50, fillers=12, filler_scale=0.15, unused_rows=0,
            train_file_pairs=200, dev_fraction=0.15, test_pairs=100, score_pairs=900,
            encoder="bilstm-avg", hidden=8,
            setting="DNT", loss=None, freeze_wem=True, frozen=("wem",),
            batch_sizes=(8,), learning_rates=(0.01,), epoch_budgets=(2,),
            setup_repeats=30,
        ),
        Workload(
            name="ft_grid",
            dim=50, fillers=12, filler_scale=0.15, unused_rows=0,
            train_file_pairs=300, dev_fraction=0.15, test_pairs=100, score_pairs=24000,
            encoder="word-average", hidden=0,
            setting="FT", loss="KL", freeze_wem=True, frozen=("wem", "enc"),
            batch_sizes=(32,), learning_rates=(0.01, 0.03), epoch_budgets=(4, 8),
            setup_repeats=30,
        ),
        Workload(
            name="bigvocab_wem",
            # four loud filler words dominate the untrained cosine, which four
            # Adam steps on wem learn to discount
            dim=300, fillers=4, filler_scale=2.0, unused_rows=20000,
            train_file_pairs=40, dev_fraction=0.2, test_pairs=400, score_pairs=40000,
            encoder="word-average", hidden=0,
            setting="DNT", loss=None, freeze_wem=False, frozen=("enc",),
            batch_sizes=(8,), learning_rates=(0.1,), epoch_budgets=(1,),
            setup_repeats=2,
        ),
    )
}


@dataclass(frozen=True)
class InputFiles:
    root: Path

    @property
    def vectors(self) -> Path:
        return self.root / "vectors.txt"

    @property
    def train(self) -> Path:
        return self.root / "train.tsv"

    @property
    def test(self) -> Path:
        return self.root / "test.tsv"

    @property
    def score(self) -> Path:
        return self.root / "score.tsv"

    @property
    def row_digests(self) -> Path:
        return self.root / "row_digests.json"


def row_digest(row: np.ndarray) -> str:
    """Digest of one float64 row's bytes: equal digests mean bitwise-equal rows."""
    return hashlib.blake2b(np.ascontiguousarray(row, dtype=np.float64).tobytes(),
                           digest_size=16).hexdigest()


def _token_names(workload: Workload) -> tuple[list[list[str]], list[str], list[str]]:
    topics = [[f"t{t:02d}w{w:02d}" for w in range(WORDS_PER_TOPIC)] for t in range(TOPICS)]
    fillers = [f"fill{f:02d}" for f in range(workload.fillers)]
    unused = [f"x{u:05d}" for u in range(workload.unused_rows)]
    return topics, fillers, unused


def _vector_text(tokens: list[str], units: np.ndarray) -> bytes:
    """Format rows as ``token +d.ddddd ...`` lines without a Python loop per value.

    ``units`` holds each entry as an integer count of 1e-5, |units| < 1e6.
    """
    n, dim = units.shape
    digits = np.abs(units)
    cell = np.empty((n, dim, DECIMALS + 4), dtype=np.uint8)
    cell[:, :, 0] = ord(" ")
    cell[:, :, 1] = np.where(units < 0, ord("-"), ord("+"))
    cell[:, :, 2] = ord("0") + digits // 10**DECIMALS
    cell[:, :, 3] = ord(".")
    for k in range(DECIMALS):
        cell[:, :, 4 + k] = ord("0") + (digits // 10 ** (DECIMALS - 1 - k)) % 10
    lines = np.empty((n, TOKEN_WIDTH + dim * (DECIMALS + 4) + 1), dtype=np.uint8)
    lines[:, :TOKEN_WIDTH] = np.frombuffer("".join(tokens).encode("ascii"),
                                           dtype=np.uint8).reshape(n, TOKEN_WIDTH)
    lines[:, TOKEN_WIDTH:-1] = cell.reshape(n, -1)
    lines[:, -1] = ord("\n")
    return lines.tobytes()


def _sentence(rng: np.random.Generator, length: int, topic_words: list[str],
              fillers: list[str]) -> str:
    n_fill = int(rng.integers(0, min(3, length - 1)))
    words = list(rng.choice(topic_words, size=length - n_fill, replace=False))
    for _ in range(n_fill):
        words.insert(int(rng.integers(0, len(words) + 1)),
                     fillers[int(rng.integers(0, len(fillers)))])
    return " ".join(words)


def _pair_lines(rng: np.random.Generator, count: int, workload: Workload, affinity: np.ndarray,
                topics: list[list[str]], fillers: list[str]) -> list[str]:
    lengths = np.resize(np.asarray(LENGTHS), 2 * count)
    lengths = lengths[rng.permutation(lengths.size)]
    lines = []
    for i in range(count):
        ta = int(rng.integers(0, TOPICS))
        tb = ta if rng.uniform() < 0.55 else int(rng.integers(0, TOPICS))
        score = float(np.clip(affinity[ta, tb] + rng.normal(scale=0.25), *SCORE_RANGE))
        a = _sentence(rng, int(lengths[2 * i]), topics[ta], fillers)
        b = _sentence(rng, int(lengths[2 * i + 1]), topics[tb], fillers)
        lines.append(f"{score:.2f}\t{a}\t{b}\n")
    return lines


def generate(workload: Workload, seed: int, root: Path) -> InputFiles:
    """Write one seed's inputs under ``root`` and return their paths."""
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    files = InputFiles(Path(root))
    files.root.mkdir(parents=True, exist_ok=True)
    topics, fillers, unused = _token_names(workload)

    n_topic_words = TOPICS * WORDS_PER_TOPIC
    centers = rng.normal(scale=TOPIC_SCALE, size=(TOPICS, workload.dim))
    topic_rows = (np.repeat(centers, WORDS_PER_TOPIC, axis=0)
                  + rng.normal(scale=0.45, size=(n_topic_words, workload.dim)))
    values = np.vstack([topic_rows,
                        rng.normal(scale=workload.filler_scale, size=(workload.fillers, workload.dim)),
                        rng.normal(scale=0.4, size=(workload.unused_rows, workload.dim))])
    units = np.clip(np.rint(values * 10**DECIMALS), -(10**(DECIMALS + 1)) + 1,
                    10**(DECIMALS + 1) - 1).astype(np.int64)
    tokens = [w for words in topics for w in words] + fillers + unused
    order = rng.permutation(len(tokens))  # scatter the used rows among the unused
    tokens = [tokens[i] for i in order]
    units = units[order]
    files.vectors.write_bytes(_vector_text(tokens, units))
    # float(text) of "+d.ddddd" is the correctly rounded units / 1e5
    loaded = units / float(10**DECIMALS)
    digests = {tok: row_digest(loaded[i]) for i, tok in enumerate(tokens)}
    files.row_digests.write_text(json.dumps(digests), encoding="utf-8")

    affinity = np.zeros((TOPICS, TOPICS))
    for i in range(TOPICS):
        affinity[i, i] = rng.uniform(2.5, 5.0)
        for j in range(i + 1, TOPICS):
            affinity[i, j] = affinity[j, i] = rng.uniform(0.0, 3.2)
    for path, count in ((files.train, workload.train_file_pairs),
                        (files.test, workload.test_pairs),
                        (files.score, workload.score_pairs)):
        path.write_text("".join(_pair_lines(rng, count, workload, affinity, topics, fillers)),
                        encoding="utf-8")
    return files


def read_pairs(path: Path) -> list[tuple[float, list[str], list[str]]]:
    """The benchmark's own reading of a generated pair file: (score, tokens, tokens).

    Tokens are interned, so the reference copy of a large scoring set costs
    little of the workload's resident memory.
    """
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        score, a, b = line.split("\t")
        out.append((float(score), [sys.intern(t) for t in a.split()],
                    [sys.intern(t) for t in b.split()]))
    return out
