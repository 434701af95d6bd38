"""Regenerate the bundled fixture files deterministically.

Produces:
  activity_pairs.tsv        200 scored phrase pairs, generic TSV, scores in [0, 5]
  activity_pairs_test.tsv   60 held-out pairs from the same distribution
  wordvecs_50d.txt          50-dimensional vectors for every token in the pairs
  activity_pairs{,_test}_stsb.tsv   the same pairs in STS-Benchmark columns
  activity_pairs{,_test}_sick.tsv   the same pairs in SICK columns, each score
                                    mapped affinely from 0..5 onto 1..5

Phrases are built from 12 topic clusters plus filler words.  Pair scores
follow a random symmetric topic-affinity table (high on the diagonal),
so they are learnable from token identity but deliberately not aligned
with the raw embedding geometry: untrained cosine similarity gets a
mediocre correlation, leaving clear headroom for training.

Run from the repository root:  python fixtures/make_fixtures.py
"""

from pathlib import Path

import numpy as np

HERE = Path(__file__).parent

TOPICS = {
    "music": ["music", "guitar", "piano", "drums", "melody", "concert", "singer", "violin", "chord"],
    "water": ["river", "lake", "swim", "ocean", "wave", "boat", "fishing", "shore", "stream"],
    "food": ["dinner", "cook", "recipe", "kitchen", "bread", "soup", "bake", "meal", "taste"],
    "sport": ["soccer", "train", "sprint", "match", "score", "team", "coach", "stadium", "goal"],
    "travel": ["journey", "suitcase", "airport", "ticket", "hotel", "map", "passport", "tour", "luggage"],
    "study": ["book", "lecture", "exam", "notes", "library", "essay", "teacher", "homework", "course"],
    "garden": ["plant", "flower", "soil", "seed", "water-can", "prune", "lawn", "weed", "harvest"],
    "movies": ["film", "cinema", "actor", "scene", "screen", "ticket-stub", "director", "trailer", "popcorn"],
    "work": ["office", "meeting", "deadline", "report", "email", "desk", "project", "manager", "client"],
    "health": ["doctor", "exercise", "sleep", "vitamin", "clinic", "checkup", "stretch", "diet", "rest"],
    "craft": ["knit", "wood", "paint", "glue", "scissors", "fabric", "carve", "sketch", "sand"],
    "weather": ["rain", "storm", "sunny", "cloud", "forecast", "umbrella", "snow", "wind", "fog"],
}

FILLERS = ["to", "the", "a", "with", "for", "some", "my", "at", "then", "and", "old", "new"]

DIM = 50
N_PAIRS = 200
N_TEST_PAIRS = 60
SEED = 613


def build_vectors(rng):
    vectors = {}
    for topic_words in TOPICS.values():
        center = rng.normal(scale=0.25, size=DIM)
        for word in topic_words:
            vectors[word] = center + rng.normal(scale=0.45, size=DIM)
    for word in FILLERS:
        vectors[word] = rng.normal(scale=0.15, size=DIM)
    return vectors


def build_affinity(rng, names):
    n = len(names)
    table = np.zeros((n, n))
    for i in range(n):
        table[i, i] = rng.uniform(2.5, 5.0)
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = rng.uniform(0.0, 3.2)
    return table


def phrase(rng, topic_words):
    n_topic = int(rng.integers(2, 5))
    words = list(rng.choice(topic_words, size=n_topic, replace=False))
    for _ in range(int(rng.integers(0, 3))):
        words.insert(int(rng.integers(0, len(words) + 1)), FILLERS[int(rng.integers(0, len(FILLERS)))])
    return " ".join(words)


def sts_benchmark_lines(lines):
    """Generic ``score TAB a TAB b`` lines as STS-Benchmark rows (score in column 5)."""
    rows = []
    for i, line in enumerate(lines):
        score, a, b = line.split("\t")
        rows.append(f"activity\tfixture\t2018\t{i:04d}\t{score}\t{a}\t{b}")
    return rows


def sick_lines(lines):
    """Generic lines as SICK rows under a header, scores mapped from 0..5 onto 1..5."""
    rows = ["pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment"]
    for i, line in enumerate(lines, start=1):
        score, a, b = line.split("\t")
        rows.append(f"{i}\t{a}\t{b}\t{1 + 0.8 * float(score):.3f}\tNEUTRAL")
    return rows


def write_lines(name, lines):
    (HERE / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main():
    rng = np.random.default_rng(SEED)
    vectors = build_vectors(rng)
    names = list(TOPICS)
    affinity = build_affinity(rng, names)

    def pair_line():
        ta = int(rng.integers(0, len(names)))
        tb = ta if rng.uniform() < 0.55 else int(rng.integers(0, len(names)))
        score = float(np.clip(affinity[ta, tb] + rng.normal(scale=0.25), 0.0, 5.0))
        return f"{score:.2f}\t{phrase(rng, TOPICS[names[ta]])}\t{phrase(rng, TOPICS[names[tb]])}"

    lines = [pair_line() for _ in range(N_PAIRS)]
    test_lines = [pair_line() for _ in range(N_TEST_PAIRS)]
    for stem, pair_lines in (("activity_pairs", lines), ("activity_pairs_test", test_lines)):
        write_lines(f"{stem}.tsv", pair_lines)
        write_lines(f"{stem}_stsb.tsv", sts_benchmark_lines(pair_lines))
        write_lines(f"{stem}_sick.tsv", sick_lines(pair_lines))

    vec_lines = []
    for word, vec in vectors.items():
        vec_lines.append(word + " " + " ".join(f"{v:.5f}" for v in vec))
    write_lines("wordvecs_50d.txt", vec_lines)
    print(f"wrote {N_PAIRS}+{N_TEST_PAIRS} pairs and {len(vectors)} vectors")


if __name__ == "__main__":
    main()
