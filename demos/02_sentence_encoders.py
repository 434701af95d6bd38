"""From raw text to a sentence embedding.

Pipeline: tokenize -> look up rows of the word-embedding matrix ->
compose with an encoder.  Three encoders are available: plain word
averaging (no parameters), a bidirectional LSTM with mean pooling, and
one with max pooling.  A pair table holds each distinct sentence's token
ids once, zero-padded, and each pair's two row numbers.
"""

from pathlib import Path

import numpy as np

from simxfer.autodiff import cosine
from simxfer.data import ScoredPair
from simxfer.embeddings import load_embeddings, tokenize
from simxfer.encoders import EncoderConfig, init_encoder
from simxfer.transfer import PairTable, SimilarityModel, embed_pairs

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

result = load_embeddings(FIXTURES / "wordvecs_50d.txt", expected_dim=50)
print(f"loaded {len(result.vocabulary)} tokens "
      f"({result.skipped_lines} skipped), matrix {result.embedding.matrix.shape}")

configs = {
    "word-average": EncoderConfig("word-average", input_dim=50),
    "bilstm-avg": EncoderConfig("bilstm-avg", input_dim=50, hidden_dim=16, seed=3),
    "bilstm-max": EncoderConfig("bilstm-max", input_dim=50, hidden_dim=16, seed=3),
}
models = {name: SimilarityModel(result.vocabulary, result.embedding, config,
                                init_encoder(config))
          for name, config in configs.items()}

sentence = "To watch a Film."
print(f"tokenize({sentence!r}) -> {tokenize(sentence)}")
table = PairTable(models["word-average"],
                  [ScoredPair(sentence, "zzz-unseen", 0.0, (0.0, 1.0))])
print(f"its token ids -> {table.ids[0, :table.lengths[0]].tolist()}")
print("out-of-vocabulary words map to the unknown row 0:",
      table.ids[1, :table.lengths[1]].tolist())

print("\nembedding three related phrases under each encoder:")
music, music_too, weather = "guitar melody concert", "piano chord melody", "rain storm umbrella"
table = PairTable(models["word-average"], [ScoredPair(music, music_too, 0.0, (0.0, 1.0)),
                                           ScoredPair(music, weather, 0.0, (0.0, 1.0))])
print(f"  the table's rows: {table.lengths.size} distinct phrases, ids {table.ids.tolist()}")
for name, model in models.items():
    left, right = embed_pairs(model, table)
    same_topic, cross_topic = cosine(left, right).values
    print(f"  {name:<13} dim={left.shape[1]:<3} cos(music, music)={same_topic:+.3f}  "
          f"cos(music, weather)={cross_topic:+.3f}")

# the same seed always rebuilds identical parameters
a = init_encoder(configs["bilstm-avg"])
b = init_encoder(configs["bilstm-avg"])
identical = all(np.array_equal(x.values, y.values)
                for x, y in zip(a.values(), b.values()))
print("\nseeded init is reproducible:", identical)
