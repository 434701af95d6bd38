"""From raw text to a sentence embedding.

Pipeline: tokenize -> look up rows of the word-embedding matrix ->
compose with an encoder.  Three encoders are available: plain word
averaging (no parameters), a bidirectional LSTM with mean pooling, and
one with max pooling.
"""

from pathlib import Path

import numpy as np

from simxfer.autodiff import cosine, lookup_rows
from simxfer.embeddings import load_embeddings, tokenize
from simxfer.encoders import EncoderConfig, encode, init_encoder
from simxfer.transfer import index_sentences

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

result = load_embeddings(FIXTURES / "wordvecs_50d.txt", expected_dim=50)
print(f"loaded {len(result.vocabulary)} tokens "
      f"({result.skipped_lines} skipped), matrix {result.embedding.matrix.shape}")

sentence = "To watch a Film."
tokens = tokenize(sentence)
print(f"tokenize({sentence!r}) -> {tokens}")
print(f"its token ids -> {index_sentences(result.vocabulary, [sentence])[sentence]}")
print("out-of-vocabulary words map to the unknown row 0:",
      index_sentences(result.vocabulary, ["zzz-unseen"]))

configs = {
    "word-average": EncoderConfig("word-average", input_dim=50),
    "bilstm-avg": EncoderConfig("bilstm-avg", input_dim=50, hidden_dim=16, seed=3),
    "bilstm-max": EncoderConfig("bilstm-max", input_dim=50, hidden_dim=16, seed=3),
}

print("\nembedding three related phrases under each encoder:")
phrases = ["guitar melody concert", "piano chord melody", "rain storm umbrella"]
ids = index_sentences(result.vocabulary, phrases)
for name, config in configs.items():
    params = init_encoder(config)
    embeddings = []
    for phrase in phrases:
        vectors = lookup_rows(result.embedding.matrix, ids[phrase])
        embeddings.append(encode(params, config, vectors))
    same_topic = float(cosine(embeddings[0], embeddings[1]).values)
    cross_topic = float(cosine(embeddings[0], embeddings[2]).values)
    dim = embeddings[0].shape[0]
    print(f"  {name:<13} dim={dim:<3} cos(music, music)={same_topic:+.3f}  "
          f"cos(music, weather)={cross_topic:+.3f}")

# the same seed always rebuilds identical parameters
a = init_encoder(configs["bilstm-avg"])
b = init_encoder(configs["bilstm-avg"])
identical = all(np.array_equal(x.values, y.values)
                for x, y in zip(a.tensors(), b.tensors()))
print("\nseeded init is reproducible:", identical)
