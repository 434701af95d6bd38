"""The four transfer settings and their moving parts.

UE scores pairs with plain embedding cosine.  FT and NT regress a
dense+softmax head onto a sparse distribution over score bins 1..K.
DNT drops the head and trains the encoder so cosine itself matches the
normalized score.  ``transfer.SETTINGS`` defines each setting by the
parameter sets (enc, cla) it trains while wem stays frozen.
"""

from pathlib import Path

import numpy as np

from simxfer.autodiff import Tensor, softmax
from simxfer.data import load_generic_tsv
from simxfer.embeddings import load_embeddings
from simxfer.encoders import EncoderConfig, init_encoder
from simxfer.transfer import (
    SETTINGS,
    SimilarityModel,
    TransferConfig,
    dnt_loss,
    ft_loss,
    init_classifier,
    normalize_score,
    predict,
    sparse_target_distribution,
    trainable_parameter_sets,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# --- score transforms --------------------------------------------------------

print("normalize_score(3, [1,5] -> [0,1]) =", normalize_score(3.0, (1, 5), (0, 1)))
print("normalize_score(-2, [-2,2] -> [-1,1]) =", normalize_score(-2.0, (-2, 2), (-1, 1)))

p = sparse_target_distribution(3.6, 5)
print(f"\nsparse target for score 3.6 over bins 1..5: {p}")
print("  sums to", p.sum(), "and reconstructs", float(np.arange(1, 6) @ p))

# --- the freeze-policy matrix --------------------------------------------------

print("\nfreeze-policy matrix, transfer.SETTINGS (x trains; w trains once wem is unfrozen):")
print("  setting  wem  enc  cla")
for setting, row in SETTINGS.items():
    cells = ["w" if "enc" in row else "-"] + ["x" if name in row else "-" for name in ("enc", "cla")]
    print(f"  {setting:<7}" + "".join(f"{cell:>5}" for cell in cells))
nt_wem = TransferConfig("NT", loss_kind="KL", bins=5, freeze_wem=False)
print("NT with wem unfrozen trains", ", ".join(sorted(trainable_parameter_sets(nt_wem))))

# --- heads and losses -----------------------------------------------------------

emb = load_embeddings(FIXTURES / "wordvecs_50d.txt", 50)
config = EncoderConfig("word-average", input_dim=50)
classifier = init_classifier(embedding_dim=50, bins=5, hidden_width=50, seed=11)
model = SimilarityModel(emb.vocabulary, emb.embedding, config, init_encoder(config),
                        classifier)

pair = load_generic_tsv(FIXTURES / "activity_pairs.tsv", 0, 5).pairs[0]
print(f"\npair: {pair.sentence_a!r} / {pair.sentence_b!r}, annotated {pair.score}")
ue = predict(TransferConfig("UE"), model, pair)
ft = predict(TransferConfig("FT", loss_kind="KL", bins=5), model, pair)
print(f"UE/DNT prediction (cosine): {ue:.4f}")
print(f"FT/NT prediction (head expectation over bins): {ft:.4f}")

target = sparse_target_distribution(normalize_score(pair.score, (0, 5), (1, 5)), 5)
p_hat = softmax(Tensor([0.1, 0.3, 0.2, 0.0, -0.1]))
print(f"\nper-pair head losses vs target {np.round(target, 3)}:")
print(f"  MSE {float(ft_loss(target, p_hat, 'MSE').values):.5f}   "
      f"KL {float(ft_loss(target, p_hat, 'KL').values):.5f}")

value = float(dnt_loss(Tensor([0.2, 0.8]), [0.4, 0.4]).values)
print(f"squared-cosine batch loss for cosines (0.2, 0.8) vs targets 0.4: {value}")
