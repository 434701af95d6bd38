"""simxfer: transfer-learning settings for sentence encoders on
semantic similarity tasks, built on a small reverse-mode autodiff core.

The four settings:

* UE  (unsupervised evaluation) - embedding cosine, no training
* FT  (feature transfer)        - train a classifier head on frozen embeddings
* NT  (network transfer)        - train head + encoder (optionally embeddings)
* DNT (direct network transfer) - train the encoder so cosine matches the
                                  normalized annotated score, no head
"""

from .autodiff import (
    Tape,
    Tensor,
    backward,
    cosine,
    grad_check,
)
from .data import DatasetSplit, ScoredPair, load_generic_tsv, load_sick, load_sts_benchmark, split_dataset
from .embeddings import EmbeddingMatrix, Vocabulary, load_embeddings, tokenize
from .encoders import EncoderConfig, encode, init_encoder
from .metrics import pearson, spearman
from .trainer import (
    AdamState,
    HyperGrid,
    TrainingConfig,
    TrainingHistory,
    adam_step,
    evaluate_split,
    grid_search,
    train,
)
from .transfer import (
    SimilarityModel,
    TransferConfig,
    classifier_forward,
    dnt_loss,
    ft_loss,
    init_classifier,
    normalize_score,
    predict,
    sparse_target_distribution,
    trainable_parameter_sets,
)

__version__ = "0.1.0"
