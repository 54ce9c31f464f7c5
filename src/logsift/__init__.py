"""logsift: online log clustering and template extraction.

Logs are embedded (provider vector + word-count feature + trained linear
encoder), routed to weighted centroid clusters at a cosine threshold,
parsed once per cluster via a completion model, and periodically rebalanced
to repair drift and parallel-ingest duplicates.
"""

from .embedding import (
    EncoderWeights,
    HashingProvider,
    RemoteProvider,
    embed_log,
)
from .index import CentroidIndex, ParseState
from .ingest import IngestConfig, Pipeline
from .metrics import (
    evaluate,
    fga,
    fta,
    grouping_accuracy,
    load_dataset,
    parsing_accuracy,
)
from .parsing import (
    ClusterParser,
    MockCompletionClient,
    TemplateStore,
    build_prompt,
    extract_template,
    load_demonstrations,
)
from .rebalance import merge_pair, rebalance
from .records import LogRecord
from .training import (
    PairDataset,
    TrainConfig,
    build_pair_dataset,
    gradient_check,
    mse_loss,
    predict_similarity,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CentroidIndex",
    "ClusterParser",
    "EncoderWeights",
    "HashingProvider",
    "IngestConfig",
    "LogRecord",
    "MockCompletionClient",
    "PairDataset",
    "ParseState",
    "Pipeline",
    "RemoteProvider",
    "TemplateStore",
    "TrainConfig",
    "build_pair_dataset",
    "build_prompt",
    "embed_log",
    "evaluate",
    "extract_template",
    "fga",
    "fta",
    "gradient_check",
    "grouping_accuracy",
    "load_dataset",
    "load_demonstrations",
    "merge_pair",
    "mse_loss",
    "parsing_accuracy",
    "predict_similarity",
    "rebalance",
    "train",
]
