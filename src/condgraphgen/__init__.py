"""Class-conditional autoregressive graph generation at desk scale.

Blocks of adjacency-matrix rows are generated autoregressively by a
message-passing network conditioned on a class label; a frozen graph
classifier steers generation toward the requested class through a
straight-through Gumbel-softmax relaxation, and a node classifier labels
the generated nodes.  Statistics-based evaluation compares generated and
reference corpora.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .classifiers import (
    ClassifierTrainConfig,
    GraphClassifierParams,
    NodeClassifierParams,
    classifier_accuracy,
    classify_nodes,
    init_graph_classifier,
    init_node_classifier,
    predict_graph_class,
    train_graph_classifier,
)
from .datasets import (
    DatasetSplit,
    build_manifest,
    histogram_from_manifest,
    stratified_split,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DependencyError,
    IngestionError,
    NumericError,
    TuFormatError,
)
from .evaluation import (
    EvalReport,
    GraphStats,
    accuracy_per_class,
    auc,
    build_report,
    corpus_stats,
    graph_stats,
    mean_stats,
)
from .generator import GeneratorConfig, GeneratorParams, init_generator
from .graphs import Graph, OrderedGraph, decompose, synthesize_toy_corpus
from .sampling import generate, generate_batch, sample_num_nodes
from .training import (
    TrainConfig,
    load_train_config,
    train_generator,
    train_step,
)
from .tu_io import load_graph_list, load_tu, save_graph_list, save_tu_dataset

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Checkpoint",
    "ClassifierTrainConfig",
    "ConfigError",
    "DataError",
    "DatasetSplit",
    "DependencyError",
    "EvalReport",
    "GeneratorConfig",
    "GeneratorParams",
    "Graph",
    "GraphClassifierParams",
    "GraphStats",
    "IngestionError",
    "NodeClassifierParams",
    "NumericError",
    "OrderedGraph",
    "TrainConfig",
    "TuFormatError",
    "accuracy_per_class",
    "auc",
    "build_manifest",
    "build_report",
    "classifier_accuracy",
    "classify_nodes",
    "corpus_stats",
    "decompose",
    "generate",
    "generate_batch",
    "graph_stats",
    "histogram_from_manifest",
    "init_generator",
    "init_graph_classifier",
    "init_node_classifier",
    "load_checkpoint",
    "load_graph_list",
    "load_train_config",
    "load_tu",
    "mean_stats",
    "predict_graph_class",
    "sample_num_nodes",
    "save_checkpoint",
    "save_graph_list",
    "save_tu_dataset",
    "stratified_split",
    "synthesize_toy_corpus",
    "train_generator",
    "train_graph_classifier",
    "train_step",
]
