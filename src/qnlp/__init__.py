"""Compositional sentence classification with circuit and tensor backends.

The pipeline: parse a sentence into a typed string diagram, simplify it
with rewrite schemes, compile it to a parameterized quantum circuit or a
tensor network, and train the shared word parameters on a labeled corpus.
"""

from qnlp.circuit import (
    Circuit,
    CircuitAnsatz,
    CircuitAnsatzConfig,
    Symbol,
    WidthOverflow,
    ZeroParameterModel,
    compile_circuit,
)
from qnlp.corpus import LabeledSet, default_lexicon, generate_mc, load_tsv
from qnlp.diagram import Diagram, count_stats, validate
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import (
    Lexicon,
    NoReduction,
    PregroupType,
    SimpleType,
    parse_sentence,
    reduce_types,
    ty,
)
from qnlp.rewrite import RewriteScheme, curry, normal_form, rewrite
from qnlp.simulator import sentence_distribution
from qnlp.tensornet import (
    Network,
    TensorAnsatz,
    TensorAnsatzConfig,
    compile_network,
    contract,
    gradient_hole,
)
from qnlp.training import (
    CircuitModel,
    TensorModel,
    TrainConfig,
    accuracy,
    bce_loss,
    fit,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitAnsatz",
    "CircuitAnsatzConfig",
    "CircuitModel",
    "ConfigError",
    "Diagram",
    "Error",
    "LabeledSet",
    "Lexicon",
    "Network",
    "NoReduction",
    "PregroupType",
    "RewriteScheme",
    "SimpleType",
    "Symbol",
    "TensorAnsatz",
    "TensorAnsatzConfig",
    "TensorModel",
    "TrainConfig",
    "WidthOverflow",
    "ZeroParameterModel",
    "accuracy",
    "bce_loss",
    "compile_circuit",
    "compile_network",
    "contract",
    "count_stats",
    "curry",
    "default_lexicon",
    "fit",
    "generate_mc",
    "gradient_hole",
    "load_tsv",
    "normal_form",
    "parse_sentence",
    "reduce_types",
    "rewrite",
    "sentence_distribution",
    "summarize",
    "ty",
    "validate",
]
