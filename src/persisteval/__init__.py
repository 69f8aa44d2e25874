"""persisteval: measure how persistent retrieval effectiveness is across
evolving test-collection snapshots.

The package parses TREC-format runs and qrels, scores them with P@k,
nDCG, and bpref, and relates each system to a pivot run shared between
two snapshots of the collection (evaluation environments). The resulting
persistence quantities (result delta, delta of relative improvements,
effect ratio, unpaired t-tests) are assembled into tables, scatter data,
and per-topic delta series, either programmatically or through the
``persisteval`` command-line tool.
"""

from .corpus_diff import CorpusSnapshot, DiffSummary, diff_collections
from .errors import (
    DataError,
    DiagnosticWarning,
    EvaluationError,
    ParseError,
    UsageError,
)
from .measures import (
    ARPValue,
    MeasureId,
    TopicScoreVector,
    arp,
    bpref,
    ndcg,
    p_at_k,
    parse_measure,
    score_run,
)
from .persistence import (
    EEPair,
    PersistenceCell,
    delta_ri,
    effect_ratio,
    persistence_cell,
    relative_improvement,
    result_delta,
    topic_deltas,
)
from .report import (
    PersistenceTable,
    ScatterPoint,
    TopicDeltaSeries,
    er_dri_points,
    persistence_table,
    topic_delta_series,
)
from .run_io import (
    Qrels,
    Run,
    TopicSet,
    core_topics,
    parse_qrels,
    parse_run,
    parse_topics,
)
from .stats import TTestResult, t_cdf, t_test_unpaired

__version__ = "0.1.0"

__all__ = [
    "ARPValue",
    "CorpusSnapshot",
    "DataError",
    "DiagnosticWarning",
    "DiffSummary",
    "EEPair",
    "EvaluationError",
    "MeasureId",
    "ParseError",
    "PersistenceCell",
    "PersistenceTable",
    "Qrels",
    "Run",
    "ScatterPoint",
    "TTestResult",
    "TopicDeltaSeries",
    "TopicScoreVector",
    "TopicSet",
    "UsageError",
    "arp",
    "bpref",
    "core_topics",
    "delta_ri",
    "diff_collections",
    "effect_ratio",
    "er_dri_points",
    "ndcg",
    "p_at_k",
    "parse_measure",
    "parse_qrels",
    "parse_run",
    "parse_topics",
    "persistence_cell",
    "persistence_table",
    "relative_improvement",
    "result_delta",
    "score_run",
    "t_cdf",
    "t_test_unpaired",
    "topic_delta_series",
    "topic_deltas",
]
