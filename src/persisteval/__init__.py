"""persisteval: measure how persistent retrieval effectiveness is across
evolving test-collection snapshots.

The package parses TREC-format runs and qrels, scores them with P@k,
nDCG, and bpref, and relates each system to a pivot run shared between
two snapshots of the collection (evaluation environments). The resulting
persistence quantities (result delta, delta of relative improvements,
effect ratio, unpaired t-tests) are assembled into tables, scatter data,
and per-topic delta series, either programmatically or through the
``persisteval`` command-line tool. ``import persisteval`` loads no stage;
each stage's module is imported on the first lookup of a name it exports.
"""

import importlib

__version__ = "0.1.0"

# Each stage module and the public names it defines.
_EXPORTS = {
    "corpus_diff": ("CorpusSnapshot", "DiffSummary", "diff_collections"),
    "errors": ("DataError", "DiagnosticWarning", "EvaluationError", "ParseError", "UsageError"),
    "measures": (
        "ARPValue", "MeasureId", "TopicScoreVector",
        "arp", "bpref", "ndcg", "p_at_k", "parse_measure", "score_run",
    ),
    "persistence": (
        "EEPair", "PersistenceCell", "delta_ri", "effect_ratio", "persistence_cell",
        "relative_improvement", "result_delta", "topic_deltas",
    ),
    "report": (
        "PersistenceTable", "ScatterPoint", "TopicDeltaSeries", "er_dri_points",
        "persistence_table", "pivot_delta_series", "table_from_json", "topic_delta_series",
    ),
    "run_io": (
        "Qrels", "Run", "TopicSet", "core_topics", "parse_qrels", "parse_run", "parse_topics",
    ),
    "stats": ("TTestResult", "t_test_unpaired"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import a stage module, or the module that defines an export, on first
    lookup (PEP 562). Any other name is an AttributeError, so ``hasattr``
    works and ``from persisteval import cli`` imports the submodule."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
