"""Scoring toolkit for semantic role labeling output.

Implements a strict metric (joint predicate.sense credit, sense-conditioned
core arguments, whole-argument continuation merging and referent-dependent
reference credit) next to the classic CoNLL-2009 head-based and CoNLL-2005
span-based scorers, so the same predictions can be compared across metrics.
"""

__version__ = "0.1.0"

from .model import (
    EvalCounts,
    MergedArgument,
    PredicateInstance,
    RawArgument,
    RoleLabel,
    ScoreReport,
    SenseLabel,
    Token,
)
from .conll import (
    AlignedCorpus,
    Corpus,
    Sentence,
    align,
    parse_conll05,
    parse_conll09,
    parse_sense_sidecar,
    read,
    read_pairs,
    serialize_conll05,
    serialize_conll09,
)
from .normalize import classify, merge_continuations
from .scoring import (
    corpus_stats,
    evaluate,
    score_pairs,
    score_predicates_legacy09,
    score_predicates_primesrl,
)

__all__ = [
    "AlignedCorpus", "Corpus", "EvalCounts", "MergedArgument",
    "PredicateInstance", "RawArgument", "RoleLabel", "ScoreReport",
    "SenseLabel", "Sentence", "Token", "align", "classify", "corpus_stats",
    "evaluate", "merge_continuations", "parse_conll05", "parse_conll09",
    "parse_sense_sidecar", "read", "read_pairs", "score_pairs",
    "score_predicates_legacy09", "score_predicates_primesrl",
    "serialize_conll05", "serialize_conll09",
]
