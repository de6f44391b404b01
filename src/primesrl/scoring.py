"""One argument-scoring core for three metrics, predicate scorers and corpus statistics.

Metrics:
  * strict ("primesrl"): joint predicate.sense credit, sense-conditioned core
    arguments, whole-argument continuation merging, referent-dependent
    reference credit; identical rules for head and span data.
  * legacy_head (CoNLL-2009 style): every labeled head token is an
    independent unit, literal label match, no sense conditioning.
  * legacy_span (CoNLL-2005 style): left-to-right span chaining, literal
    per-part labels, verb spans excluded, no sense conditioning.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import NamedTuple

from .conll import AlignedCorpus, AlignedSentence, Corpus, _align_sentence, _corpus_pairs
from .model import (
    EvalCounts,
    PredicateInstance,
    ScoreReport,
    label_sort_key,
)
from .normalize import _whole_arguments, classify


class MissingGoldSense(ValueError):
    """A gold predicate without a sense where sense scoring was requested."""


class EmptyCorpus(ValueError):
    """Statistics requested for a corpus without any arguments."""


CORRECT, PREDICTED, GOLD = range(3)  # fields of a [correct, predicted, gold] tally


# ---------------------------------------------------------------------------
# predicate scorers

def _score_predicates(aligned: AlignedCorpus, rule) -> EvalCounts:
    """Count aligned predicates with the scoring core and no units; `rule` None
    credits every pair."""
    run = (lambda pred: [], (), rule, [0, 0, 0], {}, None)
    _score_aligned(aligned.sentences, [run])
    return EvalCounts(*run[3])


def _lemma_and_sense(gp: PredicateInstance, sp: PredicateInstance) -> bool:
    return gp.sense == sp.sense


def _sense_number(gp: PredicateInstance, sp: PredicateInstance) -> bool:
    return gp.sense.sense_id == sp.sense.sense_id


def score_predicates_primesrl(aligned: AlignedCorpus) -> EvalCounts:
    """A predicate is correct only when lemma and sense number both match."""
    return _score_predicates(aligned, _lemma_and_sense)


def score_predicates_legacy09(aligned: AlignedCorpus) -> EvalCounts:
    """Sense-number-only credit: buy.01 vs sell.01 counts as correct."""
    return _score_predicates(aligned, _sense_number)


def score_predicates_trivial(aligned: AlignedCorpus) -> EvalCounts:
    """The always-correct convention for formats carrying no sense data."""
    return _score_predicates(aligned, None)


# ---------------------------------------------------------------------------
# scoring units: (per-label tally label, match key, ...) items per predicate

class _LabelTable(dict):
    """RoleLabel -> ``fact(label)``, or None for a verb label (V, C-V, R-V), as a
    verb part is no unit in any metric; kept for labels of a known family (core,
    modifier or verb) only, so that it grows with the distinct labels of a run
    and ``fact`` runs once for each. Any other label is looked up anew each
    time, so ``classify`` still warns about an unknown base once per unit."""

    def __init__(self, fact):
        super().__init__()
        self.fact = fact

    def __missing__(self, label):
        value = None if label.is_verb else self.fact(label)
        if label.is_core or label.is_modifier or label.is_verb:
            self[label] = value
        return value


# label -> (tally label, core flag); two tables, as the legacy builders never classify
_STRICT = _LabelTable(lambda label: (str(label), classify(label) == "core"))
_LEGACY = _LabelTable(lambda label: (str(label), False))


def _units(keys, table: _LabelTable) -> list[tuple]:
    """Each key, a tuple whose first field is a RoleLabel, as its own unit:
    (tally label, match key, core flag), from the table entry of that label;
    a key whose label the table maps to None is no unit."""
    return [(fact[0], key, fact[1]) for key in keys
            for fact in (table[key[0]],) if fact is not None]


def _strict_units(pred: PredicateInstance) -> list[tuple]:
    """Whole-argument units, each keyed by its (base label, tokens) pair:
    ``merge_continuations`` without its verb units."""
    return _units(_whole_arguments(pred.arguments), _STRICT)


def _head_units(pred: PredicateInstance) -> list[tuple]:
    """Every labeled head token is an independent unit, keyed by its part."""
    return _units(pred.arguments, _LEGACY)


def chain_spans(pred: PredicateInstance) -> list[tuple]:
    """Left-to-right chaining of span parts into units, each the flat tuple
    (label, extent, label, extent, ...) of its parts in extent order.

    An unprefixed X opens a new unit; a following C-X attaches to the most
    recently opened unit with base X; an orphan C-X opens a unit keyed by its
    literal label and later C-X parts chain onto it. A one-part unit is its
    part, so without a C- part, in extent order, the units are the parts.
    """
    previous = 0
    for label, extent in pred.arguments:
        if label.is_continuation or extent[0] < previous:
            break
        previous = extent[0]
    else:
        return list(pred.arguments)
    # both parsers give extent order; a predicate built otherwise may not have it
    units: list[tuple] = []
    open_idx: dict[tuple[str, bool], int] = {}
    for part in sorted(pred.arguments, key=lambda a: a.extent[0]):
        base, continued, is_ref = part.label
        if continued and (base, is_ref) in open_idx:
            units[open_idx[base, is_ref]] += part
        else:
            open_idx[base, is_ref] = len(units)
            units.append(part)
    return units


def _span_units(pred: PredicateInstance) -> list[tuple]:
    """A unit is correct iff its full part sequence matches a gold unit."""
    return _units(chain_spans(pred), _LEGACY)


def _sense_filter(matched: list[tuple], credited: bool) -> list[tuple]:
    """Core units need their predicate's credit."""
    return matched if credited else [unit for unit in matched if not unit[2]]


def _reference_filter(matched: list[tuple], credited: bool) -> list[tuple]:
    """An R- unit needs a matched same-base unit that is not a reference."""
    # a unit's match key is a tuple whose first field is its label
    for unit in matched:
        if unit[1][0].is_reference:
            break
    else:
        return matched
    referents = {unit[1][0].base for unit in matched if not unit[1][0].is_reference}
    return [unit for unit in matched
            if not unit[1][0].is_reference or unit[1][0].base in referents]


# metric -> (unit builder, argument filters applied in order, predicate rule;
#            None credits every pair)
METRICS = {
    "primesrl": (_strict_units, (_sense_filter, _reference_filter), _lemma_and_sense),
    "legacy_head": (_head_units, (), _sense_number),
    "legacy_span": (_span_units, (), None),
}


def _score_sentence(sent: AlignedSentence, units, filters, rule, predicates: list[int],
                    labels: dict[str, list[int]], record) -> None:
    """Tally one aligned sentence's predicates into `predicates` and its units
    into `labels` (label -> tally); pass its own argument tally to `record`
    unless that is None."""
    correct = predicted = gold = 0
    predicates[PREDICTED] += len(sent.pairs) + len(sent.spurious)
    predicates[GOLD] += len(sent.pairs) + len(sent.missed)
    for gp in sent.missed:
        for unit in units(gp):
            labels[unit[0]][GOLD] += 1
            gold += 1
    for sp in sent.spurious:
        for unit in units(sp):
            labels[unit[0]][PREDICTED] += 1
            predicted += 1
    for gp, sp in sent.pairs:
        # one credit per pair, shared by the predicate tally and the argument
        # filters; a gold predicate without a sense means gold without senses
        # (_score_aligned rejects a mix), which credits every pair
        credited = rule is None or gp.sense is None or (sp.sense is not None and rule(gp, sp))
        predicates[CORRECT] += credited
        gold_units = units(gp)
        gold += len(gold_units)
        if gp.arguments == sp.arguments:
            # every unit builder reads only the arguments: the system units are
            # the gold units, and their one-to-one match is all of them
            for unit in gold_units:
                tally = labels[unit[0]]
                tally[GOLD] += 1
                tally[PREDICTED] += 1
            predicted += len(gold_units)
            matched = gold_units
        else:
            # one-to-one multiset match; exact-key equality makes the greedy pass maximal
            available: dict = {}
            for unit in gold_units:
                labels[unit[0]][GOLD] += 1
                available[unit[1]] = available.get(unit[1], 0) + 1
            sys_units = units(sp)
            predicted += len(sys_units)
            matched = []
            for unit in sys_units:
                labels[unit[0]][PREDICTED] += 1
                left = available.get(unit[1])
                if left:
                    available[unit[1]] = left - 1
                    matched.append(unit)
        for keep in filters:
            matched = keep(matched, credited)
        for unit in matched:
            labels[unit[0]][CORRECT] += 1
        correct += len(matched)
    if record is not None:
        record(EvalCounts(correct, predicted, gold))


def _score_aligned(sentences, runs: list[tuple]) -> None:
    """Tally aligned sentences, drawn one at a time, into each run: (unit builder,
    argument filters, predicate rule, predicate tally, label -> tally defaultdict,
    per-sentence record function or None). Gold without senses credits every
    pair; as that is a whole-corpus question, gold mixing sensed and sense-less
    predicates raises MissingGoldSense at the end when some run has a predicate
    rule."""
    sensed = False  # whether some gold predicate has a sense
    unsensed = None  # (sentence, anchor) of the first gold predicate without one
    for sent in sentences:
        if unsensed is None or not sensed:
            # every gold predicate, matched or missed; both lists are in anchor order
            anchors = [gp.anchor for gp, _ in sent.pairs if gp.sense is None]
            anchors += [gp.anchor for gp in sent.missed if gp.sense is None]
            sensed = sensed or len(anchors) < len(sent.pairs) + len(sent.missed)
            if anchors and unsensed is None:
                unsensed = (sent.index, min(anchors))
        for run in runs:
            _score_sentence(sent, *run)
    if sensed and unsensed is not None and any(run[2] is not None for run in runs):
        raise MissingGoldSense("sentence %d: gold predicate at token %d has no sense"
                               % unsensed)


# ---------------------------------------------------------------------------
# corpus statistics

class CorpusStats(NamedTuple):
    total_sentences: int
    total_predicates: int
    total_arguments: int  # raw parts before merging, verb spans excluded
    continuation_count: int
    reference_count: int
    per_label: dict[str, int]  # in display order

    @property
    def pct_continuation(self) -> float:
        return 100.0 * self.continuation_count / self.total_arguments

    @property
    def pct_reference(self) -> float:
        return 100.0 * self.reference_count / self.total_arguments


def corpus_stats(corpus: Corpus) -> CorpusStats:
    predicates = continuations = references = 0
    per_label: Counter[str] = Counter()
    for sentence in corpus.sentences:
        predicates += len(sentence.predicates)
        for pred in sentence.predicates:
            for label, _ in pred.arguments:
                if (fact := _LEGACY[label]) is None:
                    continue
                continuations += label.is_continuation
                references += label.is_reference
                per_label[fact[0]] += 1
    if not per_label:
        raise EmptyCorpus("corpus has no scorable arguments")
    return CorpusStats(len(corpus.sentences), predicates, sum(per_label.values()),
                       continuations, references,
                       {label: per_label[label]
                        for label in sorted(per_label, key=label_sort_key)})


# ---------------------------------------------------------------------------
# dispatch

def score_pairs(pairs, metrics: tuple[str, ...], mode: str, sink=None) -> list[ScoreReport]:
    """Align and score (n, gold, system) sentence triples in one pass; one report per metric.

    Pairs are drawn, aligned and scored one at a time, so an error raised
    while drawing or aligning sentence k stops the pass there. ``sink``, when
    given, is called as ``sink(metric, counts)`` with each sentence's argument
    counts, in order; the reports keep no per-sentence records.
    """
    # one _score_aligned run per metric
    runs = [(*METRICS[metric], [0, 0, 0], defaultdict(lambda: [0, 0, 0]),
             None if sink is None else functools.partial(sink, metric)) for metric in metrics]
    _score_aligned((_align_sentence(*triple) for triple in pairs), runs)
    # every unit is in exactly one label's tally
    return [ScoreReport(metric=metric, mode=mode,
                        predicate_counts=EvalCounts(*predicates),
                        argument_counts=EvalCounts(*map(sum, zip([0, 0, 0], *labels.values()))),
                        per_label={label: EvalCounts(*labels[label])
                                   for label in sorted(labels, key=label_sort_key)},
                        per_sentence=[])
            for metric, (_, _, _, predicates, labels, _) in zip(metrics, runs)]


def evaluate(gold: Corpus, system: Corpus, metric: str) -> ScoreReport:
    """Score a gold/system pair with one metric; the report takes the gold corpus's mode."""
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % metric)
    per_sentence: list[EvalCounts] = []
    [report] = score_pairs(_corpus_pairs(gold, system), (metric,), gold.mode,
                           lambda _, counts: per_sentence.append(counts))
    report.per_sentence = per_sentence
    return report
