"""Core data model: labels, sentences, predicates, arguments and score tallies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

CORE_BASES = ("A0", "A1", "A2", "A3", "A4", "A5", "AA")
VERB_BASE = "V"

# Adjunct tags that circulate without the "AM-" prefix in some data files.
MODIFIER_TAGS = frozenset({
    "ADJ", "ADV", "CAU", "COM", "CXN", "DIR", "DIS", "DSP", "EXT", "GOL",
    "LOC", "LVB", "MNR", "MOD", "NEG", "PNC", "PRD", "PRP", "PRR", "REC",
    "TM", "TMP",
})


class LabelError(ValueError):
    """A role or sense label string that cannot be parsed."""


class _SenseFields(NamedTuple):
    lemma: str
    sense_id: str


class SenseLabel(_SenseFields):
    """A predicate sense as a (lemma, sense number) pair, e.g. buy.01.

    The sense number is zero-padded to two digits on construction so that
    "buy.1" and "buy.01" compare equal.
    """

    __slots__ = ()

    def __new__(cls, lemma: str, sense_id: str):
        if not lemma:
            raise LabelError("empty lemma in sense label")
        if not sense_id or not sense_id.isdigit():
            raise LabelError("sense number must be a digit string, got %r" % (sense_id,))
        return tuple.__new__(cls, (lemma, sense_id.zfill(2)))

    @classmethod
    def _make(cls, iterable) -> "SenseLabel":
        return cls(*iterable)  # so that _replace checks as well

    @classmethod
    def parse(cls, text: str) -> "SenseLabel":
        # Lemmas may contain dots; the sense number is everything after the last one.
        lemma, sep, sense_id = text.rpartition(".")
        if not sep:
            raise LabelError("sense label %r has no '.' separator" % (text,))
        return cls(lemma, sense_id)

    def __str__(self) -> str:
        return f"{self.lemma}.{self.sense_id}"


def _canonical_base(text: str) -> str:
    """Map the long and shorthand PropBank spellings onto one canonical base."""
    if not text:
        raise LabelError("empty role label")
    if text.startswith("ARG"):
        text = "A" + text[3:]  # ARG0 -> A0, ARGM-TMP -> AM-TMP
    if text in MODIFIER_TAGS:
        text = "AM-" + text  # bare shorthand, e.g. TMP
    return text


class RoleLabel(NamedTuple):
    """A normalized argument label: base role plus optional C-/R- prefixes."""

    base: str
    is_continuation: bool = False
    is_reference: bool = False

    @classmethod
    def parse(cls, text: str) -> "RoleLabel":
        cont = ref = False
        rest = text
        while True:
            if rest.startswith("C-"):
                if cont:
                    raise LabelError("nested continuation prefix in %r" % (text,))
                cont = True
                rest = rest[2:]
            elif rest.startswith("R-"):
                if ref:
                    raise LabelError("nested reference prefix in %r" % (text,))
                ref = True
                rest = rest[2:]
            else:
                break
        return cls(_canonical_base(rest), cont, ref)

    @property
    def is_verb(self) -> bool:
        return self.base == VERB_BASE

    @property
    def is_core(self) -> bool:
        return self.base in CORE_BASES

    @property
    def is_modifier(self) -> bool:
        return self.base.startswith("AM-")

    def __str__(self) -> str:
        return ("R-" if self.is_reference else "") + ("C-" if self.is_continuation else "") + self.base


def label_sort_key(label: str):
    """Stable display order: core labels ascending, then modifiers alphabetical."""
    parsed = RoleLabel.parse(label)
    family = 0 if parsed.is_core else (2 if parsed.is_modifier else 1)
    return (family, parsed.base, parsed.is_reference, parsed.is_continuation)


@dataclass(frozen=True, slots=True)
class Token:
    index: int  # 1-based position in the sentence
    form: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("token index must be >= 1")


class _RawArgumentFields(NamedTuple):
    label: RoleLabel
    extent: tuple[int, ...]


class RawArgument(_RawArgumentFields):
    """One labeled part: a single head token or one contiguous span run.

    The extent is checked on construction to be sorted and duplicate-free,
    so it can serve as a scoring unit's token tuple as it is.
    """

    __slots__ = ()

    def __new__(cls, label: RoleLabel, extent: tuple[int, ...]):
        if not extent:
            raise ValueError("argument extent is empty")
        if list(extent) != sorted(set(extent)):
            raise ValueError("argument extent must be sorted and duplicate-free")
        return tuple.__new__(cls, (label, extent))

    @classmethod
    def _make(cls, iterable) -> "RawArgument":
        return cls(*iterable)  # so that _replace checks as well


@dataclass(frozen=True, slots=True)
class PredicateInstance:
    anchor: int
    sense: SenseLabel | None
    arguments: tuple[RawArgument, ...]

    def __post_init__(self):
        if len(set(self.arguments)) < len(self.arguments):
            seen = set()
            for arg in self.arguments:
                if arg in seen:
                    raise ValueError("duplicate argument %s at %s" % (arg.label, arg.extent))
                seen.add(arg)

    @classmethod
    def _parsed(cls, anchor: int, sense: SenseLabel | None,
                arguments: tuple[RawArgument, ...]) -> PredicateInstance:
        """The predicate as the parsers build it, without the duplicate check,
        which no parsed column can fail: a CoNLL-2009 column has one cell per
        token, and the CoNLL-2005 reader raises on overlapping spans."""
        pred = cls.__new__(cls)
        _set_anchor(pred, anchor)
        _set_sense(pred, sense)
        _set_arguments(pred, arguments)
        return pred


# the slot setters, which the frozen __setattr__ does not guard
_set_anchor = PredicateInstance.anchor.__set__
_set_sense = PredicateInstance.sense.__set__
_set_arguments = PredicateInstance.arguments.__set__


class MergedArgument(NamedTuple):
    """One argument after continuation merging, as merge_continuations gives it.

    base_label never carries a C- prefix; the reference flag is preserved.
    tokens are non-empty, sorted and duplicate-free. The grouping helper
    behind merge_continuations guarantees both, so nothing is checked here.
    The strict scorer keys its units on the same (label, tokens) pairs.
    """

    base_label: RoleLabel
    tokens: tuple[int, ...]

    @property
    def is_reference(self) -> bool:
        return self.base_label.is_reference


class _CountFields(NamedTuple):
    correct: int = 0
    predicted: int = 0
    gold: int = 0


class EvalCounts(_CountFields):
    """Correct, predicted and gold unit counts, checked on construction."""

    __slots__ = ()

    def __new__(cls, correct: int = 0, predicted: int = 0, gold: int = 0):
        if min(correct, predicted, gold) < 0:
            raise ValueError("negative count")
        if correct > predicted or correct > gold:
            raise ValueError("correct exceeds predicted or gold")
        return tuple.__new__(cls, (correct, predicted, gold))

    @classmethod
    def _make(cls, iterable) -> "EvalCounts":
        return cls(*iterable)  # so that _replace checks as well

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class ScoreReport:
    metric: str  # primesrl | legacy_head | legacy_span
    mode: str  # head | span
    predicate_counts: EvalCounts
    argument_counts: EvalCounts
    per_label: dict[str, EvalCounts]
    per_sentence: list[EvalCounts]  # per aligned sentence, in order; only evaluate fills it
