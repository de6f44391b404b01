import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_head
from corpusgen import perturb_corpus, random_corpus
from primesrl import RoleLabel, classify, merge_continuations
from primesrl.model import MergedArgument, PredicateInstance, RawArgument


def pred_from(labeled_tokens):
    args = tuple(RawArgument(RoleLabel.parse(lbl), (tok,)) for tok, lbl in labeled_tokens)
    return PredicateInstance(anchor=1, sense=None, arguments=args)


def unit_map(units):
    return {(str(u.base_label), u.tokens): u for u in units}


class TestMergeContinuations:
    def test_base_then_continuation(self):
        pred = load_head("tax_gold").sentences[0].predicates[0]
        units = unit_map(merge_continuations(pred))
        assert set(units) == {("A0", (3, 12)), ("A2", (8,)), ("AM-TMP", (10,))}

    def test_prefix_on_first_part(self):
        # the C- prefix may sit on either part; the unit is the same
        pred = load_head("tax_p4").sentences[0].predicates[0]
        units = unit_map(merge_continuations(pred))
        assert ("A0", (3, 12)) in units

    def test_prefix_on_both_parts(self):
        pred = load_head("tax_p6").sentences[0].predicates[0]
        assert ("A0", (3, 12)) in unit_map(merge_continuations(pred))

    def test_orphan_continuation_becomes_a_unit(self):
        pred = load_head("tax_p7").sentences[0].predicates[0]
        units = unit_map(merge_continuations(pred))
        assert ("A0", (3,)) in units

    def test_plain_duplicates_stay_separate(self):
        pred = pred_from([(3, "A0"), (12, "A0")])
        units = merge_continuations(pred)
        assert sorted(u.tokens for u in units) == [(3,), (12,)]

    def test_duplicate_with_continuation_merges_everything(self):
        pred = pred_from([(3, "A0"), (5, "A0"), (12, "C-A0")])
        units = merge_continuations(pred)
        assert [u.tokens for u in units] == [(3, 5, 12)]

    def test_reference_flag_separates_groups(self):
        pred = pred_from([(3, "A0"), (5, "R-A0"), (12, "C-A0")])
        units = unit_map(merge_continuations(pred))
        assert set(units) == {("A0", (3, 12)), ("R-A0", (5,))}

    def test_token_conservation(self):
        for name in ("tax_gold", "tax_p4", "tax_p6", "lead_p5"):
            pred = load_head(name).sentences[0].predicates[0]
            raw = {t for a in pred.arguments for t in a.extent}
            merged = {t for u in merge_continuations(pred) for t in u.tokens}
            assert merged == raw

    def test_prefix_placement_invariance(self):
        a = pred_from([(3, "A0"), (12, "C-A0")])
        b = pred_from([(3, "C-A0"), (12, "A0")])
        keyed = lambda p: {(str(u.base_label), u.tokens) for u in merge_continuations(p)}
        assert keyed(a) == keyed(b)


@st.composite
def generated_predicates(draw):
    """Predicates of a corpusgen corpus and its perturbation, with the C- prefixes
    of every multi-part argument redistributed over its parts."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gold = random_corpus(rng, n_sentences=3, mode=draw(st.sampled_from(("head", "span"))))
    preds = []
    for corpus in (gold, perturb_corpus(rng, gold)):
        for pred in (p for sentence in corpus.sentences for p in sentence.predicates):
            groups: dict[tuple[str, bool], list[RawArgument]] = {}
            for arg in pred.arguments:
                groups.setdefault((arg.label.base, arg.label.is_reference), []).append(arg)
            args = []
            for (base, is_ref), parts in groups.items():
                if len(parts) > 1 and any(p.label.is_continuation for p in parts):
                    marks = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts))
                                 .filter(any))
                    parts = [RawArgument(RoleLabel(base, mark, is_ref), p.extent)
                             for p, mark in zip(parts, marks)]
                args.extend(parts)
            preds.append(PredicateInstance(pred.anchor, pred.sense, tuple(args)))
    return preds


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(generated_predicates())
def test_units_are_whole_arguments_over_the_raw_tokens(preds):
    for pred in preds:
        units = merge_continuations(pred)
        for unit in units:
            assert not unit.base_label.is_continuation
            assert unit.tokens and list(unit.tokens) == sorted(set(unit.tokens))
        assert ({t for unit in units for t in unit.tokens}
                == {t for arg in pred.arguments for t in arg.extent})


def merged_by_the_rule(pred: PredicateInstance) -> list[MergedArgument]:
    """``merge_continuations`` as its docstring states it, in plain loops: without
    a C- part, one unit per part in argument order; otherwise parts grouped by
    (base, reference flag), groups in order of first appearance, a group with a
    C- part merged into one unit over the union of its tokens, and a group
    without one kept as its parts in argument order."""
    has_continuation = False
    for arg in pred.arguments:
        if arg.label.is_continuation:
            has_continuation = True
    if not has_continuation:
        return [MergedArgument(arg.label, arg.extent) for arg in pred.arguments]
    keys = []
    for arg in pred.arguments:
        key = (arg.label.base, arg.label.is_reference)
        if key not in keys:
            keys.append(key)
    units = []
    for base, is_ref in keys:
        label = RoleLabel(base, False, is_ref)
        parts = [arg for arg in pred.arguments
                 if (arg.label.base, arg.label.is_reference) == (base, is_ref)]
        merge = False
        for part in parts:
            if part.label.is_continuation:
                merge = True
        if merge:
            tokens = []
            for part in parts:
                for token in part.extent:
                    if token not in tokens:
                        tokens.append(token)
            units.append(MergedArgument(label, tuple(sorted(tokens))))
        else:
            for part in parts:
                units.append(MergedArgument(label, part.extent))
    return units


@st.composite
def labelled_predicates(draw):
    """One predicate of up to six parts over tokens 1-6, with labels that share
    bases in every prefix combination, so that parts overlap, repeat a base or
    stand alone as an orphan C- part; no two parts differ in their C- prefix alone."""
    labels = st.sampled_from(["A0", "C-A0", "R-A0", "R-C-A0", "A1", "C-A1", "AM-TMP", "V"])
    extents = st.sets(st.integers(1, 6), min_size=1, max_size=3).map(lambda s: tuple(sorted(s)))
    args = draw(st.lists(st.builds(RawArgument, labels.map(RoleLabel.parse), extents),
                         max_size=6,
                         unique_by=lambda a: (a.label.base, a.label.is_reference, a.extent)))
    return [PredicateInstance(1, None, tuple(args))]


HAND_MADE = {
    "orphan-continuation-alone": [(3, "C-A1")],
    "continuation-with-two-plain-parts": [(2, "A1"), (4, "C-A1"), (6, "A1")],
    "reference-continuation": [(1, "A0"), (2, "R-A0"), (4, "R-C-A0"), (5, "C-A0")],
    "groups-out-of-argument-order": [(1, "A1"), (2, "A0"), (3, "A1"), (4, "C-A0"), (5, "A1")],
}


def without_continuations(pred: PredicateInstance) -> PredicateInstance:
    """``pred`` with every C- prefix dropped: a merged argument's parts become
    plain duplicates."""
    return PredicateInstance(pred.anchor, pred.sense, tuple(
        RawArgument(arg.label._replace(is_continuation=False), arg.extent)
        for arg in pred.arguments))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(generated_predicates() | labelled_predicates())
def test_units_are_those_of_the_grouping_with_or_without_a_continuation(preds):
    for pred in preds + [without_continuations(p) for p in preds]:
        units = merge_continuations(pred)
        assert units == merged_by_the_rule(pred)
        assert all(type(unit) is MergedArgument for unit in units)


@pytest.mark.parametrize("parts", HAND_MADE.values(), ids=HAND_MADE.keys())
def test_hand_made_units_are_those_of_the_docstring_rule(parts):
    pred = pred_from(parts)
    assert merge_continuations(pred) == merged_by_the_rule(pred)


def test_the_docstring_rule_on_hand_made_predicates():
    assert [(str(u.base_label), u.tokens) for u in merged_by_the_rule(pred_from(
        HAND_MADE["reference-continuation"]))] == [("A0", (1, 5)), ("R-A0", (2, 4))]
    assert [(str(u.base_label), u.tokens) for u in merged_by_the_rule(pred_from(
        HAND_MADE["groups-out-of-argument-order"]))] == [("A1", (1,)), ("A1", (3,)),
                                                         ("A1", (5,)), ("A0", (2, 4))]


class TestClassify:
    def test_core_and_modifier(self):
        assert classify(RoleLabel.parse("A0")) == "core"
        assert classify(RoleLabel.parse("AA")) == "core"
        assert classify(RoleLabel.parse("AM-TMP")) == "modifier"
        # prefixes do not change the family
        assert classify(RoleLabel.parse("R-A0")) == "core"
        assert classify(RoleLabel.parse("C-AM-LOC")) == "modifier"

    def test_unknown_base(self):
        label = RoleLabel("XARG")
        with pytest.warns(UserWarning):
            assert classify(label) == "modifier"
