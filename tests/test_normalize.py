import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_head
from corpusgen import perturb_corpus, random_corpus
from primesrl import RoleLabel, classify, merge_continuations
from primesrl.model import PredicateInstance, RawArgument


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


def grouped_units(pred: PredicateInstance) -> list[tuple[RoleLabel, tuple[int, ...]]]:
    """The reference rule: parts grouped by (base, reference flag), a group
    merged into one unit when any part has a C- prefix, its parts kept as
    units otherwise."""
    groups: dict[tuple[str, bool], list[RawArgument]] = {}
    for arg in pred.arguments:
        groups.setdefault((arg.label.base, arg.label.is_reference), []).append(arg)
    units = []
    for (base, is_ref), parts in groups.items():
        label = RoleLabel(base, False, is_ref)
        if any(p.label.is_continuation for p in parts):
            units.append((label, tuple(sorted({t for p in parts for t in p.extent}))))
        else:
            units.extend((label, p.extent) for p in parts)
    return units


def without_continuations(pred: PredicateInstance) -> PredicateInstance:
    """``pred`` with every C- prefix dropped: a merged argument's parts become
    plain duplicates."""
    return PredicateInstance(pred.anchor, pred.sense, tuple(
        RawArgument(arg.label._replace(is_continuation=False), arg.extent)
        for arg in pred.arguments))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(generated_predicates())
def test_units_are_those_of_the_grouping_with_or_without_a_continuation(preds):
    for pred in preds + [without_continuations(p) for p in preds]:
        units = merge_continuations(pred)
        assert (Counter((u.base_label, u.tokens) for u in units)
                == Counter(grouped_units(pred)))
        if not any(arg.label.is_continuation for arg in pred.arguments):
            # one unit per part, in argument order
            assert [tuple(u) for u in units] == [tuple(arg) for arg in pred.arguments]


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
