import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import load_head, load_span
from primesrl import EvalCounts, RoleLabel, SenseLabel, merge_continuations
from primesrl.model import (
    LabelError,
    MergedArgument,
    PredicateInstance,
    RawArgument,
    Token,
    label_sort_key,
)


class TestSenseLabel:
    def test_parse(self):
        s = SenseLabel.parse("buy.01")
        assert (s.lemma, s.sense_id) == ("buy", "01")
        assert str(s) == "buy.01"

    def test_single_digit_is_padded(self):
        assert SenseLabel.parse("buy.1") == SenseLabel.parse("buy.01")
        assert SenseLabel.parse("buy.1").sense_id == "01"

    def test_lemma_may_contain_separators(self):
        s = SenseLabel.parse("buy_out.03")
        assert (s.lemma, s.sense_id) == ("buy_out", "03")
        # dots inside the lemma: the sense number is after the last dot
        assert SenseLabel.parse("a.b.02").lemma == "a.b"

    @pytest.mark.parametrize("bad", ["buy", "buy.", ".01", "buy.xx", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(LabelError):
            SenseLabel.parse(bad)


class TestRoleLabel:
    def test_plain(self):
        lbl = RoleLabel.parse("A0")
        assert lbl == RoleLabel("A0")
        assert lbl.is_core and not lbl.is_modifier and not lbl.is_verb

    def test_prefixes(self):
        lbl = RoleLabel.parse("C-A1")
        assert lbl.is_continuation and not lbl.is_reference
        lbl = RoleLabel.parse("R-A0")
        assert lbl.is_reference and not lbl.is_continuation

    def test_prefix_order_does_not_matter(self):
        assert RoleLabel.parse("C-R-A0") == RoleLabel.parse("R-C-A0")
        assert str(RoleLabel.parse("C-R-A0")) == "R-C-A0"

    @pytest.mark.parametrize("bad", ["C-C-A0", "R-R-A0", "C-R-C-A0", ""])
    def test_rejects_nested_or_empty(self, bad):
        with pytest.raises(LabelError):
            RoleLabel.parse(bad)

    def test_canonical_spellings(self):
        assert RoleLabel.parse("ARG0") == RoleLabel.parse("A0")
        assert RoleLabel.parse("ARGM-TMP") == RoleLabel.parse("AM-TMP")
        assert RoleLabel.parse("TMP") == RoleLabel.parse("AM-TMP")
        assert RoleLabel.parse("C-ARG1") == RoleLabel.parse("C-A1")

    def test_families(self):
        assert RoleLabel.parse("AM-TMP").is_modifier
        assert RoleLabel.parse("V").is_verb
        assert RoleLabel.parse("AA").is_core

    def test_round_trip(self):
        for text in ("A0", "C-A1", "R-A0", "R-C-A2", "AM-TMP", "C-AM-LOC", "V"):
            assert str(RoleLabel.parse(text)) == text

    # label texts: both prefix orders, the ARG, ARGM and bare-tag spellings,
    # unknown bases, bases that the ARG rewrite makes odd (ARGRG0 reads as base
    # ARG0, which itself reads as A0), and short texts over the prefix letters
    TEXTS = st.tuples(
        st.sampled_from(["", "C-", "R-", "C-R-", "R-C-"]),
        st.sampled_from(["A0", "ARG0", "A1", "ARG1", "AA", "ARGA", "AM-TMP", "ARGM-TMP", "TMP",
                         "AM-LOC", "LOC", "V", "ARGV", "XYZ", "ARGRG0", "ARG", "A", "ARGM",
                         "AM-XYZ", "ARGM-XYZ", "ARGC-A0", "ARGR-A0"])
        | st.text(alphabet="ACGMRV0-", min_size=1, max_size=5),
    ).map("".join)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(TEXTS, TEXTS)
    def test_parsed_labels_compare_as_their_text(self, a, b):
        # what lets the legacy rows key their units on labels rather than texts
        try:
            first, second = RoleLabel.parse(a), RoleLabel.parse(b)
        except LabelError:
            assume(False)
        assert (first == second) == (str(first) == str(second))

    def test_a_prefix_inside_a_hand_built_base_is_not_parsed(self):
        assert str(RoleLabel("C-A0")) == str(RoleLabel("A0", True))
        assert RoleLabel("C-A0") != RoleLabel("A0", True)
        assert RoleLabel.parse("ARGRG0").base == "ARG0" != RoleLabel.parse("ARG0").base


def test_label_sort_key_order():
    shuffled = ["AM-TMP", "C-A1", "A1", "R-A0", "A0", "AM-LOC"]
    assert sorted(shuffled, key=label_sort_key) == [
        "A0", "R-A0", "A1", "C-A1", "AM-LOC", "AM-TMP"]


def prf(counts):
    return counts.precision, counts.recall, counts.f1


class TestEvalCounts:
    def test_f1_values(self):
        assert prf(EvalCounts(1, 3, 3)) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        p, r, score = prf(EvalCounts(2, 4, 3))
        assert (p, r) == pytest.approx((0.5, 2 / 3))
        assert score == pytest.approx(4 / 7)

    def test_zero_denominators_yield_zero(self):
        assert prf(EvalCounts(0, 0, 0)) == (0.0, 0.0, 0.0)
        assert prf(EvalCounts(0, 5, 0)) == (0.0, 0.0, 0.0)
        assert prf(EvalCounts(0, 0, 5)) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert prf(EvalCounts(3, 3, 3)) == (1.0, 1.0, 1.0)

    def test_validation(self):
        # _make and _replace go through the constructor, so none skips the checks
        for fields in [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (2, 1, 3), (2, 3, 1)]:
            with pytest.raises(ValueError):
                EvalCounts(*fields)
            with pytest.raises(ValueError):
                EvalCounts._make(fields)
            with pytest.raises(ValueError):
                EvalCounts(0, 3, 3)._replace(**dict(zip(EvalCounts._fields, fields)))

    def test_repr_default_and_tuple_behaviour(self):
        assert repr(EvalCounts(1, 2, 3)) == "EvalCounts(correct=1, predicted=2, gold=3)"
        assert EvalCounts() == (0, 0, 0)
        assert EvalCounts(1, 2, 3)._replace(predicted=4) == EvalCounts(1, 4, 3)
        correct, predicted, gold = EvalCounts(1, 2, 3)
        assert (correct, predicted, gold) == (1, 2, 3)


class TestStructures:
    def test_token_index_must_be_positive(self):
        with pytest.raises(ValueError):
            Token(0, "w")

    def test_raw_argument_extent_validation(self):
        with pytest.raises(ValueError):
            RawArgument(RoleLabel("A0"), ())
        with pytest.raises(ValueError):
            RawArgument(RoleLabel("A0"), (3, 2))
        with pytest.raises(ValueError):
            RawArgument(RoleLabel("A0"), (2, 2))

    def test_predicate_rejects_duplicate_parts(self):
        arg = RawArgument(RoleLabel("A0"), (3,))
        with pytest.raises(ValueError):
            PredicateInstance(anchor=1, sense=None, arguments=(arg, arg))

    def test_merged_argument_never_carries_continuation(self):
        # merge_continuations, the only builder, strips C- and keeps tokens whole
        for case in ("gold", "p1", "p2", "p3", "p4", "p5", "p6", "p7"):
            for corpus in (load_head("tax_" + case), load_span("tax", "tax_" + case)):
                for unit in (u for sentence in corpus.sentences
                             for pred in sentence.predicates for u in merge_continuations(pred)):
                    assert not unit.base_label.is_continuation
                    assert unit.tokens and list(unit.tokens) == sorted(set(unit.tokens))
        unit = MergedArgument(base_label=RoleLabel("A0", False, True), tokens=(1, 2))
        assert unit.is_reference


class TestRecordSemantics:
    """Labels, senses and arguments are named tuples with the dataclass text they had."""

    def test_str_and_repr(self):
        label = RoleLabel("A0", True, True)
        assert str(label) == "R-C-A0"
        assert repr(label) == "RoleLabel(base='A0', is_continuation=True, is_reference=True)"
        sense = SenseLabel("buy", "1")
        assert str(sense) == "buy.01"
        assert repr(sense) == "SenseLabel(lemma='buy', sense_id='01')"
        arg = RawArgument(RoleLabel("A1"), (2, 3))
        assert str(arg) == repr(arg) == (
            "RawArgument(label=RoleLabel(base='A1', is_continuation=False, is_reference=False), "
            "extent=(2, 3))")

    def test_keyword_and_positional_construction_both_validate(self):
        assert SenseLabel("buy", "1").sense_id == "01"
        assert SenseLabel(lemma="buy", sense_id="1") == SenseLabel("buy", "01")
        for args, kwargs in [(("", "01"), {}), ((), {"lemma": "", "sense_id": "01"}),
                             (("buy", "x"), {}), ((), {"lemma": "buy", "sense_id": "x"})]:
            with pytest.raises(LabelError):
                SenseLabel(*args, **kwargs)
        assert RawArgument(label=RoleLabel("A0"), extent=(1, 2)) == RawArgument(RoleLabel("A0"),
                                                                                (1, 2))
        for args, kwargs in [((RoleLabel("A0"), (2, 1)), {}),
                             ((), {"label": RoleLabel("A0"), "extent": (2, 1)}),
                             ((RoleLabel("A0"),), {"extent": ()})]:
            with pytest.raises(ValueError):
                RawArgument(*args, **kwargs)
        assert SenseLabel("buy", "01")._replace(sense_id="2") == SenseLabel("buy", "02")
        with pytest.raises(LabelError):
            SenseLabel("buy", "01")._replace(lemma="")
        with pytest.raises(ValueError):
            RawArgument._make([RoleLabel("A0"), ()])

    def test_equal_records_hash_equal(self):
        pairs = [(RoleLabel.parse("ARG0"), RoleLabel(base="A0")),
                 (SenseLabel.parse("buy.1"), SenseLabel("buy", "01")),
                 (RawArgument(RoleLabel.parse("C-A1"), (4,)),
                  RawArgument(RoleLabel("A1", True), (4,)))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert RoleLabel("A0") != RoleLabel("A0", is_reference=True)

    def test_records_equal_and_sort_like_tuples_of_their_fields(self):
        assert SenseLabel("buy", "01") == ("buy", "01")
        assert RawArgument(RoleLabel("A0"), (3,)) == (("A0", False, False), (3,))
        assert sorted([RoleLabel("A1"), RoleLabel("A0", True), RoleLabel("A0")]) == [
            RoleLabel("A0"), RoleLabel("A0", True), RoleLabel("A1")]

    def test_token_and_predicate_stay_frozen_dataclasses(self):
        # bench/corpus.py:52 and :176 and tests/test_acceptance.py build
        # changed copies with dataclasses.replace, which a NamedTuple rejects
        token = Token(1, "w")
        assert dataclasses.replace(token, form="x") == Token(1, "x")
        with pytest.raises(ValueError):
            dataclasses.replace(token, index=0)
        arg = RawArgument(RoleLabel("A0"), (3,))
        pred = PredicateInstance(anchor=1, sense=None, arguments=(arg,))
        assert dataclasses.replace(pred, arguments=()) == PredicateInstance(1, None, ())
        with pytest.raises(ValueError):
            dataclasses.replace(pred, arguments=(arg, arg))
        for record, name, value in [(token, "form", "x"), (pred, "anchor", 2)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, value)

    def test_duplicate_argument_message(self):
        arg = RawArgument(RoleLabel("A0"), (3,))
        other = RawArgument(RoleLabel("A1"), (3,))
        with pytest.raises(ValueError) as err:
            PredicateInstance(anchor=1, sense=None, arguments=(other, arg, arg))
        assert str(err.value) == "duplicate argument A0 at (3,)"
