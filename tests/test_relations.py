"""Metamorphic relations of the scorer: how the counts must change when the
input changes in a known way, checked without an expected value.

Swap: with both sides fully sensed, scoring the system as gold and the gold
as system keeps every ``correct`` count and swaps ``predicted`` with ``gold``,
on the predicate row, the argument row, each per-label row and each sentence's
row, for every metric, in head and span mode.
"""

import random

from hypothesis import given, settings, strategies as st

from corpusgen import perturb_corpus, random_corpus
from primesrl.scoring import METRICS, evaluate


def rows(report) -> dict:
    """Each row of ``report`` by its name: (correct, predicted, gold)."""
    named = {"predicates": report.predicate_counts, "arguments": report.argument_counts}
    named.update((("label", label), counts) for label, counts in report.per_label.items())
    named.update((("sentence", n), counts)
                 for n, counts in enumerate(report.per_sentence, start=1))
    return {name: tuple(counts) for name, counts in named.items()}


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]))
def test_swapping_the_sides_swaps_predicted_and_gold(seed, mode):
    rng = random.Random(seed)
    gold = random_corpus(rng, n_sentences=6, mode=mode, max_tokens=20, max_preds=4,
                         max_args=5, with_sense=True)
    system = perturb_corpus(rng, gold)
    assert all(pred.sense is not None for corpus in (gold, system)
               for sentence in corpus.sentences for pred in sentence.predicates)
    for metric in METRICS:
        forward = rows(evaluate(gold, system, metric))
        backward = rows(evaluate(system, gold, metric))
        assert backward == {name: (correct, gold_count, predicted)
                            for name, (correct, predicted, gold_count) in forward.items()}
