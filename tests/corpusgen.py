"""Seeded random corpus generation, perturbation and a brute-force matcher.

Gold corpora follow the standard annotation conventions: discontinuous
arguments are split into maximal runs with the C- prefix on every non-initial
part, references point at an existing same-predicate argument, and bases are
unique per predicate. Perturbations keep those conventions so that generated
system files look like real model output; prefix redistribution is applied
separately by the tests that need it.
"""

from __future__ import annotations

import random

from primesrl import (
    Corpus,
    PredicateInstance,
    RawArgument,
    RoleLabel,
    Sentence,
    SenseLabel,
    Token,
)
from primesrl.model import VERB_BASE
from primesrl.normalize import classify, merge_continuations

LEMMAS = ["buy", "sell", "lead", "tax", "stare", "look"]
CORE = ["A0", "A1", "A2", "A3"]
MODS = ["AM-TMP", "AM-LOC", "AM-MNR"]


def _unit_args(base: str, is_ref: bool, parts: list[tuple[int, ...]]) -> list[RawArgument]:
    """Emit one unit as conventional raw arguments: leftmost part unprefixed."""
    parts = sorted(parts, key=lambda p: p[0])
    return [RawArgument(RoleLabel(base, i > 0, is_ref), part)
            for i, part in enumerate(parts)]


def _random_runs(rng: random.Random, free: list[int], mode: str,
                 max_parts: int) -> list[list[tuple[int, ...]]]:
    """Partition a subset of the free tokens into part extents, grouped by unit."""
    rng.shuffle(free)
    if mode == "head":
        parts = [(t,) for t in free]
    else:
        # contiguous runs over the free positions
        parts = []
        ordered = sorted(free)
        i = 0
        while i < len(ordered):
            j = i
            while (j + 1 < len(ordered) and ordered[j + 1] == ordered[j] + 1
                   and j - i < 2 and rng.random() < 0.5):
                j += 1
            parts.append(tuple(ordered[i:j + 1]))
            i = j + 1
        rng.shuffle(parts)
    units = []
    i = 0
    while i < len(parts) and len(units) < max_parts:
        if len(parts) - i >= 2 and rng.random() < 0.25:
            units.append(parts[i:i + 2])
            i += 2
        else:
            units.append(parts[i:i + 1])
            i += 1
    return units


def random_predicate(rng: random.Random, anchor: int, free_tokens: list[int],
                     mode: str, max_args: int = 4, with_sense: bool = True,
                     references: bool = True) -> PredicateInstance:
    n_take = rng.randint(0, min(max_args, len(free_tokens)))
    taken = rng.sample(free_tokens, n_take)
    unit_parts = _random_runs(rng, taken, mode, max_args)
    bases = rng.sample(CORE + MODS, min(len(unit_parts), len(CORE + MODS)))
    args: list[RawArgument] = []
    nonref_bases: list[str] = []
    ref_bases: set[str] = set()
    for parts, base in zip(unit_parts, bases):
        single = len(parts) == 1 and len(parts[0]) == 1
        referable = [b for b in nonref_bases if b not in ref_bases]
        if references and single and referable and rng.random() < 0.3:
            target = rng.choice(referable)
            ref_bases.add(target)
            args.extend(_unit_args(target, True, parts))
        else:
            args.extend(_unit_args(base, False, parts))
            nonref_bases.append(base)
    if mode == "span":
        args.append(RawArgument(RoleLabel(VERB_BASE), (anchor,)))
    sense = SenseLabel(rng.choice(LEMMAS), "%02d" % rng.randint(1, 3)) if with_sense else None
    args.sort(key=lambda a: a.extent[0])
    return PredicateInstance(anchor=anchor, sense=sense, arguments=tuple(args))


def _rebuild_tokens(n_tokens: int, predicates: list[PredicateInstance]) -> list[Token]:
    return [Token(index=i, form="w%d" % i) for i in range(1, n_tokens + 1)]


def random_sentence(rng: random.Random, max_tokens: int = 8, max_preds: int = 2,
                    max_args: int = 4, mode: str = "head",
                    with_sense: bool | None = None,
                    references: bool = True) -> Sentence:
    if with_sense is None:
        with_sense = mode == "head"
    n = rng.randint(3, max_tokens)
    n_preds = rng.randint(1, min(max_preds, n))
    anchors = sorted(rng.sample(range(1, n + 1), n_preds))
    predicates = []
    for anchor in anchors:
        free = [t for t in range(1, n + 1) if t not in anchors]
        predicates.append(random_predicate(rng, anchor, free, mode,
                                           max_args=max_args, with_sense=with_sense,
                                           references=references))
    return Sentence(tokens=_rebuild_tokens(n, predicates), predicates=predicates)


def random_corpus(rng: random.Random, n_sentences: int = 3, mode: str = "head",
                  **kwargs) -> Corpus:
    return Corpus([random_sentence(rng, mode=mode, **kwargs)
                   for _ in range(n_sentences)], mode=mode)


# ---------------------------------------------------------------------------
# perturbation

def _gold_units(pred: PredicateInstance) -> list[tuple[str, bool, list[tuple[int, ...]]]]:
    """Recover (base, is_ref, parts) unit triples from conventional raw args."""
    # bases are unique per predicate in generated data, so (base, is_ref)
    # identifies the unit even when parts of different units interleave
    groups: dict[tuple[str, bool], list[tuple[int, ...]]] = {}
    for arg in pred.arguments:
        key = (arg.label.base, arg.label.is_reference)
        groups.setdefault(key, []).append(arg.extent)
    return [(base, is_ref, parts) for (base, is_ref), parts in groups.items()]


def perturb_predicate(rng: random.Random, pred: PredicateInstance,
                      free_tokens: list[int], mode: str) -> PredicateInstance:
    sense = pred.sense
    if sense is not None and rng.random() < 0.2:
        if rng.random() < 0.5:
            sense = SenseLabel(rng.choice([x for x in LEMMAS if x != sense.lemma]),
                               sense.sense_id)
        else:
            sense = SenseLabel(sense.lemma,
                               "%02d" % rng.choice([i for i in range(1, 4)
                                                    if "%02d" % i != sense.sense_id]))
    units = _gold_units(pred)
    used_bases = {b for b, r, _ in units if not r}
    pool = list(free_tokens)  # moved head tokens are drawn without replacement
    args: list[RawArgument] = []
    for base, is_ref, parts in units:
        if base == VERB_BASE:
            args.extend(_unit_args(base, False, parts))
            continue
        roll = rng.random()
        if roll < 0.10:
            continue  # dropped argument
        if roll < 0.20 and not is_ref:
            fresh = [b for b in CORE + MODS if b not in used_bases]
            if fresh:
                used_bases.discard(base)
                base = rng.choice(fresh)
                used_bases.add(base)
        elif roll < 0.30 and pool and mode == "head":
            i = rng.randrange(len(parts))
            parts = list(parts)
            parts[i] = (pool.pop(rng.randrange(len(pool))),)
        args.extend(_unit_args(base, is_ref, parts))
    args.sort(key=lambda a: a.extent[0])
    return PredicateInstance(anchor=pred.anchor, sense=sense, arguments=tuple(args))


def perturb_corpus(rng: random.Random, corpus: Corpus) -> Corpus:
    sentences = []
    for sentence in corpus.sentences:
        anchors = {p.anchor for p in sentence.predicates}
        used = {t for p in sentence.predicates for a in p.arguments for t in a.extent}
        free = [t.index for t in sentence.tokens
                if t.index not in anchors and t.index not in used]
        predicates = []
        for pred in sentence.predicates:
            if rng.random() < 0.05:
                continue  # missed predicate
            predicates.append(perturb_predicate(rng, pred, free, corpus.mode))
        if free and rng.random() < 0.05:
            anchor = rng.choice(free)
            rest = [t for t in free if t != anchor]
            spurious = random_predicate(rng, anchor, rest, corpus.mode,
                                        max_args=2,
                                        with_sense=sentence.predicates[0].sense is not None
                                        if sentence.predicates else True,
                                        references=False)
            predicates.append(spurious)
            predicates.sort(key=lambda p: p.anchor)
        sentences.append(Sentence(tokens=_rebuild_tokens(len(sentence.tokens), predicates),
                                  predicates=predicates))
    return Corpus(sentences, mode=corpus.mode)


# ---------------------------------------------------------------------------
# brute-force matcher (independent oracle for the strict argument rules)

def oracle_correct(gold_pred: PredicateInstance, sys_pred: PredicateInstance,
                   mode: str = "head") -> int:
    """Max correct count over all one-to-one unit assignments, applying the
    anchor/label/token/sense/reference rules directly."""
    gunits = [u for u in merge_continuations(gold_pred) if not u.base_label.is_verb]
    sunits = [u for u in merge_continuations(sys_pred) if not u.base_label.is_verb]
    sense_ok = gold_pred.sense is None or (
        sys_pred.sense is not None and sys_pred.sense == gold_pred.sense)

    def assignment_score(pairs: dict[int, int]) -> int:
        def base_ok(i: int) -> bool:
            j = pairs.get(i)
            if j is None or sunits[i].tokens != gunits[j].tokens:
                return False
            return sense_ok or classify(sunits[i].base_label) != "core"

        total = 0
        for i in pairs:
            if not base_ok(i):
                continue
            unit = sunits[i]
            if unit.is_reference:
                referents = [k for k, v in enumerate(sunits)
                             if not v.is_reference and v.base_label.base == unit.base_label.base]
                if not referents or not any(base_ok(k) for k in referents):
                    continue
            total += 1
        return total

    best = 0
    def search(i: int, used: frozenset, pairs: dict[int, int]):
        nonlocal best
        if i == len(sunits):
            best = max(best, assignment_score(pairs))
            return
        search(i + 1, used, pairs)
        for j, g in enumerate(gunits):
            if j not in used and str(g.base_label) == str(sunits[i].base_label):
                search(i + 1, used | {j}, {**pairs, i: j})

    search(0, frozenset(), {})
    return best
