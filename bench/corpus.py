"""Seeded benchmark corpora and the scores they must produce.

One gold corpus per (seed, size) is drawn in span mode with
``tests/corpusgen.random_corpus``; its head-mode twin keeps the last token of
every span part. Each side is perturbed with ``perturb_corpus`` below, which
applies corpusgen's perturbation rates but draws moved head tokens without
replacement. (corpusgen's own ``perturb_corpus`` draws them with replacement,
so two parts of one predicate can land on one token and ``serialize_conll09``
rejects the corpus.)

Every file is written from that one gold: conll09 gold/system, conll05
words/props for gold and system, the two sense sidecars, and a conll09
system file whose form differs at one planted token of the middle sentence.
The expected strict scores come from corpusgen's brute-force oracle, and
the unit and predicate counts from the generated predicates, so they are
computed once per seed here and never by the scorer under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import replace
from pathlib import Path

import corpusgen
from primesrl import (
    Corpus,
    PredicateInstance,
    RawArgument,
    Sentence,
    SenseLabel,
    corpus_stats,
    serialize_conll05,
    serialize_conll09,
)
from primesrl.model import VERB_BASE

SHAPE = dict(max_tokens=30, max_preds=5, max_args=6, with_sense=True)
FILES = ("gold.conll", "sys.conll", "sys_mismatch.conll", "words",
         "gold.props", "sys.props", "gold.senses", "sys.senses")


def head_twin(span: Corpus) -> Corpus:
    """The head-mode corpus whose arguments are the last token of each span part."""
    sentences = []
    for sentence in span.sentences:
        predicates = [
            replace(p, arguments=tuple(RawArgument(a.label, (a.extent[-1],))
                                       for a in p.arguments if a.label.base != VERB_BASE))
            for p in sentence.predicates]
        sentences.append(Sentence(tokens=sentence.tokens, predicates=predicates))
    return Corpus(sentences, mode="head")


def _perturb_predicate(rng: random.Random, pred: PredicateInstance,
                       free_tokens: list[int], mode: str) -> PredicateInstance:
    sense = pred.sense
    if sense is not None and rng.random() < 0.2:
        if rng.random() < 0.5:
            sense = SenseLabel(rng.choice([x for x in corpusgen.LEMMAS if x != sense.lemma]),
                               sense.sense_id)
        else:
            sense = SenseLabel(sense.lemma,
                               "%02d" % rng.choice([i for i in range(1, 4)
                                                    if "%02d" % i != sense.sense_id]))
    units = corpusgen._gold_units(pred)
    used_bases = {b for b, r, _ in units if not r}
    pool = list(free_tokens)  # moved head tokens are drawn without replacement
    args: list[RawArgument] = []
    for base, is_ref, parts in units:
        if base == VERB_BASE:
            args.extend(corpusgen._unit_args(base, False, parts))
            continue
        roll = rng.random()
        if roll < 0.10:
            continue  # dropped argument
        if roll < 0.20 and not is_ref:
            fresh = [b for b in corpusgen.CORE + corpusgen.MODS if b not in used_bases]
            if fresh:
                used_bases.discard(base)
                base = rng.choice(fresh)
                used_bases.add(base)
        elif roll < 0.30 and pool and mode == "head":
            i = rng.randrange(len(parts))
            parts = list(parts)
            parts[i] = (pool.pop(rng.randrange(len(pool))),)
        args.extend(corpusgen._unit_args(base, is_ref, parts))
    args.sort(key=lambda a: a.extent[0])
    return PredicateInstance(anchor=pred.anchor, sense=sense, arguments=tuple(args))


def perturb_corpus(rng: random.Random, corpus: Corpus) -> Corpus:
    """corpusgen.perturb_corpus with moved head tokens drawn without replacement."""
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
            predicates.append(_perturb_predicate(rng, pred, free, corpus.mode))
        if free and rng.random() < 0.05:
            anchor = rng.choice(free)
            rest = [t for t in free if t != anchor]
            predicates.append(corpusgen.random_predicate(
                rng, anchor, rest, corpus.mode, max_args=2, with_sense=True,
                references=False))
            predicates.sort(key=lambda p: p.anchor)
        sentences.append(Sentence(
            tokens=corpusgen._rebuild_tokens(len(sentence.tokens), predicates),
            predicates=predicates))
    return Corpus(sentences, mode=corpus.mode)


def _units(pred: PredicateInstance) -> int:
    # Generated data keeps the conventions: one unprefixed part per unit.
    return sum(1 for a in pred.arguments
               if a.label.base != VERB_BASE and not a.label.is_continuation)


def expected_counts(gold: Corpus, system: Corpus) -> dict:
    """Strict predicate and argument counts, with arguments from the oracle."""
    pred = {"correct": 0, "predicted": 0, "gold": 0}
    arg = {"correct": 0, "predicted": 0, "gold": 0}
    pairs = 0
    for gs, ss in zip(gold.sentences, system.sentences):
        by_anchor = {p.anchor: p for p in ss.predicates}
        pred["predicted"] += len(ss.predicates)
        pred["gold"] += len(gs.predicates)
        arg["predicted"] += sum(_units(p) for p in ss.predicates)
        arg["gold"] += sum(_units(p) for p in gs.predicates)
        for gp in gs.predicates:
            sp = by_anchor.get(gp.anchor)
            if sp is None:
                continue
            pairs += 1
            pred["correct"] += gp.sense == sp.sense
            arg["correct"] += corpusgen.oracle_correct(gp, sp, gold.mode)
    return {"predicates": pred, "arguments": arg, "pairs": pairs}


def _sidecar(corpus: Corpus) -> str:
    return "".join("%d\t%d\t%s\n" % (i, p.anchor, p.sense)
                   for i, sentence in enumerate(corpus.sentences, start=1)
                   for p in sentence.predicates)


def _properties(corpus: Corpus) -> dict:
    stats = corpus_stats(corpus)
    n = stats.total_sentences
    return {"predicates_per_sentence": round(stats.total_predicates / n, 4),
            "arguments_per_sentence": round(stats.total_arguments / n, 4),
            "c_share_pct": round(stats.pct_continuation, 4),
            "r_share_pct": round(stats.pct_reference, 4)}


def generate(seed: int, sentences: int) -> tuple[dict[str, str], dict]:
    """All benchmark files for one seed, and the expectations that go with them."""
    rng = random.Random(seed)
    gold_span = corpusgen.random_corpus(rng, sentences, mode="span", **SHAPE)
    gold_head = head_twin(gold_span)
    sys_head = perturb_corpus(rng, gold_head)
    sys_span = perturb_corpus(rng, gold_span)

    middle = sentences // 2
    planted = sys_head.sentences[middle]
    token = rng.randrange(len(planted.tokens))
    tokens = list(planted.tokens)
    tokens[token] = replace(tokens[token], form="x" + tokens[token].form)
    mismatch = Corpus(list(sys_head.sentences), mode="head")
    mismatch.sentences[middle] = Sentence(tokens=tokens, predicates=planted.predicates)

    words, gold_props = serialize_conll05(gold_span)
    _, sys_props = serialize_conll05(sys_span)
    meta = {
        "seed": seed, "sentences": sentences,
        "head": expected_counts(gold_head, sys_head),
        "span": expected_counts(gold_span, sys_span),
        "mismatch": {"sentence": middle + 1, "token": token + 1,
                     "gold_form": planted.tokens[token].form,
                     "system_form": tokens[token].form},
        "properties": {"gold": _properties(gold_head), "system_head": _properties(sys_head),
                       "system_span": _properties(sys_span)},
    }
    files = {
        "gold.conll": serialize_conll09(gold_head),
        "sys.conll": serialize_conll09(sys_head),
        "sys_mismatch.conll": serialize_conll09(mismatch),
        "words": words, "gold.props": gold_props, "sys.props": sys_props,
        "gold.senses": _sidecar(gold_span), "sys.senses": _sidecar(sys_span),
    }
    digest = hashlib.sha256()
    for name in FILES:
        digest.update(name.encode() + b"\0" + files[name].encode("utf-8") + b"\0")
    meta["input_sha256"] = digest.hexdigest()
    return files, meta


def _generator_digest() -> str:
    digest = hashlib.sha256()
    for path in (Path(__file__), Path(corpusgen.__file__)):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure(cache: Path, seed: int, sentences: int) -> tuple[Path, dict]:
    """The cached corpus directory for (seed, sentences), generating it if absent.

    The directory name stays the same for a seed and size, so the paths the
    CLI echoes into its JSON report do too; ``meta.json`` records a digest
    of the generator sources, and files from another generator are replaced.
    """
    target = cache / ("%d-%d" % (sentences, seed))
    generator = _generator_digest()
    try:
        meta = json.loads((target / "meta.json").read_text(encoding="utf-8"))
        if meta["generator_sha256"] == generator:
            return target, meta
    except (OSError, ValueError, KeyError):
        pass
    staging = target.with_name(target.name + ".tmp%d" % os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    files, meta = generate(seed, sentences)
    meta["generator_sha256"] = generator
    files["meta.json"] = json.dumps(meta, indent=1, sort_keys=True) + "\n"
    for name, text in files.items():
        (staging / name).write_text(text, encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    return target, meta
