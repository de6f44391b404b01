"""Every benchmark workload, run once on the benchmark's 40-sentence smoke corpus,
untraced and traced.

Each command must pass the benchmark's own oracle checks and reproduce the
output fingerprint pinned for it in ``bench/fingerprints.json``, and a traced
command's span self times must add up to its traced ``cli.main`` time, so a
change that would make ``bench/run.py`` count a wrong outcome fails here first.
The strict pass must also build units once per agreeing predicate pair.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from primesrl import align, cli, parse_conll05, parse_conll09, parse_sense_sidecar
from primesrl.scoring import METRICS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look up their class's module here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("bench_run", BENCH / "run.py"), _load("bench_corpus", BENCH / "corpus.py")


def _wrong(bench, mode: str) -> dict[str, list[str]]:
    """What is wrong with each workload's command, run once in ``mode``."""
    run, corpus = bench
    corpus_dir, meta = corpus.ensure(run.CACHE, 1, 40)
    pins = run._load_fingerprints()[meta["input_sha256"]]
    found = {}
    for workload in run.WORKLOADS:
        out = run.run_child(mode, run.command(workload, corpus_dir), corpus_dir)
        wrong = run.problems(workload, meta, out)
        if not wrong and out.digest() != pins[workload]["sha256"]:
            wrong = ["output differs from the pin; scores now %s" % (run.scores(workload, out),)]
        if mode == "trace" and not wrong and not run._accounted(out.timings["layers"]):
            wrong = ["span self times do not add up to the traced cli.main time"]
        if wrong:
            found[workload] = wrong
    return found


def test_every_workload_matches_its_pin(bench):
    assert _wrong(bench, "run") == {}


def test_every_traced_workload_matches_its_pin_and_accounts_for_its_time(bench):
    # the tracer rebinds package functions and label parsers by name
    assert _wrong(bench, "trace") == {}


def _strict_builds(corpus_dir: Path, workload: str) -> int:
    """Unit builds of one strict pass over a workload's files, from library
    ``align``: one per missed or spurious predicate, two per pair whose
    arguments differ and one per pair whose arguments agree."""
    def read(name: str) -> str:
        return (corpus_dir / name).read_text(encoding="utf-8")
    if workload == "span-compare":
        gold, system = (parse_conll05(read("words"), read(side + ".props"),
                                      senses=parse_sense_sidecar(read(side + ".senses")))
                        for side in ("gold", "sys"))
    else:
        gold, system = parse_conll09(read("gold.conll")), parse_conll09(read("sys.conll"))
    builds = 0
    for sentence in align(gold, system).sentences:
        builds += len(sentence.missed) + len(sentence.spurious)
        builds += sum(1 if gp.arguments == sp.arguments else 2 for gp, sp in sentence.pairs)
    return builds


@pytest.mark.parametrize("workload", ["head-evaluate", "span-compare"])
def test_an_agreeing_pair_builds_its_strict_units_once(bench, workload, monkeypatch):
    # the strict row's unit builder, counted as the CLI runs the workload's command
    run, corpus = bench
    corpus_dir, _ = corpus.ensure(run.CACHE, 1, 40)
    builder, *rules = METRICS["primesrl"]
    builds = []

    def counted(pred):
        builds.append(pred)
        return builder(pred)

    monkeypatch.setitem(METRICS, "primesrl", (counted, *rules))
    monkeypatch.chdir(run.ROOT)  # the command names its files relative to the checkout
    assert cli.main(run.command(workload, corpus_dir)) == 0
    assert len(builds) == _strict_builds(corpus_dir, workload)
