"""Pin the CLI's output on the tests/data sweep as one sha256 per command.

Each command runs in-process through ``cli.main`` from a temporary directory
that holds a copy of tests/data, with relative paths, so the JSON ``flags``
do not depend on where the repository lives. A command's digest covers its
exit code, stdout, stderr, the ``--json`` report bytes and the texts of the
warnings it raised (recorded, so source paths stay out of the digest).

The sweep:
  * ``evaluate --per-label --json`` with both metrics, and ``compare``, on
    every ordered pair within each family: conll09, and conll05 without
    sidecars, with both ``--senses`` and ``--senses-system``, with
    ``--senses`` only and with ``--senses-system`` only; the sidecars are
    written from the matching conll09 PRED cells;
  * ``stats`` on every file in both formats;
  * commands that end in an error or a warning, on inputs built from the
    buy_gold sentence (``ERROR_INPUTS``): unequal sentence counts whose first
    extra sentence is malformed, in both directions; a gold parse error before
    an alignment error and an alignment error before a system parse error;
    an empty gold file; a malformed gold sentence 1 with a system file that
    is not UTF-8; ``--format conll05`` without ``--words``; PRED cells
    that are not ``lemma.sense`` in both files; gold without senses against
    a wrong-sense system and sensed gold against a system without senses;
    sense sidecar rows that name no predicate (one token off, or a
    sentence past the end), on the gold side and on the system side; and,
    past the first batch of sentences that ``score_pairs`` draws before it
    scores them, an unknown role base, then a PRED cell that is not
    ``lemma.sense``, then a form mismatch, so that the parse warning comes
    before the unit warning and both before the alignment error.

Run ``PYTHONPATH=src python tests/pin_outputs.py`` to rewrite
tests/data/outputs.json; it first prints each command whose digest was
added, removed or changed. ``tests/test_outputs.py`` recomputes and compares,
and lists the same commands when it fails, without writing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import warnings
from pathlib import Path

from primesrl import cli

DATA = Path(__file__).parent / "data"
PINS = DATA / "outputs.json"
REPORT = "report.json"
PRED_COL = 13  # 0-based PRED column of the CoNLL-2009 layout


def _sidecar(conll09: str) -> str:
    """A sense sidecar holding every non-`_` PRED cell of a CoNLL-2009 file."""
    rows = []
    for sent_no, block in enumerate(conll09.strip("\n").split("\n\n"), start=1):
        for line in block.splitlines():
            cells = line.split("\t")
            if cells[PRED_COL] != "_":
                rows.append("%d\t%s\t%s\n" % (sent_no, cells[0], cells[PRED_COL]))
    return "".join(rows)


SENTENCE = (DATA / "buy_gold.conll").read_text().strip() + "\n\n"
RENAMED = SENTENCE.replace("John", "Mary")  # same rows, one other token form
MALFORMED = SENTENCE.replace("\tA0\n", "\n")  # a row loses its argument column
UNKNOWN = SENTENCE.replace("\tA0\n", "\tA9\n")  # an unknown role base, which warns when scored
UNSENSED = SENTENCE.replace("buy.01", "buy")  # a PRED cell that is not lemma.sense


def _sentences(*sentences: str) -> bytes:
    return "".join(sentences).encode()


# file name -> bytes, written next to the fixtures for the error commands
ERROR_INPUTS = {
    "two.conll": _sentences(SENTENCE, SENTENCE),
    "three.conll": _sentences(SENTENCE, SENTENCE, SENTENCE),
    "three_bad3.conll": _sentences(SENTENCE, SENTENCE, MALFORMED),
    "three_bad1.conll": _sentences(MALFORMED, SENTENCE, SENTENCE),
    "three_renamed2.conll": _sentences(SENTENCE, RENAMED, SENTENCE),
    "three_renamed1_bad3.conll": _sentences(RENAMED, SENTENCE, MALFORMED),
    "empty.conll": b"# no sentences\n",
    "latin1.conll": SENTENCE.replace("car", "caf\xe9").encode("latin-1"),
    "unsensed.conll": _sentences(SENTENCE, SENTENCE).replace(b"buy.01", b"buy"),
    "two_sell.conll": _sentences(SENTENCE, SENTENCE).replace(b"buy.01", b"sell.01"),
    # the lead predicate is token 7 of the one lead sentence
    "lead_off.senses": b"1\t6\tlead.01\n",
    "lead_02.senses": b"1\t7\tlead.02\n",
    "lead_s9.senses": b"1\t7\tlead.01\n9\t7\tlead.01\n",
    # 70 sentences: sentences 66-68 are in the second batch of 64 that score_pairs draws
    "seventy_unknown66.conll": _sentences(*[SENTENCE] * 65, UNKNOWN, *[SENTENCE] * 4),
    "seventy_unknown66_unsensed67_renamed68.conll": _sentences(
        *[SENTENCE] * 65, UNKNOWN, UNSENSED, RENAMED, SENTENCE, SENTENCE),
}
LEAD = ["--format", "conll05", "--words", "lead.words"]
ERROR_COMMANDS = [
    ["evaluate", "three_bad3.conll", "two.conll"],
    ["evaluate", "two.conll", "three_bad3.conll"],
    ["compare", "three_bad3.conll", "two.conll"],
    ["evaluate", "three_bad1.conll", "three_renamed2.conll"],
    ["evaluate", "three.conll", "three_renamed1_bad3.conll"],
    ["evaluate", "empty.conll", "three_bad3.conll"],
    ["evaluate", "three_bad1.conll", "latin1.conll"],
    ["evaluate", "--format", "conll05", "tax_gold.props", "tax_p1.props"],
    ["evaluate", "seventy_unknown66.conll", "seventy_unknown66_unsensed67_renamed68.conll"],
    ["evaluate", "unsensed.conll", "unsensed.conll"],
    *([*command, gold, system] for gold, system in (("unsensed.conll", "two_sell.conll"),
                                                    ("two.conll", "unsensed.conll"))
      for command in (["evaluate"], ["evaluate", "--metric", "legacy"], ["compare"])),
    ["evaluate", *LEAD, "--senses", "lead_off.senses", "--senses-system", "lead_02.senses",
     "lead_gold.props", "lead_gold.props"],
    ["compare", *LEAD, "--senses", "lead_off.senses", "--senses-system", "lead_02.senses",
     "lead_gold.props", "lead_gold.props"],
    ["evaluate", *LEAD, "--senses", "lead_gold.senses", "--senses-system", "lead_off.senses",
     "lead_gold.props", "lead_p1.props"],
    ["evaluate", *LEAD, "--senses", "lead_s9.senses", "lead_gold.props", "lead_gold.props"],
]


def _files(fmt: str) -> list[str]:
    return sorted(p.name for p in DATA.glob("*_*" + {"conll09": ".conll", "conll05": ".props"}[fmt]))


def commands() -> list[list[str]]:
    """Every argv of the sweep, in a fixed order."""
    runs = []
    for fmt in ("conll09", "conll05"):
        files = _files(fmt)
        families = sorted({name.split("_")[0] for name in files})
        variants = [()] if fmt == "conll09" else [(), ("gold", "system"), ("gold",),
                                                   ("system",)]
        for family in families:
            members = [name for name in files if name.split("_")[0] == family]
            for variant in variants:
                for gold in members:
                    for system in members:
                        io_args = ["--format", fmt]
                        pair = [gold, system]
                        if fmt == "conll05":
                            io_args += ["--words", family + ".words"]
                        if "gold" in variant:
                            io_args += ["--senses", gold.split(".")[0] + ".senses"]
                        if "system" in variant:
                            pair[:0] = ["--senses-system", system.split(".")[0] + ".senses"]
                        for metric in ("primesrl", "legacy"):
                            runs.append(["evaluate", *io_args, "--metric", metric,
                                         "--per-label", "--json", REPORT, *pair])
                        runs.append(["compare", *io_args, *pair])
        for name in files:
            io_args = ["--format", fmt]
            if fmt == "conll05":
                io_args += ["--words", name.split("_")[0] + ".words"]
            runs.append(["stats", *io_args, name])
    return runs + ERROR_COMMANDS


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    report = Path(REPORT)
    data = report.read_bytes() if report.exists() else b""
    report.unlink(missing_ok=True)
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue(), data,
                 *("%s: %s" % (w.category.__name__, w.message) for w in caught)):
        part = part if isinstance(part, bytes) else part.encode()
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def sweep() -> dict[str, str]:
    """Run the sweep in a scratch copy of tests/data; command text -> digest."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for path in DATA.iterdir():
            if path.name != PINS.name:
                shutil.copy(path, tmp)
        for path in DATA.glob("*.conll"):
            Path(tmp, path.stem + ".senses").write_text(_sidecar(path.read_text()))
        for name, data in ERROR_INPUTS.items():
            Path(tmp, name).write_bytes(data)
        os.chdir(tmp)
        try:
            return {" ".join(argv): _digest(argv) for argv in commands()}
        finally:
            os.chdir(cwd)


def changes(digests: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """"added: COMMAND", "removed: COMMAND" or "changed: COMMAND" for each command
    whose digest in ``digests`` differs from ``pinned``, in command order."""
    return ["%s: %s" % ("added" if command not in pinned else
                        "removed" if command not in digests else "changed", command)
            for command in sorted(digests.keys() | pinned.keys())
            if digests.get(command) != pinned.get(command)]


if __name__ == "__main__":
    pins = sweep()
    changed = changes(pins, json.loads(PINS.read_text()) if PINS.exists() else {})
    for line in changed:
        print(line)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print("pinned %d commands in %s" % (len(pins), PINS))
