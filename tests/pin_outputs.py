"""Pin the CLI's output on the tests/data sweep as one sha256 per command.

Each command runs in-process through ``cli.main`` from a temporary directory
that holds a copy of tests/data, with relative paths, so the JSON ``flags``
do not depend on where the repository lives. A command's digest covers its
exit code, stdout, stderr, the ``--json`` report bytes and the texts of the
warnings it raised (recorded, so source paths stay out of the digest).

The sweep:
  * ``evaluate --per-label --json`` with both metrics, and ``compare``, on
    every ordered pair within each family: conll09, conll05, and conll05
    with ``--senses``/``--senses-system`` sidecars written from the matching
    conll09 PRED cells;
  * ``stats`` on every file in both formats.

Run ``PYTHONPATH=src python tests/pin_outputs.py`` to rewrite
tests/data/outputs.json; ``tests/test_outputs.py`` recomputes and compares.
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


def _files(fmt: str) -> list[str]:
    return sorted(p.name for p in DATA.glob("*_*" + {"conll09": ".conll", "conll05": ".props"}[fmt]))


def commands() -> list[list[str]]:
    """Every argv of the sweep, in a fixed order."""
    runs = []
    for fmt in ("conll09", "conll05"):
        files = _files(fmt)
        families = sorted({name.split("_")[0] for name in files})
        variants = [[]] if fmt == "conll09" else [[], ["senses"]]
        for family in families:
            members = [name for name in files if name.split("_")[0] == family]
            for variant in variants:
                for gold in members:
                    for system in members:
                        io_args = ["--format", fmt]
                        pair = [gold, system]
                        if fmt == "conll05":
                            io_args += ["--words", family + ".words"]
                        if variant:
                            io_args += ["--senses", gold.split(".")[0] + ".senses"]
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
    return runs


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
        os.chdir(tmp)
        try:
            return {" ".join(argv): _digest(argv) for argv in commands()}
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    pins = sweep()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print("pinned %d commands in %s" % (len(pins), PINS))
