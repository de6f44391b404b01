"""Pin the output fingerprints that ``run.py`` checks every command against.

    python3 bench/pin.py --sentences 2000 --seeds 0-63

For each seed this runs every workload once with the scorer in this
checkout, requires the oracle checks of ``run.problems`` to pass, and
records in ``fingerprints.json`` the digest of the command's exit code,
stdout and JSON bytes, together with the counts and F1 it printed. Entries
are keyed by the digest of the generated input files, so a pin applies
exactly when the inputs are the same. Re-pin only when a change of output is
intended, and say so where that change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sentences", type=int, default=run.SENTENCES)
    parser.add_argument("--seeds", type=_seeds, required=True, help="N or FIRST-LAST")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    import corpus

    pins = run._load_fingerprints()
    for seed in args.seeds:
        fresh = not (run.CACHE / ("%d-%d" % (args.sentences, seed))).exists()
        corpus_dir, meta = corpus.ensure(run.CACHE, seed, args.sentences)
        entry = {"seed": seed, "sentences": args.sentences}
        for workload in run.WORKLOADS:
            out = run.run_child("run", run.command(workload, corpus_dir), corpus_dir)
            found = run.problems(workload, meta, out)
            if found:
                print("seed %d, %s: %s" % (seed, workload, "; ".join(found)), file=sys.stderr)
                return 1
            entry[workload] = {"sha256": out.digest(), "scores": run.scores(workload, out)}
        pins[meta["input_sha256"]] = entry
        if fresh:
            shutil.rmtree(corpus_dir)
        print("pinned seed %d" % seed)
    lines = ["%s: %s" % (json.dumps(key), json.dumps(pins[key], sort_keys=True))
             for key in sorted(pins, key=lambda k: (pins[k]["sentences"], pins[k]["seed"]))]
    run.FINGERPRINTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
