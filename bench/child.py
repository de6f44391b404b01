"""Run one ``srl-score`` command in this fresh interpreter and time it.

Usage: child.py MODE RESULT_JSON [CLI ARGS...]

MODE is ``setup`` (import and build the parser only), ``run`` (then call
``primesrl.cli.main`` on the CLI arguments) or ``trace`` (the same, with the
layer tracer of ``tracer.py`` installed). The command's stdout and stderr
pass through unchanged and the process exits with the command's exit code;
the timings go to RESULT_JSON.

Every mode also times ``calibrate``, a fixed piece of interpreter work that
does not touch ``primesrl``: twice after set-up in ``setup`` mode, and just
before and just after ``cli.main`` otherwise. Its time tracks the speed the
shared host lends this process at that moment, and ``run.py`` uses it to
report set-up and command times at a reference speed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibrate() -> float:
    """Seconds taken by fixed work like the scorer's: split lines, build tuples, lists, dicts."""
    lines = ["%d\tword%d\tlemma%d\t_\tA%d\t%s" % (i, i % 97, i % 31, i % 5, "x" * (i % 7))
             for i in range(4000)]
    start = time.perf_counter()
    for _ in range(16):
        rows = [tuple(line.split("\t")) for line in lines]
        by_label: dict = {}
        for row in rows:
            by_label.setdefault(row[4], []).append((row[1], row[2], int(row[0])))
        pairs = [[row[0], row[1]] for row in rows]
        del rows, by_label, pairs
    return time.perf_counter() - start


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # setup_s: the import and parser construction every srl-score run pays
    start = time.perf_counter()
    import primesrl.cli as cli
    cli.build_parser()
    result = {"setup_s": time.perf_counter() - start, "module": cli.__file__}

    code = 0
    if mode == "setup":
        result["calibration_s"] = [calibrate(), calibrate()]
    else:
        before = calibrate()
        layers = None
        if mode == "trace":
            import tracer
            layers = tracer.Tracer()
            tracer.install(layers)
        start = time.perf_counter()
        code = cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        sys.stdout.flush()

        from tracer import peak_rss_mb
        result["peak_rss_mb"] = peak_rss_mb()
        if layers is not None:
            result["layers"] = layers.metrics()
        result["calibration_s"] = [before, calibrate()]

    import json
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
