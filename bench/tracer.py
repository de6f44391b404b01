"""Layer spans and counters recorded from outside the ``primesrl`` package.

``install`` replaces the public functions of each module with wrappers, in
every module namespace that refers to them, so the calls the CLI makes go
through a ``Tracer``. Spans nest on a stack; a span's self time is its
duration minus the durations of the spans it directly contains, so the self
times of all spans plus the tracer's own bookkeeping add up to the traced
``cli.main`` time. Functions that run once per cell or unit (label parsing,
``classify``) are only counted. Garbage-collector pauses are attributed,
through ``gc.callbacks``, to the innermost open span.
"""

from __future__ import annotations

import functools
import gc
import resource
import time
from collections import Counter

# wrapped name -> span name; several functions may share one span name
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "load_corpus"): "cli.load_corpus",
    ("conll", "parse_conll09"): "conll.parse",
    ("conll", "parse_conll05"): "conll.parse",
    ("conll", "parse_sense_sidecar"): "conll.sidecar",
    ("conll", "align"): "conll.align",
    ("scoring", "evaluate"): "scoring.evaluate",
    ("scoring", "score_predicates_primesrl"): "scoring.score_predicates",
    ("scoring", "score_predicates_legacy09"): "scoring.score_predicates",
    ("scoring", "score_predicates_trivial"): "scoring.score_predicates",
    ("normalize", "merge_continuations"): "normalize.merge",
}
COUNTED = {("normalize", "classify"): "normalize.classify"}
LABEL_PARSERS = {"RoleLabel": "model.role_label", "SenseLabel": "model.sense_label"}


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MB.

    Linux keeps ``ru_maxrss`` across execve, so a child that the parent
    started with vfork would report the parent's peak whenever that is
    higher; ``VmHWM`` belongs to the current image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.stack = [["root", 0.0, 0.0]]  # [name, start, time in child spans]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.gc_time: Counter = Counter()
        self.gc_collections = 0
        self.bookkeeping: Counter = Counter()  # tracer time, by the span it fell in
        self.label_texts: dict[str, Counter] = {name: Counter() for name in LABEL_PARSERS.values()}
        self.sentences_parsed = 0
        self.alignment_failure: int | None = None  # 1-based failing sentence
        self.rss_before_parse: float | None = None
        self.rss_after_parse: float | None = None
        self.live_objects: int | None = None
        self._gc_start = 0.0

    def _before(self, name: str) -> None:
        """Snapshots taken as a span opens; their cost is kept out of every span."""
        if name == "conll.parse" and self.rss_before_parse is None:
            self.rss_before_parse = peak_rss_mb()
        elif name == "scoring.evaluate" and self.live_objects is None:
            self.rss_after_parse = peak_rss_mb()
            self.live_objects = len(gc.get_objects())

    def span(self, name: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = time.perf_counter()
            self._before(name)
            frame = [name, time.perf_counter(), 0.0]
            stack[-1][2] += frame[1] - mark
            self.bookkeeping[stack[-1][0]] += frame[1] - mark
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                sentence = getattr(exc, "sentence", None)
                if name == "conll.align" and isinstance(sentence, int):
                    self.alignment_failure = sentence
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                stack[-1][2] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
            if name == "conll.parse":
                self.sentences_parsed += len(result.sentences)
            return result
        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def label_counter(self, name: str, fn):
        texts = self.label_texts[name]

        @functools.wraps(fn)
        def wrapper(cls, text):
            texts[text] += 1
            return fn(cls, text)
        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_time[self.stack[-1][0]] += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of one traced command, named as in BENCHMARK.json."""
        parsed = self.sentences_parsed
        useful = parsed
        if self.alignment_failure is not None:
            # both files were parsed; only the sentences up to the failing one mattered
            useful = min(parsed, 2 * self.alignment_failure)
        out = {
            "cli.load_corpus_self_s": self.self_time["cli.load_corpus"],
            "cli.render_s": self.self_time["cli.main"],
            "conll.parse_s": self.total["conll.parse"],
            "conll.sidecar_s": self.total["conll.sidecar"],
            "conll.sentences_parsed": parsed,
            "conll.parse_useful_ratio": useful / parsed if parsed else 0.0,
            "conll.align_s": self.total["conll.align"],
            "conll.align_calls": self.calls["conll.align"],
            "conll.parse_rss_mb": (self.rss_after_parse - self.rss_before_parse
                                   if self.rss_after_parse is not None else 0.0),
            "conll.live_objects": self.live_objects or 0,
            "normalize.merge_s": self.total["normalize.merge"],
            "normalize.merge_calls": self.calls["normalize.merge"],
            "normalize.classify_calls": self.calls["normalize.classify"],
            "scoring.evaluate_s": self.total["scoring.evaluate"],
            "scoring.evaluate_calls": self.calls["scoring.evaluate"],
            "scoring.evaluate_self_s": self.self_time["scoring.evaluate"],
            "scoring.score_predicates_s": self.total["scoring.score_predicates"],
            "runtime.gc_s": sum(self.gc_time.values()),
            "runtime.gc_parse_s": self.gc_time["conll.parse"] + self.gc_time["conll.sidecar"],
            "runtime.gc_collections": self.gc_collections,
            "trace.main_s": self.total["cli.main"],
            "trace.self_sum_s": (sum(self.self_time.values()) + sum(self.bookkeeping.values())
                                 - self.bookkeeping["root"]),
        }
        for name, texts in self.label_texts.items():
            calls = sum(texts.values())
            out[name + "_parse_calls"] = calls
            out[name + "_distinct_ratio"] = len(texts) / calls if calls else 0.0
        return out


def install(tracer: Tracer) -> None:
    """Route the package's public functions through ``tracer``."""
    import primesrl
    from primesrl import cli, conll, model, normalize, scoring

    modules = {"cli": cli, "conll": conll, "model": model,
               "normalize": normalize, "scoring": scoring}
    namespaces = [primesrl, *modules.values()]

    def patch(owner: str, attr: str, wrapper_factory, name: str) -> None:
        original = getattr(modules[owner], attr)
        wrapped = wrapper_factory(name, original)
        for namespace in namespaces:
            if getattr(namespace, attr, None) is original:
                setattr(namespace, attr, wrapped)

    for (owner, attr), name in SPANS.items():
        patch(owner, attr, tracer.span, name)
    for (owner, attr), name in COUNTED.items():
        patch(owner, attr, tracer.counter, name)
    for cls_name, name in LABEL_PARSERS.items():
        cls = getattr(model, cls_name)
        cls.parse = classmethod(tracer.label_counter(name, cls.parse.__func__))
    gc.callbacks.append(tracer.on_gc)
