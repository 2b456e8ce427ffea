"""Per-layer tracing for the benchmark, installed from outside the library.

`install(ts)` replaces public functions and methods of a freshly imported
`treeshift` with wrappers that count calls and record spans, at every module
binding where the function is reachable (`from .chains import X` makes a
second binding that a patch of `treeshift.chains.X` alone would miss).
`Tracer.uninstall()` puts every original back.

Spans are kept in memory as parallel arrays (name, parent, start, end).
Self time of a span is its duration minus the durations of its direct child
spans; `.s` metrics sum self time by name.  Hot, tiny functions are counted
but not spanned, so that tracing does not swamp what it measures.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self, ts):
        self.ts = ts
        self.counts: dict[str, int] = defaultdict(int)
        self.max_den_bits = 0
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self._scan_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        info = ts.chains.reverse_kernel.cache_info()
        self._cache_start = (info.hits, info.misses)

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._span_start)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_end.append(0.0)
        self._stack.append(idx)
        self._span_start.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self._span_end[idx] = _now()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self._names)
            self._names.append(name)
        return self._name_id[name]

    def span_summary(self) -> dict[str, dict]:
        """{name: {spans, total_s, self_s}} over every recorded span."""
        n = len(self._span_start)
        child = [0.0] * n
        dur = [self._span_end[i] - self._span_start[i] for i in range(n)]
        for i in range(n):
            p = self._span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"spans": 0, "total_s": 0.0, "self_s": 0.0} for name in self._names}
        for i in range(n):
            row = out[self._names[self._span_name[i]]]
            row["spans"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def top_spans(self) -> list[dict]:
        """The outermost spans (one per public call made by the benchmark)."""
        return [
            {
                "name": self._names[self._span_name[i]],
                "start": self._span_start[i],
                "end": self._span_end[i],
            }
            for i in range(len(self._span_start))
            if self._span_parent[i] < 0
        ]

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return wrapper

    def _spanned(self, name, fn, after=None):
        counts = self.counts
        name_id = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[name] += 1
            idx = open_(name_id)
            try:
                result = fn(*args, **kw)
            finally:
                close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _spanned_generator(self, name, fn, items_counter):
        """One span per resumption, so the consumer's work between items is
        not charged to the generator."""
        counts = self.counts
        name_id = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[name] += 1
            it = fn(*args, **kw)
            while True:
                idx = open_(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                counts[items_counter] += 1
                yield item

        return wrapper

    def _patch_attr(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, make) -> None:
        """Replace module.attr, and every other treeshift binding of the same
        function object, with make(original)."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in self.ts.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks ---------------------------------------------------------------

    def _note_spec(self, spec) -> None:
        bits = max(
            [x.denominator.bit_length() for x in spec.pi]
            + [x.denominator.bit_length() for k in spec.kernels for row in k for x in row]
        )
        self.max_den_bits = max(self.max_den_bits, bits)

    def _enter_scan(self, fn):
        def wrapper(*args, **kw):
            self._scan_depth += 1
            try:
                return fn(*args, **kw)
            finally:
                self._scan_depth -= 1

        return wrapper

    def _after_scan(self, scan) -> None:
        self.counts["cocycles.scan_positive_windows.windows"] += scan.windows

    def _after_pipeline(self, result) -> None:
        spec, slides = result
        self._note_spec(spec)
        self.counts["slides.pipeline.slides"] += len(slides)

    def _after_verify(self, report) -> None:
        if not report.markov_factorization:
            self.counts["slides.verify.markov_false"] += 1

    def _miss_counter(self, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(exc, *args, **kw):
            if self._scan_depth:
                counts["cocycles.scan.misses"] += 1
            return init(exc, *args, **kw)

        return wrapper

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        spans = self.span_summary()

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        info = self.ts.chains.reverse_kernel.cache_info()
        windows = c["cocycles.scan_positive_windows.windows"]
        misses = c["cocycles.scan.misses"]
        return {
            "words.Word.new": c["words.Word.new"],
            "words.multiply.calls": c["words.multiply"],
            "words.ball.s": self_s("words.ball"),
            "chains.spec_hash.calls": c["chains.spec_hash"],
            "chains.kernel_for_letter.calls": c["chains.kernel_for_letter"],
            "chains.reverse_kernel.hits": info.hits - self._cache_start[0],
            "chains.reverse_kernel.misses": info.misses - self._cache_start[1],
            "chains.enumerate_cylinders.windows": c["chains.enumerate_cylinders.windows"],
            "chains.enumerate_cylinders.s": self_s("chains.enumerate_cylinders"),
            "chains.SampledTree.lookups": c["chains.SampledTree"],
            "chains.SampledTree.s": self_s("chains.SampledTree"),
            "chains.sample_ball.s": self_s("chains.sample_ball"),
            "chains.cylinder_measure.calls": c["chains.cylinder_measure"],
            "chains.max_den_bits": self.max_den_bits,
            "graphs.classify.calls": c["graphs.classify"],
            "graphs.classify.s": self_s("graphs.classify"),
            "graphs.support_edges.calls": c["graphs.support_edges"],
            "graphs.special_sets.s": self_s("graphs.special_sets"),
            "cocycles.letter_image.calls": c["cocycles.letter_image"],
            "cocycles.scan_positive_windows.calls": c["cocycles.scan_positive_windows"],
            "cocycles.scan_positive_windows.windows": windows,
            "cocycles.scan_positive_windows.s": self_s("cocycles.scan_positive_windows"),
            "cocycles.scan.misses": misses,
            "cocycles.scan.useful_ratio": windows / (windows + misses) if windows + misses else 0.0,
            "cocycles.omega.calls": c["cocycles.omega"],
            "cocycles.RecodedView.lookups": c["cocycles.RecodedView"],
            "slides.pushforward.calls": c["slides.pushforward"],
            "slides.pushforward.s": self_s("slides.pushforward"),
            "slides.verify_slide.s": self_s("slides.verify_slide"),
            "slides.replay.s": self_s("slides.replay"),
            "slides.pipeline.slides": c["slides.pipeline.slides"],
            "slides.verify.markov_false": c["slides.verify.markov_false"],
            "randspec.spec_gen.s": self_s("randspec.spec_gen"),
        }


def install(ts) -> Tracer:
    """Wrap the layer boundaries of the treeshift modules in `ts`."""
    tr = Tracer(ts)
    words, chains, graphs, cocycles, slides, randspec = (
        ts.words, ts.chains, ts.graphs, ts.cocycles, ts.slides, ts.randspec,
    )
    count, span = tr._counted, tr._spanned

    tr._patch_attr(words.Word, "__init__", count("words.Word.new", words.Word.__init__))
    tr._patch_function(words, "multiply", lambda f: count("words.multiply", f))
    tr._patch_function(words, "ball", lambda f: span("words.ball", f))

    tr._patch_attr(chains.MarkovSpec, "__hash__", count("chains.spec_hash", chains.MarkovSpec.__hash__))
    tr._patch_function(chains, "kernel_for_letter", lambda f: count("chains.kernel_for_letter", f))
    tr._patch_function(chains, "cylinder_measure", lambda f: count("chains.cylinder_measure", f))
    tr._patch_function(
        chains,
        "enumerate_cylinders",
        lambda f: tr._spanned_generator(
            "chains.enumerate_cylinders", f, "chains.enumerate_cylinders.windows"
        ),
    )
    tr._patch_attr(
        chains.SampledTree, "__getitem__", span("chains.SampledTree", chains.SampledTree.__getitem__)
    )
    tr._patch_function(chains, "sample_ball", lambda f: span("chains.sample_ball", f))

    tr._patch_function(graphs, "classify", lambda f: span("graphs.classify", f))
    tr._patch_function(graphs, "support_edges", lambda f: count("graphs.support_edges", f))
    tr._patch_function(graphs, "special_sets", lambda f: span("graphs.special_sets", f))

    tr._patch_attr(
        cocycles.RewriteRule,
        "letter_image",
        count("cocycles.letter_image", cocycles.RewriteRule.letter_image),
    )
    tr._patch_attr(cocycles.CocycleTable, "omega", count("cocycles.omega", cocycles.CocycleTable.omega))
    tr._patch_attr(
        cocycles.RecodedView,
        "__getitem__",
        count("cocycles.RecodedView", cocycles.RecodedView.__getitem__),
    )
    tr._patch_function(
        cocycles,
        "scan_positive_windows",
        lambda f: tr._enter_scan(span("cocycles.scan_positive_windows", f, tr._after_scan)),
    )
    tr._patch_attr(ts.errors.MissingCoordinate, "__init__", tr._miss_counter(ts.errors.MissingCoordinate.__init__))

    tr._patch_function(slides, "pushforward", lambda f: span("slides.pushforward", f, tr._note_spec))
    tr._patch_function(slides, "verify_slide", lambda f: span("slides.verify_slide", f, tr._after_verify))
    tr._patch_function(slides, "replay", lambda f: span("slides.replay", f))
    tr._patch_function(
        slides,
        "generator_ergodic_pipeline",
        lambda f: span("slides.pipeline", f, tr._after_pipeline),
    )

    tr._patch_function(
        randspec, "random_properly_ergodic_spec", lambda f: span("randspec.spec_gen", f)
    )
    return tr
