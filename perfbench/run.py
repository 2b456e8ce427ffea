"""Benchmark runner for treeshift.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Runs one closed-loop workload (one client, one op after another, one
thread) in this process, checks every output, writes a result file under
perfbench/out/ and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 does a
fixed amount of work twice, untraced and then traced, and reports the
per-layer metrics.  --quick runs tiny sizes for inner loops; its numbers are
never used for gating.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
TAIL_BEYOND = 10
# Time of reference_work on the fast stretches of a 2-core x86-64 host with
# Python 3.11.7; the unit of the rescaled times (see HostSpeed).
REF_SECONDS = 0.045
MODULES = ("errors", "words", "chains", "graphs", "cocycles", "slides", "randspec")

sys.path.insert(0, str(HERE))
from tracing import install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import treeshift afresh, so no cache (such as the lru_cache on
    chains.reverse_kernel) survives from an earlier pass in this process."""
    for name in [m for m in sys.modules if m == "treeshift" or m.startswith("treeshift.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"treeshift.{name}") for name in MODULES}
    return SimpleNamespace(modules=list(mods.values()), **mods)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class OutputCheck:
    """Digests every op's output and counts the ops whose output is wrong.

    An output is wrong when its digest differs from the frozen reference (for
    the default seed) or from the first output for the same input (any seed),
    or when the workload's invariants fail; the invariants are tested once
    per input.
    """

    def __init__(self, wl, frozen):
        self.wl = wl
        self.reference = dict(enumerate(frozen)) if frozen else {}
        self.checked: set[int] = set()
        self.digests: list[list] = []
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, idx, why):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"input {idx}: {why}")

    def record(self, ts, inp, idx, out, error) -> None:
        if error is not None:
            self._fail(idx, error)
            return
        d = digest(self.wl.serialise(ts, inp, out))
        self.digests.append([idx, d])
        if d != self.reference.setdefault(idx, d):
            self._fail(idx, "output digest differs from the reference")
            return
        if idx not in self.checked:
            self.checked.add(idx)
            problems = self.wl.check(ts, inp, out)
            if problems:
                self._fail(idx, "; ".join(problems))


def run_op(wl, ts, inp):
    t0 = time.perf_counter()
    try:
        out, error = wl.run(ts, inp), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t0


def tail(times: list[float]) -> tuple[int, int, float]:
    """The highest whole percentile (nearest rank) with at least TAIL_BEYOND
    ops above it, the number of ops above it, and its value; the maximum when
    there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= TAIL_BEYOND:
            return p, n - rank, ordered[rank - 1]
    return 100, 0, ordered[-1]


def reference_work() -> int:
    """A fixed pure-Python kernel of the kind treeshift spends its time on:
    Fraction arithmetic on growing denominators, tuples and dicts."""
    size = 0
    for _ in range(5):
        total = Fraction(0)
        seen: dict = {}
        for i in range(1, 1500):
            total += Fraction(i % 7 + 1, i) * Fraction(3, i % 5 + 2)
            key = (i % 97, i % 89)
            seen[key] = seen.get(key, 0) + 1
            seen[(key, i % 3)] = tuple(sorted(key))
        size += total.denominator.bit_length() + len(seen)
    return size


class HostSpeed:
    """Rescales measured times to a host of fixed speed.

    The host's speed drifts: identical ops ran up to 1.7 times as slowly for
    stretches of a second to minutes, whatever the input, and the process's
    CPU time drifts with them.  So `reference_work` is timed before and after
    every timed region, and the region's time is multiplied by
    REF_SECONDS / (mean of those two reference times).  A change to treeshift
    leaves the reference alone, so it moves the rescaled times as it moves
    the raw ones.
    """

    def __init__(self):
        reference_work()  # warm up
        self.last = self._reference()
        self.samples = [self.last]

    @staticmethod
    def _reference() -> float:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0

    def rescale(self, dt: float) -> float:
        """`dt`, just measured after the previous reference, in reference seconds."""
        before, after = self.last, self._reference()
        self.last = after
        self.samples.append(after)
        return dt * 2 * REF_SECONDS / (before + after)


def measure(wl, seed, seconds, frozen):
    """Set up at least SETUP_REPEATS times and for at least SETUP_MIN_SECONDS
    (a cheap set-up is too short to time once), then cycle through the
    inputs until `seconds` have passed.  Every set-up and op is timed between
    two runs of the reference kernel and rescaled by HostSpeed; the raw times
    are recorded too.
    """
    speed = HostSpeed()
    raw_setups: list[float] = []
    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_MIN_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        ts = fresh_import()
        inputs = wl.setup(ts, seed, wl.inputs)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(speed.rescale(raw_setups[-1]))
    check = OutputCheck(wl, frozen)
    gc.collect()
    times: list[float] = []
    per_op: list[float] = []
    order: list[int] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        idx = len(times) % len(inputs)
        out, error, dt = run_op(wl, ts, inputs[idx])
        times.append(dt)
        per_op.append(speed.rescale(dt))
        order.append(idx)
        check.record(ts, inputs[idx], idx, out, error)
    pct, beyond, tail_s = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_runs_s": setups,
        "raw_setup_runs_s": raw_setups,
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "op_inputs": order,
        "op_times_s": per_op,
        "raw_op_times_s": times,
        "raw_ops_per_s": len(times) / sum(times),
        "raw_op_p50_s": statistics.median(times),
        "reference_s": speed.samples,
    }
    return metrics, check, len(times), extra


def traced_pass(wl, seed, check, traced):
    """Fresh import, set-up and one op per input, timed as a whole; outputs
    are checked after the tracer is removed so checks are not traced."""
    gc.collect()
    t0 = time.perf_counter()
    ts = fresh_import()
    tracer = install(ts) if traced else None
    try:
        inputs = wl.setup(ts, seed, wl.trace_inputs)
        results = [run_op(wl, ts, inp) for inp in inputs]
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    for idx, (out, error, _) in enumerate(results):
        check.record(ts, inputs[idx], idx, out, error)
    return wall, tracer


def measure_traced(wl, seed, frozen):
    """The traced pass must give the outputs of the untraced one: both
    passes record into one OutputCheck."""
    fresh_import()  # load the standard-library modules treeshift needs, once
    check = OutputCheck(wl, frozen)
    plain_wall, _ = traced_pass(wl, seed, check, traced=False)
    wall, tracer = traced_pass(wl, seed, check, traced=True)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = wall / plain_wall
    extra = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": wall,
        "spans": tracer.span_summary(),
        "top_spans": tracer.top_spans(),
    }
    return metrics, check, 2 * wl.trace_inputs, extra


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for inner loops only")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 10**12:
        ap.error("--seed must be in [0, 10**12)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "treeshift" / "__init__.py").is_file():
        print(f"perfbench: no treeshift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "quick" if args.quick else "full"
    wl = WORKLOADS[args.workload](args.quick)
    frozen = None
    if args.seed == DEFAULT_SEED:
        frozen = json.loads((HERE / "digests.json").read_text())[mode][wl.name]

    if args.trace:
        values, check, attempted, extra = measure_traced(wl, args.seed, frozen)
        listed = bench["per_layer"]
    else:
        values, check, attempted, extra = measure(wl, args.seed, args.seconds, frozen)
        listed = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    result = {
        "correct": check.failed == 0,
        "attempted": attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": mode,
        "params": dict(vars(wl)),
        "failed_ratio": check.failed / attempted,
        "errors": check.errors,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "digests": check.digests,
        **extra,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-{mode}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: wrote {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
