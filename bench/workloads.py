"""The benchmark's workloads: seeded inputs, timed ops and output checks.

Each workload runs in one process on one thread as a closed loop: a
single caller issues the next op only after the previous one returns.
Ops call the library's public functions only.  The untraced op calls the
composite functions a user calls; the traced op calls the public steps
those composites are made of, in the same order, each inside a span, so a
traced run produces the same output stream as an untraced one.

A workload object holds the inputs made from the seed and answers
``run_phase``: ``begin_pass`` (timed work done once per pass, and the pass
length, ``None`` for an endless stream), ``op``/``traced_op``, ``probes``,
``check`` and ``output_text`` per op, ``digest_ops`` (the prefix of the
output stream that is hashed and always completed) and ``finish`` for the
checks over the whole run.

Run as a script, this module measures one workload in this process and
prints one JSON object; ``run.py`` starts it and reports the metrics::

    python3 bench/workloads.py --workload draw_small --seed 1 --seconds 10 \
        --trace 0 --spawned-ns <CLOCK_MONOTONIC at spawn> [--setup-only]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SPAWNED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import tamari  # noqa: E402

if not Path(tamari.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"tamari imported from {tamari.__file__}, not from {SRC}")

from tamari.blossoming import (  # noqa: E402
    closure,
    from_interval,
    from_meandering,
    is_synchronized_tree,
    non_kreweras_paths,
    non_modern_edges,
    non_modern_paths,
    to_meandering,
)
from tamari.cli import run as cli_run  # noqa: E402
from tamari.counting import Family, count  # noqa: E402
from tamari.intervals import (  # noqa: E402
    canopy_type_counts,
    enumerate_intervals,
    interval_from_text,
    interval_to_text,
    is_infinitely_modern,
    is_kreweras,
    is_modern,
    is_new,
    is_self_dual,
    is_synchronized,
    is_trivial,
    make_interval,
)
from tamari.meandering import (  # noqa: E402
    diagram_from_json,
    diagram_to_json,
    from_tree_pair,
    is_meandering_tree,
    to_tree_pair,
)
from tamari.render import (  # noqa: E402
    render_blossoming,
    render_meandering,
    render_smooth,
)
from tamari.sampler import (  # noqa: E402
    RandomSource,
    sample_composition,
    sample_interval,
    sequence_to_marked_tree,
    valid_shifts,
)

from spans import ROOT, Tracer, layer_means_us  # noqa: E402

_clock = time.perf_counter_ns

#: Upper 1e-6 quantile of chi-square with 67 degrees of freedom (68 cells),
#: so a fair sampler fails one run in a million.
CHI2_CRITICAL_67 = 137.02194067247413

#: The direct classifiers on intervals, as the sweep and ``classify`` run them.
CLASSIFIERS = (
    ("is_synchronized", is_synchronized),
    ("is_modern", is_modern),
    ("is_infinitely_modern", is_infinitely_modern),
    ("is_kreweras", is_kreweras),
    ("is_new", is_new),
    ("is_trivial", is_trivial),
    ("is_self_dual", is_self_dual),
    ("canopy_type_counts", canopy_type_counts),
)

#: Pattern scanners on blossoming trees, paired with the direct classifier
#: (by index into CLASSIFIERS) whose answer they must reproduce, and whether
#: an empty scan means membership.
SCANNERS = (
    ("is_synchronized_tree", is_synchronized_tree, 0, False),
    ("non_modern_edges", non_modern_edges, 1, True),
    ("non_modern_paths", non_modern_paths, 2, True),
    ("non_kreweras_paths", non_kreweras_paths, 3, True),
)


def _direct(name, fn, *args, **kwargs):
    """The untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


def _pick_shift(composition, rng):
    return valid_shifts(composition)[rng.below(2)]


class Draw:
    """Each op is ``sample_interval(n, rng)`` followed by ``interval_to_text``."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = RandomSource(seed)
        self._tree = None

    def begin_pass(self, tracer):
        return 0, None

    def op(self, i):
        return interval_to_text(sample_interval(self.n, self.rng))

    def traced_op(self, i, tr):
        n, rng = self.n, self.rng
        composition = tr.call("sampler.composition", sample_composition, n, rng)
        chosen = tr.call("sampler.shift", _pick_shift, composition, rng)
        tree, _ = tr.call("sampler.decode", sequence_to_marked_tree, chosen)
        m = tr.call("blossoming.to_meandering", to_meandering, tree)
        lower, upper = tr.call("meandering.to_tree_pair", to_tree_pair, m)
        interval = tr.call("intervals.make_interval", make_interval, lower, upper)
        self._tree = tree
        return tr.call("intervals.to_text", interval_to_text, interval)

    def probes(self, i, tr):
        tr.probe("blossoming.closure", closure, self._tree)
        self._tree = None  # freed here, not inside the next op's span

    def output_text(self, text):
        return text


class DrawSmall(Draw):
    """n = 4; checked by a chi-square test over all 68 intervals of size 4."""

    digest_ops = 2000

    def __init__(self, seed: int):
        super().__init__(4, seed)
        self.cells = None
        self.counts: dict[str, int] = {}

    def check(self, i, text):
        if self.cells is None:
            self.cells = {interval_to_text(iv) for iv in enumerate_intervals(4)}
        if text not in self.cells:
            return False
        self.counts[text] = self.counts.get(text, 0) + 1
        return True

    def finish(self):
        """Chi-square over the draws that landed on one of the 68 cells.

        A chi-square failure is a property of the whole stream, so it fails
        every draw of the run.
        """
        cells = self.cells or set()
        expected_cells = count(Family.GENERAL, 4)
        draws = sum(self.counts.values())
        mean = draws / expected_cells
        chi2 = sum((self.counts.get(text, 0) - mean) ** 2 / mean for text in cells) if draws else 0.0
        ok = draws > 0 and len(cells) == expected_cells and chi2 < CHI2_CRITICAL_67
        line = (
            f"check chi2={chi2:.3f} critical={CHI2_CRITICAL_67:.3f} cells={len(cells)}"
            f" draws={draws} {'pass' if ok else 'FAIL'}"
        )
        return ok, [line]


class DrawLarge(Draw):
    """n = 10^4; every draw must parse as a size-n interval whose diagram
    is a meandering tree."""

    digest_ops = 12

    def __init__(self, seed: int):
        super().__init__(10_000, seed)

    def check(self, i, text):
        interval = interval_from_text(text)
        return interval.n == self.n and is_meandering_tree(
            from_tree_pair(interval.lower, interval.upper)
        )

    def finish(self):
        return True, [f"check every draw parses as a size-{self.n} meandering tree"]


class Sweep:
    """One ``enumerate_intervals(7)`` per pass, then one op per interval in a
    seeded order: the bijection round trip, the direct classifiers and the
    pattern scanners.  A pass always runs to its end, since its family
    totals are checked against the closed formulas."""

    N = 7

    def __init__(self, seed: int):
        self.order_rng = random.Random(seed)
        self.intervals: list = []
        self.order: list[int] = []
        self.pass_start = 0
        self.passes = 0
        self.enumerated_ok = True
        self.digest_ops = 0
        self.families = {family: 0 for family in Family}

    def begin_pass(self, tracer):
        start = _clock()
        if tracer is None:
            intervals = enumerate_intervals(self.N)
        else:
            intervals = tracer.call("intervals.enumerate", enumerate_intervals, self.N)
        timed = _clock() - start
        if not self.passes:
            self.order = list(range(len(intervals)))
            self.order_rng.shuffle(self.order)
            self.digest_ops = len(intervals)
        self.intervals = intervals
        self.enumerated_ok &= len(intervals) == count(Family.GENERAL, self.N)
        if self.passes:
            self.pass_start += len(self.order)
        self.passes += 1
        return timed, len(self.order)

    def _interval(self, i):
        return self.intervals[self.order[i - self.pass_start]]

    def _op(self, i, call):
        interval = self._interval(i)
        m = call("meandering.from_tree_pair", from_tree_pair, interval.lower, interval.upper)
        tree = call("blossoming.from_meandering", from_meandering, m)
        m2 = call("blossoming.to_meandering", to_meandering, tree)
        lower, upper = call("meandering.to_tree_pair", to_tree_pair, m2)
        back = call("intervals.make_interval", make_interval, lower, upper)
        direct = [call("intervals." + name, fn, interval) for name, fn in CLASSIFIERS]
        pattern = [call("blossoming." + name, fn, tree) for name, fn, _, _ in SCANNERS]
        return interval, m, m2, back, direct, pattern

    def op(self, i):
        return self._op(i, _direct)

    def traced_op(self, i, tr):
        return self._op(i, tr.call)

    def probes(self, i, tr):
        pass

    def check(self, i, out):
        interval, m, m2, back, direct, pattern = out
        agree = all(
            direct[index] == (not found if empty_means_member else found)
            for (_, _, index, empty_means_member), found in zip(SCANNERS, pattern)
        )
        synchronized, modern, infinitely_modern, kreweras, new = direct[:5]
        for family, member in (
            (Family.GENERAL, True),
            (Family.SYNCHRONIZED, synchronized),
            (Family.MODERN, modern),
            (Family.NEW, new),
            (Family.MODERN_SYNCHRONIZED, modern and synchronized),
            (Family.INFINITELY_MODERN, infinitely_modern),
            (Family.KREWERAS, kreweras),
        ):
            self.families[family] += member
        return agree and back == interval and m2 == m

    def output_text(self, out):
        _, _, m2, back, direct, _ = out
        bits = "".join(str(int(b)) for b in direct[:7])
        return f"{interval_to_text(back)} {diagram_to_json(m2)} {bits} {direct[7]}"

    def finish(self):
        """Enumeration size and every family total against the formulas.

        A wrong total is a property of the whole pass, so it fails every op.
        """
        wrong = [
            f"{family.value}={total}"
            for family, total in self.families.items()
            if total != self.passes * count(family, self.N)
        ]
        ok = self.enumerated_ok and not wrong
        line = (
            f"check passes={self.passes} enumeration={'ok' if self.enumerated_ok else 'WRONG'}"
            f" family_totals={'ok' if not wrong else 'WRONG ' + ','.join(wrong)}"
            f" {'pass' if ok else 'FAIL'}"
        )
        return ok, [line]


STYLES = ("smooth", "meandering", "blossoming")


class Inspect:
    """Each op is one CLI session on a sampled n = 500 interval: classify,
    map, unmap of map's output, and render in the three styles."""

    N = 500
    POOL = 24
    digest_ops = POOL

    def __init__(self, seed: int):
        rng = RandomSource(seed)
        self.pool = [interval_to_text(sample_interval(self.N, rng)) for _ in range(self.POOL)]
        self.svg_bytes = 0
        self.stdout_bytes = 0
        self._diagram = None

    def begin_pass(self, tracer):
        return 0, None

    def _session(self, i, call):
        text = self.pool[i % self.POOL]
        outs = []

        def command(name, argv):
            buf = io.StringIO()
            outs.append((call("cli." + name, cli_run, argv, out=buf), buf.getvalue()))

        command("classify", ["classify", text])
        command("map", ["map", text])
        command("unmap", ["unmap", outs[1][1].strip()])
        for style in STYLES:
            command("render_" + style, ["render", text, "--style", style])
        return outs

    def op(self, i):
        return self._session(i, _direct)

    def traced_op(self, i, tr):
        outs = self._session(i, tr.call)
        self._diagram = outs[1][1].strip()
        return outs

    def probes(self, i, tr):
        """The library functions behind each command, on the same input."""
        text = self.pool[i % self.POOL]
        interval = tr.probe("intervals.from_text", interval_from_text, text)
        for name, fn in CLASSIFIERS:
            tr.probe("intervals." + name, fn, interval)
        tr.probe("intervals.to_text", interval_to_text, interval)
        m = tr.probe("meandering.from_tree_pair", from_tree_pair, interval.lower, interval.upper)
        tr.probe("meandering.diagram_to_json", diagram_to_json, m)
        back = tr.probe("meandering.diagram_from_json", diagram_from_json, self._diagram)
        lower, upper = tr.probe("meandering.to_tree_pair", to_tree_pair, back)
        tr.probe("intervals.make_interval", make_interval, lower, upper)
        tr.probe("render.render_smooth", render_smooth, interval)
        tr.probe("render.render_meandering", render_meandering, m)
        tree = tr.probe("blossoming.from_interval", from_interval, interval)
        tr.probe("render.render_blossoming", render_blossoming, tree)

    def check(self, i, outs):
        if i < self.POOL:
            self.stdout_bytes += sum(len(out.encode()) for _, out in outs)
            self.svg_bytes += sum(len(out.encode()) for _, out in outs[3:])
        text = self.pool[i % self.POOL]
        return (
            all(rc == 0 for rc, _ in outs)
            and outs[0][1].startswith(text + " ")
            and outs[2][1] == text + "\n"
            and all(out.startswith("<svg ") for _, out in outs[3:])
        )

    def output_text(self, outs):
        return "\n".join(out for _, out in outs)

    def finish(self):
        return True, [f"check every command exits 0 and unmap(map(T)) == T; pool={self.POOL}"]


WORKLOADS = {
    "draw_small": DrawSmall,
    "draw_large": DrawLarge,
    "sweep": Sweep,
    "inspect": Inspect,
}


@dataclass
class Phase:
    """What one measuring loop saw."""

    latencies: list[int] = field(default_factory=list)
    timed_ns: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    lines: list[str] = field(default_factory=list)

    def ops_per_s(self) -> float:
        """Completed ops per second of timed wall time."""
        return (self.attempted - self.failed) / (self.timed_ns / 1e9)


#: Failed ops reported one by one, with their tracebacks on stderr.
MAX_FAILURE_LINES = 10


def run_phase(w, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Issue ops back to back until ``seconds`` have passed, the digest
    prefix is complete and the current pass has ended; then check."""
    phase = Phase()
    digest = hashlib.sha256()
    start = _clock()
    limit = int(seconds * 1e9)
    i = 0
    while True:
        timed, length = w.begin_pass(tracer)
        phase.timed_ns += timed
        end = None if length is None else i + length
        while i != end:
            if end is None and i >= w.digest_ops and _clock() - start >= limit:
                break
            error = None
            if tracer is None:
                t0 = _clock()
                try:
                    out = w.op(i)
                except Exception as exc:
                    error = exc
                latency = _clock() - t0
            else:
                tracer.begin_op(i)
                try:
                    out = w.traced_op(i, tracer)
                except Exception as exc:
                    error = exc
                latency = tracer.end_op()
                if error is None:
                    try:
                        w.probes(i, tracer)
                    except Exception as exc:
                        error = exc
            phase.latencies.append(latency)
            phase.timed_ns += latency
            ok = False
            if error is None:
                try:
                    ok = w.check(i, out)
                    text = w.output_text(out)
                except Exception as exc:
                    error = exc
            if error is not None:
                text = f"! {type(error).__name__}"
                if len(phase.lines) < MAX_FAILURE_LINES:
                    phase.lines.append(f"op {i} failed: {type(error).__name__}: {error}")
                    traceback.print_exception(error, file=sys.stderr)
            phase.failed += not ok
            if i < w.digest_ops:
                digest.update(text.encode())
                digest.update(b"\n")
            i += 1
        if i >= w.digest_ops and _clock() - start >= limit:
            break
    phase.attempted = i
    ok, lines = w.finish()
    phase.lines.extend(lines)
    if not ok:
        phase.failed = phase.attempted
    phase.digest = digest.hexdigest()
    return phase


#: Ops per window of the tail latency.  Over a whole run of draw_small the
#: eleventh-slowest op is an op the machine preempted (a few ms each, a
#: dozen or more per run), so the tail is read per window and the median
#: over windows is reported.
TAIL_WINDOW = 1000


def tail_latency(latencies: list[int]) -> tuple[int, float, int, int]:
    """Median over windows of the latency at the highest percentile that
    leaves at least ten ops of the window above it.

    Returns (latency, percentile, windows, ops per window).  The ops are
    split in order into ``len // TAIL_WINDOW`` windows of equal size (one
    window when there are fewer ops), a leftover joining the last window.
    """
    windows = max(len(latencies) // TAIL_WINDOW, 1)
    size = len(latencies) // windows
    tails = []
    for w in range(windows):
        chunk = sorted(latencies[w * size: len(latencies) if w == windows - 1 else (w + 1) * size])
        rank = max(len(chunk) - 10, 1)
        tails.append(chunk[rank - 1])
    rank = max(size - 10, 1)
    return statistics.median_low(tails), 100 * rank / size, windows, size


def untraced_result(name: str, seed: int, seconds: float, spawned_ns: int) -> dict:
    w = WORKLOADS[name](seed)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawned_ns) / 1e9
    phase = run_phase(w, seconds)
    tail, pct, windows, size = tail_latency(phase.latencies)
    ops = len(phase.latencies)
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "digest": phase.digest,
        "digest_ops": w.digest_ops,
        "lines": phase.lines + [
            f"op_tail_ms is p{pct:.2f} (10 ops above) of each of {windows} windows"
            f" of {size} ops, median over windows; {ops} ops in all"
        ],
        "metrics": {
            "ops_per_s": phase.ops_per_s(),
            "op_p50_ms": statistics.median(phase.latencies) / 1e6,
            "op_tail_ms": tail / 1e6,
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (phase.attempted - phase.failed) / phase.attempted,
        },
    }


def traced_result(name: str, seed: int, seconds: float, trace_path: Path) -> dict:
    """An untraced half-run, then a traced half-run on the same inputs."""
    plain = run_phase(WORKLOADS[name](seed), seconds / 2)
    tracer = Tracer()
    w = WORKLOADS[name](seed)
    traced = run_phase(w, seconds / 2, tracer)
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    ops = len(traced.latencies)
    layers = layer_means_us(tracer.spans, ops)
    metrics = {f"{layer}_us": value for layer, value in layers.items() if layer != ROOT}
    roots = [span for span in tracer.spans if span[3] == ROOT]
    metrics.update({
        "trace.op_us": sum(end - start for _, _, _, _, start, end, _ in roots) / 1000 / ops,
        "trace.loop_us": layers[ROOT],
        "trace.untraced_ops_per_s": plain.ops_per_s(),
        "trace.traced_ops_per_s": traced.ops_per_s(),
        "trace.overhead_pct": 100 * (plain.ops_per_s() / traced.ops_per_s() - 1)
        if traced.ops_per_s() else 0.0,
    })
    if isinstance(w, Inspect):
        metrics["render.svg_bytes"] = w.svg_bytes / w.POOL
        metrics["cli.stdout_bytes"] = w.stdout_bytes / w.POOL
    match = plain.digest == traced.digest
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "digest": traced.digest,
        "digest_ops": w.digest_ops,
        "digest_match": match,
        "lines": plain.lines + traced.lines + [
            f"digest untraced={plain.digest} traced={traced.digest}"
            f" {'match' if match else 'MISMATCH'}"
        ],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, default=SPAWNED_NS)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        now = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        result = {"setup_s": (now - args.spawned_ns) / 1e9}
    elif args.trace:
        path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result = traced_result(args.workload, args.seed, args.seconds, path)
    else:
        result = untraced_result(args.workload, args.seed, args.seconds, args.spawned_ns)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
