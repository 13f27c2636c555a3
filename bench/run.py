"""Seeded end-to-end benchmark for roleforge.

Run from the repository root:

    python3 bench/run.py --workload cold_set --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the layers' public functions and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report that lists every failed op.  A copy of the
result, with the machine and the commit, goes to ``.bench_out/``, and the
traced run writes its spans there too.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Set-up runs this many times per run; setup_s is the median.
SETUPS = 5
MODULES = ("cli", "formulas", "frames", "rsr", "quantale", "semantics", "nmms",
           "suites", "morphisms", "oracles")
FAILURES_LISTED = 40

# The benchmark measures process CPU time: the program is single-threaded
# and CPU-bound, and CPU time leaves out the time other tenants' processes
# hold this process off the CPU.
clock = time.process_time

# Times are reported in reference seconds: measured time scaled by how fast
# this machine ran a fixed calibration loop around the measurement, so that
# other tenants slowing the shared CPU do not read as a program change.  The
# loop takes about CAL_REF_S on an idle two-core machine of the kind the
# baseline was taken on; it runs between ops, never inside a timed region,
# at most every CAL_EVERY_S, and an op is scaled by the median of the
# CAL_WINDOW loop timings nearest it.
CAL_REF_S = 0.001
CAL_EVERY_S = 0.05
CAL_WINDOW = 5
# A run measures --seconds of reference time: the same amount of work
# however busy the machine is, which matters where memos fill as a run goes
# on.  Raw CPU time is capped at this multiple of --seconds.
RAW_CAP = 2.5


def import_package() -> SimpleNamespace:
    """Import roleforge afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "roleforge" or m.startswith("roleforge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"roleforge.{m}") for m in MODULES})


def interpretation_cache_clear(rf):
    """``cache_clear`` of the interpretation cache, or a no-op without one."""
    return getattr(rf.semantics.interpretation, "cache_clear", lambda: None)


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def tail_of(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def calibration_loop():
    """Fixed interpreter work (dict, tuple and big-int operations)."""
    table = {}
    acc = 0
    for i in range(2000):
        key = (i & 7, i >> 3)
        table[key] = table.get(key, 0) + 1
        acc |= 1 << (i % 256)
        acc &= ~(1 << ((i * 7) % 256))
    return len(table), acc


class SpeedProbe:
    """Calibration-loop timings taken between measurements."""

    def __init__(self):
        calibration_loop()
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self):
        t0 = clock()
        calibration_loop()
        self.starts.append(t0)
        self.seconds.append(clock() - t0)

    def maybe_sample(self):
        if not self.starts or clock() - self.starts[-1] >= CAL_EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """CAL_REF_S over the median loop time of the samples nearest ``t``."""
        i = bisect.bisect(self.starts, t)
        lo = max(0, min(i - CAL_WINDOW // 2, len(self.starts) - CAL_WINDOW))
        window = self.seconds[lo:lo + CAL_WINDOW]
        return CAL_REF_S / statistics.median(window)

    def normalize(self, starts: list[float], durations: list[float]) -> list[float]:
        return [d * self.scale_at(t) for t, d in zip(starts, durations)]


class Measurement:
    def __init__(self):
        self.times: list[float] = []
        self.starts: list[float] = []
        self.kinds: list[str] = []
        self.untraced: list[float] = []
        self.failures: list[str] = []
        self.mismatches = 0
        self.unchecked = 0
        self.attempted = 0
        self.rounds = 0
        self.raw_s = 0.0
        self.ref_s = 0.0

    def add_time(self, probe: SpeedProbe, start: float, seconds: float):
        self.raw_s += seconds
        self.ref_s += seconds * probe.scale_at(start)


def timed(op, clear, fn=None):
    """Run ``op`` (or ``fn`` standing in for it) on the clock; a cold op
    first clears the interpretation cache, outside the timed region."""
    if op.cold:
        clear()
    fn = fn or op.run
    t0 = clock()
    try:
        out = fn()
    except Exception as exc:  # an op that raises is counted, not fatal
        return clock() - t0, None, exc
    return clock() - t0, out, None


def paired(rf, op, clear, tracer, index: int, scale: float):
    """Run ``op`` untraced and traced, alternating which goes first; returns
    the (traced, untraced) results of ``timed``."""
    runs = {}
    for traced in ((False, True) if index % 2 == 0 else (True, False)):
        if not traced:
            runs[False] = timed(op, clear)
            continue
        tracer.install(rf)
        try:
            runs[True] = timed(op, clear, lambda: tracer.op(index, op.run, scale))
        finally:
            tracer.uninstall()
    return runs[True], runs[False]


def measure(rf, workloads, rounds, seconds: float, probe: SpeedProbe,
            tracer=None) -> Measurement:
    """Run whole rounds until ``seconds`` of reference op time are measured.

    Traced runs execute every op twice, untraced and traced; the two
    outcomes must agree, and the untraced times give the tracing overhead."""
    m = Measurement()
    clear = interpretation_cache_clear(rf)
    for ops in rounds:
        for op in ops:
            index = m.attempted
            m.attempted += 1
            for path, text in op.files:
                path.write_text(text, encoding="utf-8")
            probe.maybe_sample()
            start = clock()
            m.starts.append(start)
            m.kinds.append(op.kind)
            if tracer is None:
                dt, outcome, exc = timed(op, clear)
            else:
                (dt, outcome, exc), untraced = paired(
                    rf, op, clear, tracer, index, probe.scale_at(start))
                m.untraced.append(untraced[0])
                m.add_time(probe, start, untraced[0])
            m.times.append(dt)
            m.add_time(probe, start, dt)
            if tracer is not None and (outcome, type(exc)) != (untraced[1], type(untraced[2])):
                problem = "traced and untraced outcomes differ"
            elif exc is not None:
                m.failures.append(f"op {index} {op.label}: raised {type(exc).__name__}: {exc}")
                continue
            else:
                try:
                    problem = op.check(outcome)
                except workloads.refs.RefUnavailable:
                    m.unchecked += 1
                    continue
                except Exception as exc:  # a check that cannot read the answer is a failure
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                m.failures.append(f"op {index} {op.label}: {problem}")
                m.mismatches += 1
        m.rounds += 1
        if m.ref_s >= seconds or m.raw_s >= RAW_CAP * seconds:
            break
    probe.sample()
    return m


class _Deadline(BaseException):
    """Raised by the interval timer when a ladder rung runs out of time."""


def _on_alarm(signum, frame):
    raise _Deadline()


def run_ladder(rf, workloads, seed: int, workdir: Path) -> tuple[int, list[str]]:
    """Cold ``entails`` per rung until the first miss; the rungs above it
    are counted as unanswered without being run."""
    answered = 0
    lines = []
    clear = interpretation_cache_clear(rf)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for n, path in workloads.ladder_frames(seed, workdir):
            clear()
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, workloads.LADDER_DEADLINE_S)
                code, out = workloads.run_cli(
                    rf.cli.main, ["entails", path, "a |- a", "--format", "json"])
                signal.setitimer(signal.ITIMER_REAL, 0)
            except _Deadline:
                code = out = None
            except workloads.Raised as exc:
                lines.append(f"ladder n={n}: raised {exc}")
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            if code is None:
                # The abandoned query cached nothing: the LRU stores only
                # finished interpretations; drop any garbage it left.
                clear()
                gc.collect()
                lines.append(f"ladder n={n}: no answer within {workloads.LADDER_DEADLINE_S} s")
                break
            verdict = json.loads(out)["result"]["verdict"]
            if code != 0 or verdict is not True:
                lines.append(f"ladder n={n}: wrong answer {verdict} (exit {code})")
                break
            answered = n
            lines.append(f"ladder n={n}: answered in {dt:.3f} s")
    finally:
        signal.signal(signal.SIGALRM, previous)
    unanswered = workloads.LADDER_TOP - max(answered, 1)
    lines.append(f"ladder: max_atoms_answered {answered}, "
                 f"{unanswered} rung(s) up to n={workloads.LADDER_TOP} unanswered")
    return answered, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_set", "warm_set", "cold_multiset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roleforge" / "__init__.py").is_file():
        print(f"bench: no roleforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, tracing, workdir: Path) -> int:
    probe = SpeedProbe()
    setup = workloads.WORKLOADS[args.workload]
    setup_raw, setup_ref = [], []
    for i in range(SETUPS):
        target = workdir / f"setup{i}"
        shutil.rmtree(workdir / f"setup{i - 1}", ignore_errors=True)
        gc.collect()
        probe.sample()
        t0 = clock()
        rf = import_package()
        target.mkdir(parents=True)
        state = setup(rf, args.seed, target, ROOT)
        setup_raw.append(clock() - t0)
        probe.sample()
        setup_ref.append(setup_raw[-1] * probe.scale_at(t0))

    tracer = tracing.Tracer(clock) if args.trace else None
    rounds = workloads.rounds_for(rf, args.workload, state, args.seed)
    m = measure(rf, workloads, rounds, args.seconds, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(m.failures)
    lines = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
        f"machine {machine()}, commit {commit_id()}",
        f"calibration loop: median {statistics.median(probe.seconds) * 1000:.3f} ms "
        f"over {len(probe.seconds)} samples (reference {CAL_REF_S * 1000:g} ms)",
        f"setup_s raw {', '.join(f'{t:.4f}' for t in setup_raw)}; "
        f"reference {', '.join(f'{t:.4f}' for t in setup_ref)}",
        f"measured {m.ref_s:.3f} s reference time in {m.raw_s:.3f} s CPU time"
        + (" (raw time cap reached)" if m.ref_s < args.seconds else ""),
        f"ops attempted {m.attempted} in {m.rounds} rounds, failed {failed} "
        f"(wrong answers {m.mismatches}, raised {failed - m.mismatches}), "
        f"failed_frac {failed / m.attempted:.6f}, unchecked {m.unchecked}",
    ]
    if tracer is None:
        ref = probe.normalize(m.starts, m.times)
        p50 = statistics.median(ref) * 1000.0
        tail, pct = tail_of(ref)
        lines.append(f"op_ms_p50 {p50:.3f}, op_ms_tail {tail * 1000.0:.3f} "
                     f"(p{pct:.2f} of {len(ref)} ops); raw op_ms_p50 "
                     f"{statistics.median(m.times) * 1000:.3f}, raw ops_per_s "
                     f"{m.attempted / sum(m.times):.3f}")
        by_kind: dict[str, list[float]] = {}
        for kind, t in zip(m.kinds, ref):
            by_kind.setdefault(kind, []).append(t)
        lines.append("per kind (ops, p50 ms): " + ", ".join(
            f"{k} {len(v)} {statistics.median(v) * 1000:.2f}" for k, v in sorted(by_kind.items())))
        max_atoms, ladder_lines = run_ladder(rf, workloads, args.seed, workdir)
        lines += ladder_lines
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "op_ms_p50": (p50, "ms"),
            "op_ms_tail": (tail * 1000.0, "ms"),
            "ops_per_s": (m.attempted / sum(ref), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "max_atoms_answered": (max_atoms, "atoms"),
        }
    else:
        metrics = tracer.metrics()
        traced_s = sum(probe.normalize(m.starts, m.times))
        untraced_s = sum(probe.normalize(m.starts, m.untraced))
        metrics["trace.ops_per_s"] = (m.attempted / traced_s, "1/s")
        metrics["trace.untraced_ops_per_s"] = (m.attempted / untraced_s, "1/s")
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        lines.append(f"tracing overhead: traced {traced_s:.3f} s vs untraced "
                     f"{untraced_s:.3f} s for the same {m.attempted} ops "
                     f"(x{traced_s / untraced_s:.3f})")
    for failure in m.failures[:FAILURES_LISTED]:
        lines.append(f"FAIL {failure}")
    if failed > FAILURES_LISTED:
        lines.append(f"... and {failed - FAILURES_LISTED} more failures")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans_path = OUT_DIR / f"{stem}.spans.jsonl"
        tracer.write_spans(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    result = {
        "correct": m.mismatches == 0,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine(), commit=commit_id(),
                  failures=m.failures, unchecked=m.unchecked, setup_raw_s=setup_raw,
                  calibration_s=probe.seconds)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
