"""Self-checks for the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture()
def workdir():
    path = run.WORK_DIR / f"selfcheck-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def stream(rf, workload, seed, workdir, rounds):
    state = workloads.WORKLOADS[workload](rf, seed, workdir, ROOT)
    ops = workloads.rounds_for(rf, workload, state, seed)
    return [next(ops) for _ in range(rounds)]


def measure_all(rf, rounds, tracer=None):
    return run.measure(rf, workloads, iter(rounds), float("inf"), run.SpeedProbe(), tracer)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_references_accept_the_program(workload, workdir):
    rf = run.import_package()
    m = measure_all(rf, stream(rf, workload, 3, workdir, 2))
    assert m.failures == []
    assert m.attempted > 0


def test_flipped_reference_raises_failed(workdir, monkeypatch):
    rf = run.import_package()
    rounds = stream(rf, "cold_set", 3, workdir, 1)
    clean = measure_all(rf, rounds)
    unfold = refs.nmms_unfold
    monkeypatch.setattr(refs, "nmms_unfold", lambda *a, **k: not unfold(*a, **k))
    flipped = measure_all(rf, rounds)
    assert clean.mismatches == 0
    assert flipped.mismatches > 0
    assert len(flipped.failures) > len(clean.failures)
    assert any("NMMS" in f for f in flipped.failures)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_verdicts_agree(workload, workdir):
    rf = run.import_package()
    tracer = tracing.Tracer(run.clock)
    m = measure_all(rf, stream(rf, workload, 4, workdir, 1), tracer)
    assert not [f for f in m.failures if "differ" in f]
    assert m.mismatches == 0
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"][0] == (0 if workload == "warm_set" else m.attempted)
    assert metrics["other.self_s"][0] >= 0
    assert len(tracer.spans) > 0
    # Uninstalling restores every patched name.
    assert not hasattr(rf.frames.Frame.bot_member, "__wrapped__")
    assert not hasattr(rf.rsr.role_lattice, "__wrapped__")
    assert not hasattr(rf.quantale.role_lattice, "__wrapped__")


def test_tracer_skips_functions_the_package_no_longer_has(monkeypatch):
    rf = run.import_package()
    monkeypatch.delattr(rf.rsr, "closure")
    tracer = tracing.Tracer(run.clock)
    tracer.install(rf)
    tracer.uninstall()
    assert tracer.metrics()["rsr.closure.calls"] == (0, "count")
    assert not hasattr(rf.rsr.role_lattice, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer(time.perf_counter)
    tracer.stats["parent"] = [0, 0.0]
    tracer.stats["child"] = [0, 0.0]
    child = tracer._wrap("child", lambda: time.sleep(0.02), hot=False)
    parent = tracer._wrap("parent", lambda: (child(), time.sleep(0.01)), hot=False)
    tracer.op(0, parent)
    assert 0.01 <= tracer.stats["parent"][1] < 0.02 + 0.005
    assert tracer.stats["child"][1] >= 0.02
    names = [s[1] for s in tracer.spans]
    assert names == ["child", "parent", tracing.ROOT_SPAN]
    child_span, parent_span, root_span = tracer.spans
    assert child_span[4] == parent_span[0] and parent_span[4] == root_span[0]


def test_ladder_miss_stops_and_caches_nothing(workdir, monkeypatch):
    rf = run.import_package()
    monkeypatch.setattr(workloads, "LADDER_DEADLINE_S", 1e-4)
    answered, lines = run.run_ladder(rf, workloads, 1, workdir)
    assert answered == 0
    assert "no answer" in lines[0]
    assert f"{workloads.LADDER_TOP - 1} rung(s)" in lines[-1]
    assert rf.semantics.interpretation.cache_info().currsize == 0


def test_tail_has_ten_samples_beyond_it():
    times = list(range(100))
    value, pct = run.tail_of(times)
    assert sum(t > value for t in times) == 10
    assert pct == 90.0
    assert run.tail_of([3, 1, 2]) == (3, 100.0)


def run_bench(cwd, *args, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_run_finishes_quickly():
    t0 = time.monotonic()
    proc = run_bench(ROOT, "--workload", "cold_multiset", "--seed", "1",
                     "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench(ROOT, "--workload", "warm_set", "--seed", "1",
                     "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_the_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(workdir, "--workload", "cold_set", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
