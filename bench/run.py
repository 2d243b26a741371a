"""Benchmark of the ``oqw`` CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload line-run --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10

Run from the repository root. Each workload drives ``oqwalk.cli.main``
in-process on a config made from the seed, and checks every output
against an independent reference (``workloads.py``) and against the
recorded SHA-256 of the same config's output (``digests.json``).

``--trace 0`` reports the end-to-end metrics with tracing off, the times
scaled to a full-speed host by ``HostSpeed``; ``--trace 1`` reports the
per-layer metrics from a traced run (spans recorded by ``tracer.py``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Metric names
and units come from ``BENCHMARK.json``; NOTES.md says what each means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

# One BLAS thread: steadier timings on a small shared machine, and never
# more threads than cores. Must be set before numpy is imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402
from workloads import BOUND_BY, MODE, WORKLOADS, Reference, make_config, perturb  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# validate calls after each timed invocation: at least this many, until
# they have taken this share of the invocation's wall time and the host
# kernel has run at least SETUP_MIN_SAMPLES times among them
SETUP_MIN_CALLS = 1
SETUP_SHARE = 0.05
SETUP_MIN_SAMPLES = 2
# Host-speed calibration: a fixed kernel that never touches oqwalk, run
# from a SIGALRM handler CAL_INTERVAL_S after the previous sample ended,
# so it samples the host's speed inside every timed call. CAL_REFERENCE_S
# is, per kernel, about its time on the host the benchmark was built on
# (2 vCPUs at 2.1 GHz) at full speed: 1.1x the fastest time seen there.
CAL_INTERVAL_S = 0.05
CAL_REFERENCE_S = {"interpreter": 0.005, "blas": 0.0049}
# untraced invocations a traced run times, to report tracing overhead
UNTRACED_CALLS = 2
# traced invocations whose spans are kept and written out in full
KEPT_SPAN_INVOCATIONS = 1
# states sampled per traced invocation for the step probe
PROBE_STATES = 20
PROBE_REPEATS = 3

# Runs one invocation in a fresh interpreter and prints its peak RSS.
RSS_CHILD = (
    "import resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from oqwalk.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(code)\n"
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call_main(main, argv) -> int:
    """Exit status of one CLI call; a crash counts as status 1, not as a benchmark error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - the program under test may raise anything
        traceback.print_exc()
        return 1


class HostSpeed:
    """Times a fixed kernel that never touches oqwalk.

    Contention on the shared host slows interpreter-bound and BLAS-bound
    work by different factors, so the kernel matches what bounds the
    workload (``workloads.BOUND_BY``). The ``interpreter`` kernel mixes a
    bytecode loop, dict updates with 2x2 complex matmuls, 2x2 eigvalsh,
    32x32 complex matmuls and small-array allocation; the ``blas`` kernel
    is 32x32 complex matmuls. A kernel is the same in every run, so its
    time measures only how fast the host runs at the moment.

    The host's speed changes within a fraction of a second, so inside
    ``interleaved()`` the kernel runs every ``CAL_INTERVAL_S`` from a
    signal handler, in the middle of the timed calls. ``net()`` takes the
    kernel's own time out of a call and scales what is left by the
    kernel's mean slowdown over that same call.
    """

    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        z = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.unitary, _ = np.linalg.qr(z)
        self.small = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        self.samples: list[float] = []
        # (start, end) of each kernel run inside interleaved()
        self.spans: list[tuple[float, float]] = []

    def sample(self) -> float:
        if self.kind == "blas":
            start = perf_counter()
            for _ in range(600):
                self.unitary @ self.unitary
            self.samples.append(perf_counter() - start)
            return self.samples[-1]
        small = self.small
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i % 7
        table = {}
        for i in range(600):
            table[i % 61] = small @ small.conj().T + table.get(i % 61, small) * 0.5
        for _ in range(150):
            np.linalg.eigvalsh(small + small.conj().T)
        for _ in range(12):
            self.unitary @ self.unitary
        blocks = [np.empty((2, 2), dtype=complex) for _ in range(2000)]
        del blocks
        self.samples.append(perf_counter() - start)
        return self.samples[-1]

    def _on_alarm(self, _signum, _frame) -> None:
        start = perf_counter()
        self.sample()
        self.spans.append((start, perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S)

    @contextlib.contextmanager
    def interleaved(self):
        """Run the kernel every CAL_INTERVAL_S until the block exits."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start: float, end: float) -> list[float]:
        """Durations of the kernel runs that lie inside [start, end]."""
        found = []
        for s, e in reversed(self.spans):
            if e < start:
                break
            if s >= start and e <= end:
                found.append(e - s)
        return found

    def net(self, calls: list[tuple[float, float]], start: float, end: float) -> float:
        """Mean time of ``calls`` (start, end pairs) on a full-speed host.

        The kernel runs that fell inside a call are taken out of it; the
        rest is divided by the kernel's mean slowdown over [start, end].
        """
        kernel = self.within(start, end) or self.samples[-3:]
        slowdown = statistics.fmean(kernel) / CAL_REFERENCE_S[self.kind]
        busy = sum(e - s - sum(self.within(s, e)) for s, e in calls)
        return busy / len(calls) / slowdown

    def slowdown(self) -> float:
        """Median kernel time over its reference time: > 1 when the host is slow."""
        return statistics.median(self.samples) / CAL_REFERENCE_S[self.kind]


def load_digests() -> dict:
    path = BENCH / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class Session:
    """One workload and seed: config on disk, invocations and their checks."""

    def __init__(self, workload: str, seed: int, cli, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.run_dir = run_dir
        self.config = make_config(workload, seed)
        text = json.dumps(self.config)
        self.config_sha = sha256(text.encode())
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(text)
        self.output_path = run_dir / "output"
        self.reference = Reference(workload, self.config)
        # None until the first output when no digest was recorded for
        # this config; later outputs must then repeat the first one
        entry = load_digests().get(workload, {}).get(self.config_sha)
        self.digest_recorded = entry is not None
        self.expected_digest = entry["output"] if entry else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last_output: str | None = None

    @property
    def argv(self) -> list[str]:
        return [MODE[self.workload], str(self.config_path),
                "-o", str(self.output_path)]

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)

    def check_output(self, code: int, path: Path) -> str | None:
        """Record one invocation's outcome; returns its output text if it ran."""
        if code != 0:
            self.record(False, f"exit status {code}")
            return None
        text = path.read_text(encoding="utf-8")
        ok, reason = self.reference.check(text)
        digest = sha256(text.encode())
        if self.expected_digest is None:
            self.expected_digest = digest
        elif ok and digest != self.expected_digest:
            ok, reason = False, f"output SHA-256 {digest} differs from {self.expected_digest}"
        self.record(ok, reason)
        self.last_output = text
        return text

    def invoke(self) -> tuple[tuple[float, float], str | None]:
        """(start, end) of one timed call, and its output text if it ran."""
        gc.collect()  # every timed call starts from the same heap
        start = perf_counter()
        code = call_main(self.cli.main, self.argv)
        end = perf_counter()
        return (start, end), self.check_output(code, self.output_path)

    def setup(self) -> tuple[float, float]:
        """(start, end) of ``oqw validate`` on the config, stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            code = call_main(self.cli.main, ["validate", str(self.config_path)])
            end = perf_counter()
        ok = code == 0 and buf.getvalue().rstrip().endswith("accepted")
        self.record(ok, f"validate exit status {code}")
        return start, end

    def fresh_process_rss_mb(self) -> float:
        """Peak RSS of a fresh interpreter that runs one invocation."""
        out = self.run_dir / "rss-output"
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, str(SRC), *self.argv[:2], "-o", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.check_output(proc.returncode, out)
        try:
            return int(proc.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
        except (IndexError, ValueError):
            self.record(False, f"no RSS reading: {proc.stderr.strip()[-200:]}")
            return 0.0

    def self_check(self) -> bool:
        """True when a perturbed copy of an output is rejected by both checks."""
        if self.last_output is None:
            return False
        bad = perturb(self.workload, self.last_output)
        ok, _ = self.reference.check(bad)
        return not ok and sha256(bad.encode()) != self.expected_digest


# ------------------------------------------------------------ end to end

def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """wall_s, setup_s, peak_rss_mb and ok_frac, tracing off.

    Each timed call, and each batch of validate calls, is scaled by the
    host's slowdown measured during it (``HostSpeed.net``), so the times
    read as seconds on the build host at full speed; ``wall_s`` and
    ``setup_s`` are the medians of those. The raw medians and the median
    slowdown are kept in the detail.
    """
    rss_mb = session.fresh_process_rss_mb()
    host = HostSpeed(BOUND_BY[session.workload])
    walls: list[float] = []
    setups: list[float] = []
    raw_walls: list[float] = []
    raw_setups: list[float] = []
    deadline = perf_counter() + seconds
    with host.interleaved():
        session.invoke()  # warm-up
        lap = 0.0
        # stop before a round that would end past the deadline
        while not walls or perf_counter() + lap < deadline:
            start = perf_counter()
            call, _text = session.invoke()
            raw_walls.append(call[1] - call[0])
            walls.append(host.net([call], *call))
            calls, spent, first = [], 0.0, len(host.spans)
            while (len(calls) < SETUP_MIN_CALLS or spent < SETUP_SHARE * raw_walls[-1]
                   or len(host.spans) - first < SETUP_MIN_SAMPLES):
                calls.append(session.setup())
                spent += calls[-1][1] - calls[-1][0]
                raw_setups.append(calls[-1][1] - calls[-1][0])
            setups.append(host.net(calls, calls[0][0], calls[-1][1]))
            lap = perf_counter() - start
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - session.failed / session.attempted,
    }
    detail = {"host_kernel": host.kind, "host_slowdown": host.slowdown(),
              "raw_wall_s": statistics.median(raw_walls),
              "raw_setup_s": statistics.median(raw_setups), "wall_s_samples": walls,
              "setup_s_batches": len(setups), "setup_calls": len(raw_setups),
              "calibration_samples": len(host.samples)}
    return metrics, detail


# ------------------------------------------------------------- per layer

class Counts:
    """Work counts computed from the spec and the states crossing ``core.step``.

    edges_useful   K rho K^dag products: edges whose source is occupied
    edges_scanned  edges the node-by-node step visits: steps x E
    block_updates  blocks written: occupied nodes after each step
    trajectory_b   bytes held by the blocks of the returned snapshots
    """

    def __init__(self, sample_every: int | None):
        self.sample_every = sample_every
        self.samples: list = []
        self.spec = None
        self._out_degree: Counter = Counter()
        self.steps = 0
        self.edges_useful = 0
        self.edges_scanned = 0
        self.block_updates = 0
        self.trajectory_b = 0

    def key(self) -> tuple:
        return (self.steps, self.edges_useful, self.edges_scanned,
                self.block_updates, self.trajectory_b)

    def on_step(self, args, result) -> None:
        spec, state = args[0], args[1]
        if spec is not self.spec:
            self.spec = spec
            self._out_degree = Counter(src for src, _tgt in spec.transitions)
        if self.sample_every and self.steps % self.sample_every == 0:
            self.samples.append(state)
        self.steps += 1
        self.edges_scanned += len(spec.transitions)
        self.edges_useful += sum(self._out_degree[n] for n in state.blocks)
        self.block_updates += len(result.blocks)

    def on_run(self, args, trajectory) -> None:
        self.trajectory_b = sum(b.nbytes for _k, s in trajectory
                                for b in s.blocks.values())

    def on_steady(self, args, result) -> None:
        self.trajectory_b = sum(b.nbytes for b in result.state.blocks.values())


def probe_step(core, spec, states) -> tuple[float, float]:
    """Median microseconds of ``core.step`` and of its convergence check."""
    step_t, check_t = [], []
    for state in states:
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            nxt = core.step(spec, state)
            mid = perf_counter()
            core.state_trace_distance(nxt, state)
            end = perf_counter()
            step_t.append(mid - start)
            check_t.append(end - mid)
    return statistics.median(step_t) * 1e6, statistics.median(check_t) * 1e6


def measure_per_layer(session: Session, seconds: float, modules) -> tuple[dict, dict]:
    core = sys.modules["oqwalk.core"]
    deadline = perf_counter() + seconds
    session.invoke()  # warm-up
    untraced = [end - start for (start, end), _text in
                (session.invoke() for _ in range(UNTRACED_CALLS))]
    tracer = Tracer(modules, leaves=[sys.modules["oqwalk.linalg"]])
    expected_steps = session.config.get("steps")
    sample_every = max(1, (expected_steps or 2000) // PROBE_STATES)
    rows, count_keys, samples, spec = [], set(), [], None
    readout_err = 0.0
    lap = 0.0
    while len(rows) < 2 or perf_counter() + lap < deadline:
        start = perf_counter()
        counts = Counts(sample_every if not rows else None)
        tracer.invocation += 1
        tracer.hooks.update({"core.step": counts.on_step, "core.run": counts.on_run,
                             "core.find_steady_state": counts.on_steady})
        mark = len(tracer.spans)
        tracer.install()
        try:
            (start_call, end_call), text = session.invoke()
        finally:
            tracer.uninstall()
        inclusive, calls, self_time = summarize(tracer.spans[mark:])
        if len(rows) >= KEPT_SPAN_INVOCATIONS:
            del tracer.spans[mark:]
        if text is not None and session.workload == "dqc-steady":
            out = json.loads(text)
            if out["iterations"] != counts.steps:
                session.record(False, f"{counts.steps} step calls, output says "
                                      f"{out['iterations']}")
            readout_err = abs(out["report"]["readout_probability"]
                              - session.reference.stationary[-1])
        if not rows:
            samples, spec = counts.samples, counts.spec
        count_keys.add(counts.key())
        rows.append({"wall": end_call - start_call, "inclusive": inclusive, "calls": calls,
                     "self": self_time, "counts": counts})
        lap = perf_counter() - start
    if len(count_keys) != 1:
        session.record(False, f"computed counts differ between invocations: {count_keys}")
    step_us, check_us = probe_step(core, spec, samples)

    def med(fn):
        return statistics.median(fn(r) for r in rows)

    def span_s(*names):
        return med(lambda r: sum(r["inclusive"].get(n, 0.0) for n in names))

    c = rows[0]["counts"]
    gflop = 16 * spec.dim ** 3 * c.edges_useful / 1e9
    metrics = {
        "cli.parse_config_s": span_s("cli.parse_config"),
        "cli.build_plan_s": span_s("cli.build_plan"),
        "core.validate_walk_s": span_s("core.validate_walk"),
        "core.run_s": span_s("core.run"),
        "core.find_steady_state_s": span_s("core.find_steady_state"),
        "core.step_us": step_us,
        "core.state_trace_distance_us": check_us,
        "core.check_to_step_ratio": check_us / step_us,
        "core.iterations": c.steps,
        "core.steady_readout_err": readout_err,
        "core.block_updates": c.block_updates,
        "core.edges_useful": c.edges_useful,
        "core.edge_useful_ratio": c.edges_useful / c.edges_scanned,
        "core.gflop": gflop,
        "core.gflops_per_s": med(lambda r: gflop / r["inclusive"]["core.step"]),
        "core.trajectory_mb": c.trajectory_b / 1e6,
        "cli.occupation_records_s": span_s("cli.occupation_records"),
        "cli.emit_s": span_s("cli.emit_csv", "cli.emit_json"),
        "cli.output_bytes": session.output_path.stat().st_size,
        "trace.overhead_ratio": med(lambda r: r["wall"]) / statistics.median(untraced),
    }
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        metrics[f"{layer}.self_s"] = med(lambda r: r["self"].get(layer, 0.0))
    detail = {"traced_invocations": len(rows), "untraced_wall_s": untraced,
              "span_calls": rows[0]["calls"]}
    write_spans(session.run_dir / "spans.json", tracer.spans)
    return metrics, detail


def write_spans(path: Path, spans) -> None:
    t0 = min((s[4] for s in spans), default=0.0)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(["invocation", "id", "parent", "name", "start_s", "end_s"]) + "\n")
        for inv, sid, parent, name, start, end in spans:
            fh.write(json.dumps([inv, sid, parent, name, start - t0, end - t0]) + "\n")


# ----------------------------------------------------------- environment

def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(session: Session) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "oqwalk").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "workload": session.workload,
        "seed": session.seed,
        "config_sha256": session.config_sha,
        "output_sha256": session.expected_digest,
        "output_sha256_recorded": session.digest_recorded,
    }


# ------------------------------------------------------------------ main

def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import oqwalk
    from oqwalk import analysis, cli, core, io as oqw_io, linalg, scenarios
    if Path(oqwalk.__file__).resolve().parent != SRC / "oqwalk":
        print(f"error: imported oqwalk from {oqwalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    session = Session(workload, seed, cli, run_dir)
    try:
        if trace:
            modules = (cli, scenarios, oqw_io, core, linalg, analysis)
            values, detail = measure_per_layer(session, seconds, modules)
            wanted = declared["per_layer"]
        else:
            values, detail = measure_end_to_end(session, seconds)
            wanted = declared["end_to_end"]
        self_check_ok = session.self_check()
    finally:
        for name in ("config.json", "output", "rss-output"):
            (run_dir / name).unlink(missing_ok=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = session.failed == 0 and self_check_ok
    env = environment(session)
    (run_dir / "result.json").write_text(json.dumps(
        {"environment": env, "correct": correct, "attempted": session.attempted,
         "failed": session.failed, "failures": session.failures,
         "metrics": metrics, "detail": detail}, indent=2) + "\n")
    for key, value in env.items():
        print(f"# {key}: {value}")
    print(f"# self-check (perturbed output rejected): {self_check_ok}")
    print(f"# failed_frac: {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted})")
    for reason in session.failures:
        print(f"# failure: {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.6g}")
        for name, m in result["metrics"].items():
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oqwalk" / "cli.py").is_file():
        print(f"error: no oqwalk sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
