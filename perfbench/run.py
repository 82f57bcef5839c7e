"""The mixbound benchmark.

    python3 perfbench/run.py --workload paper|corpus|search|wide|all \
        --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a source checkout; it uses the package under
src/ and only the standard library.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracing
import workloads as wl

WORKLOADS = ("paper", "corpus", "search", "wide")
SETUP_REPEATS = 5
MIN_PASSES = 3
# Seconds one pass over the op list takes on the reference machine (see
# README.md); only used to size runs.
NOMINAL_PASS_S = {"paper": 3.0, "corpus": 2.5, "search": 10.0, "wide": 6.5}
IMPORT_REPEATS = 5
SPANS_FILE = wl.RUN_DIR / "spans.bin"


@dataclass
class OpLog:
    """Latencies and failures of the ops a run made."""

    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


class CliWorkload:
    """paper, search and wide: one `mixbound` child at a time."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.env = wl.child_env()
        self.expected = wl.load_expected()
        self.ops = []

    def setup(self):
        self.ops = wl.cli_ops(self.name, self.seed)
        wl.write_inputs()
        warm = wl.run_child(wl.cli_command(wl.WARMUP_ARGV), self.env)
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {warm.stderr.decode()[-500:]}")

    def run_pass(self, log):
        """Run the op list once and check every op; returns the latencies."""
        return [self._run(op, wl.cli_command(op.argv), log) for op in self.ops]

    def run_traced_pass(self, log):
        stats = LayerStats()
        for op in self.ops:
            cmd = [sys.executable, str(wl.HERE / "traced_cli.py"), str(SPANS_FILE), *op.argv]
            stats.wall += self._run(op, cmd, log, stats)
            spans, counts, absent = tracing.load(SPANS_FILE)
            SPANS_FILE.unlink()
            stats.add(spans, counts, absent)
        return stats

    def _run(self, op, cmd, log, stats=None):
        result = wl.run_child(cmd, self.env)
        log.latencies.append(result.seconds)
        log.peak_rss_mb = max(log.peak_rss_mb, result.peak_rss_mb)
        reason = wl.check_cli(op, result, self.expected)
        if reason is not None:
            log.failures.append(f"{op.id}: {reason}; stderr: {result.stderr.decode()[-300:]}")
        if stats is not None:
            stats.json_bytes += len(result.stdout)
        return result.seconds


class CorpusWorkload:
    """corpus: order_bounds + build_report + json.dumps per polynomial,
    in this process."""

    WARMUP_OPS = 10

    def __init__(self, seed):
        import mixbound.mixing
        import mixbound.parse
        import mixbound.report

        self.mixing = mixbound.mixing
        self.report = mixbound.report
        self.parse = mixbound.parse
        self.seed = seed
        self.env = wl.child_env()
        self.polys = []

    def setup(self):
        imported = wl.run_child([sys.executable, "-c", "import mixbound"], self.env)
        if imported.returncode != 0:
            raise RuntimeError(f"import failed: {imported.stderr.decode()[-500:]}")
        polys = [self.parse.parse_poly(text, p) for p, text in wl.corpus_inputs(self.seed)]
        # the same base polynomials warm up under every seed
        for f in polys[: self.WARMUP_OPS]:
            self._op(f)
        self.polys = [polys[i] for i in wl.corpus_order(self.seed)]

    def _op(self, f):
        rep = self.mixing.order_bounds(f)
        out = self.report.build_report(rep)
        return rep, out, json.dumps(out)

    def run_pass(self, log, deferred=None):
        """Run the op list once; returns the latencies.  Checks run outside
        the timed calls, after the pass when `deferred` collects them."""
        latencies = []
        for f in self.polys:
            t0 = time.perf_counter()
            try:
                rep, out, text = self._op(f)
            except Exception as exc:  # a crashing op is a failed op
                latencies.append(time.perf_counter() - t0)
                log.failures.append(f"{f.to_string()} (p={f.p}): {exc!r}")
                continue
            latencies.append(time.perf_counter() - t0)
            if deferred is None:
                self._check(f, rep, out, log)
            else:
                deferred.append((f, rep, out, len(text)))
        log.latencies += latencies
        return latencies

    def run_traced_pass(self, log):
        tracer = tracing.Tracer()
        deferred = []
        tracer.install()
        try:
            latencies = self.run_pass(log, deferred)
        finally:
            tracer.uninstall()
        stats = LayerStats()
        stats.wall = sum(latencies)
        stats.add(tracer.spans, tracer.counts, tracer.absent)
        for f, rep, out, size in deferred:
            self._check(f, rep, out, log)
            stats.json_bytes += size
        return stats

    def _check(self, f, rep, out, log):
        reason = wl.check_corpus(f, rep, out, self.mixing)
        if reason is not None:
            log.failures.append(f"{f.to_string()} (p={f.p}): {reason}")


class LayerStats:
    """Per-layer totals of one traced pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.absent = set()
        self.json_bytes = 0
        self.wall = 0.0

    def add(self, spans, counts, absent):
        calls, self_s = tracing.layer_totals(spans)
        for layer, n in calls.items():
            self.calls[layer] = self.calls.get(layer, 0) + n
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s[layer]
        for name, n in counts.items():
            combine = max if name.endswith("_max") else int.__add__
            self.counts[name] = combine(self.counts.get(name, 0), n)
        self.absent.update(absent)

    def exact(self):
        """The counts that must repeat exactly for the same seed."""
        return {**self.calls, **self.counts, "report.json_bytes": self.json_bytes}


def make_workload(name, seed):
    return CorpusWorkload(seed) if name == "corpus" else CliWorkload(name, seed)


def tail(values):
    """The highest percentile with at least ten samples above it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def pass_count(name, seconds):
    """Passes that fill about `seconds` at the nominal pass time.  The count
    depends only on `seconds`, so every commit gets the same samples."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))


def timed_run(name, seed, seconds):
    work = make_workload(name, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        setups.append(time.perf_counter() - t0)
    log = OpLog()
    passes = [work.run_pass(log) for _ in range(pass_count(name, seconds))]
    if name == "corpus":
        log.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # An op's latency is its median over the passes.  The tail of all raw
    # samples would be the slowest op's few samples alone, as noisy as
    # one timing.
    op_medians = [statistics.median(per_op) for per_op in zip(*passes)]
    tail_s, tail_pct = tail(op_medians)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(op_medians), "s"),
        "op_p50_ms": (statistics.median(op_medians) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (log.peak_rss_mb, "MB"),
    }
    info = {
        "passes": len(passes),
        "op_samples": len(op_medians),
        "op_tail_percentile": tail_pct,
        "all_samples": len(log.latencies),
        "fail_ratio": len(log.failures) / len(log.latencies),
        "pass_walls_s": [sum(lat) for lat in passes],
        "setup_runs_s": setups,
    }
    return metrics, log, info, []


def import_ms(env):
    """Median fresh `import mixbound.cli` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(wl.run_child([sys.executable, "-c", "pass"], env).seconds)
        full.append(wl.run_child([sys.executable, "-c", "import mixbound.cli"], env).seconds)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def traced_run(name, seed, seconds):
    """One untraced pass, then two traced passes over the same op list.
    The run length is fixed by the op list, not by `seconds`."""
    work = make_workload(name, seed)
    work.setup()
    log = OpLog()
    untraced = sum(work.run_pass(log))
    first = work.run_traced_pass(log)
    second = work.run_traced_pass(log)
    problems = []
    a, b = first.exact(), second.exact()
    for key in sorted(set(a) | set(b)):
        if a.get(key, 0) != b.get(key, 0):
            problems.append(f"count {key} differs between traced passes: {a.get(key)} vs {b.get(key)}")
    for layer in tracing.REQUIRED[name]:
        if layer not in first.absent and not first.calls.get(layer):
            problems.append(f"layer {layer} recorded no calls on {name}")
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (first.self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (first.calls.get(layer, 0), "count")
    for counter in tracing.COUNTERS:
        metrics[counter] = (first.counts.get(counter, 0), "count")
    bounds_calls = first.calls.get("mixing.order_bounds", 0)
    certified = first.counts.get("mixing.order_bounds.certified", 0)
    metrics["mixing.certified_ratio"] = (certified / bounds_calls if bounds_calls else 0.0, "ratio")
    metrics["report.json_bytes"] = (first.json_bytes, "bytes")
    metrics["cli.import_ms"] = (import_ms(wl.child_env()), "ms")
    metrics["trace.overhead_s"] = (first.wall - untraced, "s")
    info = {
        "untraced_wall_s": untraced,
        "traced_wall_s": first.wall,
        "absent_layers": sorted(first.absent),
        "fail_ratio": len(log.failures) / len(log.latencies),
    }
    return metrics, log, info, problems


def environment(seed):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, env=env, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "mixbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results as JSON here")
    args = parser.parse_args(argv)
    if not (wl.SRC / "mixbound" / "cli.py").is_file():
        sys.stderr.write(f"no mixbound sources under {wl.SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(wl.SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced_run if args.trace else timed_run
    results = {"environment": environment(args.seed), "workloads": {}}
    metrics, attempted, failed, problems = {}, 0, 0, []
    for name in names:
        got, log, info, trouble = run(name, args.seed, args.seconds)
        attempted += len(log.latencies)
        failed += len(log.failures)
        problems += [f"{name}: {msg}" for msg in trouble + log.failures]
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"== {name}  seed {args.seed}  trace {args.trace}")
        for key, (value, unit) in got.items():
            print(f"{key:44s} {value:>16.6f} {unit}" if isinstance(value, float)
                  else f"{key:44s} {value:>16d} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        for key, value in info.items():
            if not isinstance(value, list):
                print(f"  {key}: {value}")
        results["workloads"][name] = {
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in got.items()},
            "info": info,
            "attempted": len(log.latencies),
            "failures": log.failures,
            "problems": trouble,
        }
    for msg in problems:
        sys.stderr.write(f"FAIL {msg}\n")
    print(json.dumps(results["environment"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    finally:
        wl.remove_run_dir()
