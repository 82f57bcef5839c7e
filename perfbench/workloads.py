"""Workload definitions: op lists made from a seed, the child runner, and
the output checks that decide whether an op failed.

Every workload is a closed loop with one client.  CLI workloads start one
`mixbound` child at a time and wait for it; the library workload calls
the package in this process.  The seed only decides what the program is
given (operation order, the spelling of each polynomial, and the unit each
corpus polynomial is scaled by); the program itself never sees it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch files of this process; concurrent runs in one checkout do not
# share them.
RUN_DIR = ROOT / ".bench_run" / str(os.getpid())
EXPECTED_FILE = HERE / "expected.json"

# The same entry point the `mixbound` console script runs.
CLI_MAIN = "import sys; from mixbound.cli import main; sys.exit(main())"

TRIANGLE = "u2+u1+u1^3u2"
QUAD = "u1^2+u1u2^2+u2^3+u2"
PENTAGON = "u1^6+u1^5u2+u1^3u2^2+u2+u2^3"
LEDRAPPIER = "1+u1+u2"
QUARTIC = "1+u1+u2+u2^2"
VERTEX_TRIANGLE = "(0,0);(1,0);(0,2)"
UNIT_TRIANGLE = "(0,0);(1,0);(0,1)"
DILATES_FILE = str((RUN_DIR / "dilates.txt").relative_to(ROOT))
DILATES = "".join(f"{j}: (0,0);({j},0);(0,{j})\n" for j in range(1, 17))


@dataclass(frozen=True)
class CliOp:
    """One `mixbound` invocation.  `poly` marks the argv slot whose
    polynomial the seed may respell."""

    id: str
    argv: tuple
    poly: int | None = None


def _poly_op(op_id, sub, p, poly, *rest):
    return CliOp(op_id, (sub, "--prime", str(p), "--poly", poly, *rest), poly=4)


PAPER_OPS = (
    _poly_op("analyze-triangle", "analyze", 2, TRIANGLE),
    _poly_op("analyze-quadrilateral", "analyze", 2, QUAD),
    _poly_op("analyze-pentagon", "analyze", 2, PENTAGON),
    _poly_op("analyze-quartic-pretty", "analyze", 2, QUARTIC, "--pretty"),
    _poly_op("render-triangle-svg-ord", "render", 2, TRIANGLE,
             "--format", "svg", "--newton", "ord"),
    _poly_op("render-triangle-tikz-deg", "render", 2, TRIANGLE,
             "--format", "tikz", "--newton", "deg"),
    _poly_op("render-pentagon-svg-deg", "render", 2, PENTAGON,
             "--format", "svg", "--newton", "deg"),
    _poly_op("render-pentagon-tikz-ord", "render", 2, PENTAGON,
             "--format", "tikz", "--newton", "ord"),
    CliOp("verify-paper", ("verify-paper",)),
    _poly_op("shape-ledrappier-support", "shape-test", 2, LEDRAPPIER, "--shape", UNIT_TRIANGLE),
    _poly_op("shape-quartic-unit-triangle", "shape-test", 2, QUARTIC, "--shape", UNIT_TRIANGLE),
    _poly_op("shape-quartic-vertex-triangle", "shape-test", 2, QUARTIC,
             "--shape", VERTEX_TRIANGLE),
    _poly_op("seq-diagnose-dilates", "seq-diagnose", 2, LEDRAPPIER, "--file", DILATES_FILE),
    CliOp("voloch-scan-4096", ("voloch-scan", "--mmax", "4096")),
)

SEARCH_OPS = tuple(
    _poly_op(f"search-p{p}-kmax{k}", "shape-test", p, QUARTIC, "--shape", VERTEX_TRIANGLE,
             "--windows", "0", "--kmax", str(k))
    for p, k in ((2, 16), (2, 32), (3, 16), (3, 24))
)

WIDE_OPS = (
    _poly_op("wide-p2-u1^65536", "analyze", 2, "1+u1^65536+u2"),
    _poly_op("wide-p3-u^4096", "analyze", 3, "1+u1^4096+u2^4096+u1^17u2^3"),
)

CLI_WORKLOADS = {"paper": PAPER_OPS, "search": SEARCH_OPS, "wide": WIDE_OPS}

# One small command before timing: it compiles the package's bytecode and
# pulls the interpreter and the sources into the file cache.
WARMUP_ARGV = ("analyze", "--prime", "2", "--poly", LEDRAPPIER)


def respell(poly, rng):
    """The same polynomial with its terms in a seed-chosen order."""
    terms = poly.split("+")
    rng.shuffle(terms)
    return "+".join(terms)


def cli_ops(workload, seed):
    """The workload's op list for this seed: shuffled order, respelled
    polynomials.  Outputs do not depend on either."""
    rng = random.Random(seed)
    ops = []
    for op in CLI_WORKLOADS[workload]:
        argv = list(op.argv)
        if op.poly is not None:
            argv[op.poly] = respell(argv[op.poly], rng)
        ops.append(CliOp(op.id, tuple(argv), op.poly))
    rng.shuffle(ops)
    return ops


def write_inputs():
    """Files some ops read, inside the checkout."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    (ROOT / DILATES_FILE).write_text(DILATES)


def remove_run_dir():
    if RUN_DIR.is_dir():
        for leftover in RUN_DIR.iterdir():
            leftover.unlink()
        RUN_DIR.rmdir()
    try:
        RUN_DIR.parent.rmdir()
    except OSError:  # missing, or another run still uses it
        pass


def child_env():
    """The caller's environment with the package on the path and the
    threaded search switched off by removing its variable."""
    env = {k: v for k, v in os.environ.items() if k != "MIXBOUND_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class ChildResult:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(cmd, env):
    """Start one child, drain its pipes, reap it with wait4 and return its
    wall time (start to exit), exit code, output and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in (proc.stdout, proc.stderr):
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(elapsed, proc.returncode, out, err, usage.ru_maxrss / 1024)


def cli_command(argv):
    return [sys.executable, "-c", CLI_MAIN, *argv]


# ---------------------------------------------------------------------------
# output checks


def load_expected():
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def describe_output(op, returncode, stdout):
    """The facts about one CLI op's output that the checks compare."""
    facts = {
        "exit": returncode,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
    }
    if op.argv[0] in ("verify-paper", "shape-test"):
        try:
            doc = json.loads(stdout)
        except ValueError:
            return facts
        if op.argv[0] == "verify-paper":
            facts["passed"] = doc.get("passed")
            facts["total"] = doc.get("total")
        else:
            facts["kind"] = doc.get("kind")
            w = doc.get("witness")
            facts["witness"] = None if w is None else [f"k={w['k']}", *w["coefficients"]]
    return facts


def check_cli(op, result, expected):
    """None when the op's output matches the record, else the reason."""
    want = expected.get(op.id)
    if want is None:
        return "no recorded expectation"
    got = describe_output(op, result.returncode, result.stdout)
    if "passed" in want and got.get("passed") != got.get("total"):
        return f"verify-paper passed {got.get('passed')} of {got.get('total')}"
    for key in ("exit", "kind", "witness", "passed", "total", "stdout_sha256"):
        if key in want and got.get(key) != want[key]:
            return f"{key}: expected {want[key]!r}, got {got.get(key)!r}"
    return None


# ---------------------------------------------------------------------------
# the library corpus

CORPUS_PRIMES = (2, 3, 5, 7)
CORPUS_SIZE = 300
# The random polynomials are drawn once, from this fixed seed; the run's
# seed then rescales each one by a unit and reorders terms and ops.  A
# corpus drawn afresh per seed swings its cost with the few expensive
# brute-force inputs it happens to contain (see README.md).
CORPUS_BASE_SEED = 20021


def _polygon(exps):
    o = exps[0]
    return any(
        (a[0] - o[0]) * (b[1] - o[1]) != (a[1] - o[1]) * (b[0] - o[0])
        for a in exps for b in exps
    )


def base_corpus(size=CORPUS_SIZE):
    """(p, exponents, coefficients): exponents 0..6, 3-7 distinct terms,
    polygon hulls only, the same number of polynomials for every prime."""
    rng = random.Random(CORPUS_BASE_SEED)
    out = []
    for i in range(size):
        p = CORPUS_PRIMES[i % len(CORPUS_PRIMES)]
        while True:
            count = rng.randint(3, 7)
            exps = set()
            while len(exps) < count:
                exps.add((rng.randint(0, 6), rng.randint(0, 6)))
            exps = sorted(exps)
            if _polygon(exps):
                break
        out.append((p, exps, [rng.randint(1, p - 1) for _ in exps]))
    return out


def corpus_inputs(seed, size=CORPUS_SIZE):
    """(p, text) pairs in base-corpus order: each base polynomial times a
    seed-chosen unit of F_p, its terms in seed-chosen order."""
    rng = random.Random(seed)
    out = []
    for p, exps, coeffs in base_corpus(size):
        unit = rng.randint(1, p - 1)
        terms = [f"{c * unit % p}*u1^{a}*u2^{b}" for (a, b), c in zip(exps, coeffs)]
        rng.shuffle(terms)
        out.append((p, "+".join(terms)))
    return out


def corpus_order(seed, size=CORPUS_SIZE):
    """The seed-chosen order in which the corpus ops run."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def check_corpus(f, rep, out, mixing):
    """None when one corpus result re-checks, else the reason.

    An Eisenstein certificate must pass mixing.verify_eisenstein, and
    every face's extended norm in the report must be a positive multiple
    of that face's outward normal (acceptance criterion 2)."""
    cert = rep.irreducibility
    if cert.method == "eisenstein" and not mixing.verify_eisenstein(f, cert):
        return "Eisenstein certificate fails its re-check"
    if len(out["faces"]) != len(out["newton"]) or not out["faces"]:
        return "report has no Newton data per face"
    for face, newton in zip(out["faces"], out["newton"]):
        n1, n2 = face["normal"]
        norm = newton["extended_norm"]
        v1 = norm["log_u1"]["num"] * norm["log_u2"]["den"]
        v2 = norm["log_u2"]["num"] * norm["log_u1"]["den"]
        if v1 * n2 != v2 * n1 or v1 * n1 + v2 * n2 <= 0:
            return f"norm of face {face['start']}->{face['end']} is not outward"
    return None
