"""The traced benchmark's required layers, checked in process.

`perfbench/run.py --trace 1` reports a workload as incorrect when one of
its required layers (`tracing.REQUIRED`) records no call.  Here each op of
the `paper`, `search` and `corpus` workloads runs once under the same
`tracing.Tracer`, so a change that routes a workload around one of those
layers fails here too.  Each CLI op's exit code, stdout byte count and
SHA-256 must match `perfbench/expected.json`, as the benchmark checks
them.  The perfbench modules are imported as they are.
"""

import hashlib
import json

import pytest

from mixbound import cli, mixing, parse, report

from conftest import load_perfbench

tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")


def _run_cli_ops(name, tmp_path, capsys):
    dilates = tmp_path / "dilates.txt"
    dilates.write_text(workloads.DILATES)
    expected = workloads.load_expected()
    for op in workloads.CLI_WORKLOADS[name]:
        argv = [str(dilates) if a == workloads.DILATES_FILE else a for a in op.argv]
        code = cli.main(argv)
        out = capsys.readouterr().out.encode()
        want = expected[op.id]
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
            want["exit"], want["stdout_bytes"], want["stdout_sha256"]), op.id


def _run_corpus():
    for p, text in workloads.corpus_inputs(1):
        rep = mixing.order_bounds(parse.parse_poly(text, p))
        json.dumps(report.build_report(rep))


@pytest.mark.parametrize("name", ["paper", "search", "corpus"])
def test_required_layers_record_calls(name, tmp_path, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if name == "corpus":
            _run_corpus()
        else:
            _run_cli_ops(name, tmp_path, capsys)
    finally:
        tracer.uninstall()
    calls, _ = tracing.layer_totals(tracer.spans)
    defined = [layer for layer in tracing.REQUIRED[name] if layer not in tracer.absent]
    assert defined
    assert [layer for layer in defined if not calls[layer]] == []
