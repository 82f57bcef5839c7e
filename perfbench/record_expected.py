"""Record what every CLI op of the benchmark must print.

    python3 perfbench/record_expected.py

Runs each op of paper, search and wide once, with its polynomials as
written in workloads.py, and writes exit code, stdout digest and size,
and the verdict facts to perfbench/expected.json.  Only re-record when an
output change is intended and reviewed: the benchmark counts every op
whose output differs from this file as failed.
"""

import json

import workloads as wl


def main():
    wl.write_inputs()
    env = wl.child_env()
    expected = {}
    try:
        for ops in wl.CLI_WORKLOADS.values():
            for op in ops:
                result = wl.run_child(wl.cli_command(op.argv), env)
                expected[op.id] = wl.describe_output(op, result.returncode, result.stdout)
                print(op.id, expected[op.id]["exit"], f"{result.seconds:.3f}s")
    finally:
        wl.remove_run_dir()
    with open(wl.EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
