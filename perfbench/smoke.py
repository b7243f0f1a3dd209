"""Self-check of the benchmark at its smallest sizes.

    python3 perfbench/smoke.py        # from the root of a checkout

Runs every workload once untraced and once traced with ``--smoke``, and
asserts that every metric BENCHMARK.json names is printed with its unit,
that every output gate passed, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and the benchmark's own files.
The file is not named ``test_*.py`` so that the repository's pytest run
does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, proc):
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, \
        (workload, trace, proc.stdout.strip().splitlines()[-2])
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted), \
        (workload, trace, sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], (int, float)), (m["name"], value)
        if not trace:
            assert value["value"] > 0, (workload, m["name"], value)


def check_refusal():
    """Without the program's sources the benchmark must fail, silently."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("cli-cold", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_refusal()
    print("refuses to run without the program: ok", flush=True)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, run(w["name"], trace))
            print(f"{w['name']} --trace {trace}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
