#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(inside the checkout: _build/, no shared cache), runs it, checks that its
last stdout line is the result object and that the metrics it names are the
ones BENCHMARK.json lists for the mode, and passes its output through.
Exits non-zero, printing no result, when the checkout cannot be built.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None):
    """Run cmd to completion (killed and reaped on timeout)."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("%s timed out after %d s" % (cmd[0], timeout), 1)
    return proc.returncode, out, err


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die("not the root of a checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, out, err = run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env,
    )
    if code != 0:
        sys.stderr.write(out + err)
        die("build failed", 1)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        die("last output line is not a JSON object", 1)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        die("result object has keys %s" % sorted(res), 1)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "or units differ" % (missing, extra), 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    build()
    code, out, err = run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        RUN_TIMEOUT_S,
    )
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        die("benchmark exited with %d and no result" % code, 1)
    check_result(lines[-1], a.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
