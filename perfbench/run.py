#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload decomp_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The workloads and metrics are described in perfbench/README.md.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "fixtures")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["decomp_large", "decomp_sweep", "lint_deep", "optimize_audit"]
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def verify_fixtures():
    sums = os.path.join(FIXTURES, "SHA256SUMS")
    if not os.path.isfile(sums):
        fail("missing " + sums)
    with open(sums) as fh:
        for line in fh:
            digest, name = line.split()
            path = os.path.join(FIXTURES, name)
            if not os.path.isfile(path):
                fail("missing fixture " + name)
            with open(path, "rb") as src:
                if hashlib.sha256(src.read()).hexdigest() != digest:
                    fail("fixture %s does not match its checksum; "
                         "regenerate on purpose with perfbench/make_fixtures.py" % name)


def build():
    # Keep the build inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                           cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stderr[-4000:])
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload twice and compare outputs and counters")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    verify_fixtures()
    build()
    if a.self_test:
        args = ["--self-test"]
        timeout = 4 * RUN_TIMEOUT
    else:
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        timeout = RUN_TIMEOUT
    args += ["--fixtures", FIXTURES, "--out", os.path.join(HERE, "out")]
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
