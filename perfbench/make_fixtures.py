#!/usr/bin/env python3
"""Regenerate the committed inputs of the lint_deep and optimize_audit
workloads.  Run from the repository root:

    python3 perfbench/make_fixtures.py

It decomposes each circuit with `mfd run NAME -a mulop-dc -k 5`, copies
the two hand-written examples, records the exact engine's findings at an
effectively unlimited deterministic budget as NAME.ref, and writes
SHA256SUMS.  The benchmark refuses to run when a fixture no longer
matches its checksum, so a change to the decomposer cannot silently move
the check workloads' inputs; regenerate only on purpose.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "fixtures")
MFD = os.path.join(ROOT, "_build", "default", "bin", "mfd.exe")

DECOMPOSED = ["count", "vg2", "b9", "f51m", "e64", "alu2", "apex7", "duke2", "rot"]
EXAMPLES = ["dc_dups", "dc_dead"]


def finding_line(f):
    return "\t".join([f["code"], f["severity"], f["loc"] or "", f["message"]])


def main():
    subprocess.run(["dune", "build", "bin/mfd.exe"], cwd=ROOT, check=True)
    os.makedirs(FIXTURES, exist_ok=True)
    for name in DECOMPOSED:
        out = os.path.join(FIXTURES, name + ".blif")
        subprocess.run([MFD, "run", name, "-a", "mulop-dc", "-k", "5", "-o", out],
                       check=True, stdout=subprocess.DEVNULL)
    for name in EXAMPLES:
        shutil.copyfile(os.path.join(ROOT, "examples", "circuits", name + ".blif"),
                        os.path.join(FIXTURES, name + ".blif"))
    for name in DECOMPOSED:
        print("reference findings:", name, file=sys.stderr, flush=True)
        r = subprocess.run([MFD, "lint", "--deep", "--json", "--sem-nodes", "1000000000",
                            "--sem-timeout", "1e9", os.path.join(FIXTURES, name + ".blif")],
                           capture_output=True, text=True)
        report = json.loads(r.stdout)
        cov = report["coverage"]
        if cov["exact_nodes"] != cov["total_nodes"]:
            sys.exit(f"{name}: exact engine did not cover every node")
        lines = sorted(finding_line(f) for f in report["findings"]
                       if f["code"].startswith(("SEM", "SUP")))
        with open(os.path.join(FIXTURES, name + ".ref"), "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    files = sorted(f for f in os.listdir(FIXTURES) if f.endswith((".blif", ".ref")))
    with open(os.path.join(FIXTURES, "SHA256SUMS"), "w") as fh:
        for f in files:
            with open(os.path.join(FIXTURES, f), "rb") as src:
                fh.write(f"{hashlib.sha256(src.read()).hexdigest()}  {f}\n")


if __name__ == "__main__":
    main()
