#!/usr/bin/env python3
"""Self-test: exact counters and artifact digests repeat across processes.

    python3 perfbench/selftest.py [--seeds 0,1,2] [--write-digests]

For every workload and seed, runs the traced benchmark twice in fresh
processes with different PYTHONHASHSEED values and compares the exact
counters and the sha256 digests of plans.json, services.json and
trajectory.csv that the two report. Exits with status 1 on any difference.
With --write-digests the digests are recorded in perfbench/digests.json,
together with the commit and versions they were taken with.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import families

HERE = Path(__file__).resolve().parent
HASH_SEEDS = ("0", "2718281")


def run_child(workload: str, seed: int, hash_seed: str) -> dict[str, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent, env=env,
        timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark run failed")
    found = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("counters", "digests", "context"):
            found[tag] = json.loads(rest)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    recorded: dict[str, dict] = {}
    context = {}
    ok = True
    for workload in families.FAMILIES:
        for seed in seeds:
            first, second = (run_child(workload, seed, h) for h in HASH_SEEDS)
            for tag in ("counters", "digests"):
                same = first[tag] == second[tag]
                ok &= same
                print(f"{'PASS' if same else 'FAIL'} {workload} seed {seed}: "
                      f"{tag} under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
            digests = dict(first["digests"])
            del digests["workload"], digests["seed"]
            recorded.setdefault(workload, {})[str(seed)] = digests
            context = {k: first["context"][k]
                       for k in ("commit", "python", "numpy", "cpu")}
    if args.write_digests and ok:
        path = HERE / "digests.json"
        path.write_text(json.dumps({"recorded_with": context,
                                    "digests": recorded},
                                   indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
