#!/usr/bin/env python3
"""Record ``golden.json``: the outputs of every workload at the default
seed, summarised by ``checks.scan_csv``.

    python3 perfbench/make_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference; the benchmark compares later commits against this file.
"""

import json
import os
import shutil
import sys

from run import HERE, PASS_TIMEOUT_S, Bench
from workloads import DEFAULT_SEED, WORKLOADS

import checks


def main() -> int:
    commands = {}
    for workload in WORKLOADS.values():
        bench = Bench(workload, DEFAULT_SEED, {})
        run = bench.spawn(workload.commands(DEFAULT_SEED), False, PASS_TIMEOUT_S)
        try:
            if run["code"] != 0:
                print(f"{workload.name}: worker failed\n{run['stderr']}", file=sys.stderr)
                return 1
            with open(run["spec"]["result"], encoding="utf-8") as fh:
                res = json.load(fh)
            for i, cmd in enumerate(res["commands"]):
                if cmd["code"] != 0:
                    print(f"{cmd['argv']}: exit {cmd['code']}\n{cmd['error']}", file=sys.stderr)
                    return 1
                outdir = os.path.join(run["spec"]["workdir"], "out", str(i))
                commands[" ".join(cmd["argv"])] = checks.golden_for_outputs(outdir)
        finally:
            shutil.rmtree(run["passdir"], ignore_errors=True)
        print(f"{workload.name}: recorded")
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        # one command per line
        entries = ",\n".join(f"{json.dumps(argv)}: {json.dumps(commands[argv], sort_keys=True)}"
                              for argv in sorted(commands))
        fh.write(f'{{"seed": {DEFAULT_SEED}, "commands": {{\n{entries}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
