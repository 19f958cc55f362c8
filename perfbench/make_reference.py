"""Record the checked outputs of every workload at every seed level.

    python3 perfbench/make_reference.py [WORKLOAD ...]    # from the repository root

Writes ``perfbench/reference.json``: for each workload and level, the
outputs ``run.py`` compares each run against.  The file holds the outputs
of the commit that defined the benchmark.  Regenerate it only in a change
that means to alter the numerical results, and say so in that change.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import CHECKED, HERE, Session, check
from workloads import LEVELS, WORKLOADS


def main(names) -> int:
    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        table[name] = {}
        for level in range(LEVELS):
            sess = Session(name, level)
            rep = sess.spawn()
            shutil.rmtree(sess.work, ignore_errors=True)
            problems = check(rep, {})
            if problems:
                print(f"{name} level {level}: " + "; ".join(problems), file=sys.stderr)
                return 1
            table[name][str(level)] = {k: rep[k] for k in CHECKED + ("positions",) if k in rep}
            print(f"{name} level {level}: run_s {rep['run_s']:.3f} w2_vs_ref {rep['w2_vs_ref']!r}", flush=True)
    # one line per workload level keeps the file diffable
    blocks = []
    for name in sorted(table):
        rows = ",\n".join(f"  {json.dumps(lv)}: {json.dumps(table[name][lv], sort_keys=True)}" for lv in sorted(table[name]))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
