"""Record the expected stdout of every pool command at the current commit.

    python3 bench/record_golden.py [WORKLOAD ...]

Writes the embedding records under ``data/`` and, per workload,
``golden/<workload>.txt``: a header naming the pool digest, then the
SHA-256 prefix of each pool command's stdout, in pool order.  A command
whose exit code or structural oracle disagrees with its generator stops
the recording.  Run it only on a commit whose CLI output is the
reference; every later run compares against these files.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads
from run import ROOT, SRC, run_one


def write_spec_files():
    from bslat.lattice import standard_embedding

    data = ROOT / workloads.DATA_DIR
    data.mkdir(exist_ok=True)
    for stem, n, l, s, m, _ in workloads.SPEC_FILES:
        record = standard_embedding(n, l, s, m).to_json()
        (data / f"{stem}.json").write_text(json.dumps(record) + "\n")


def record(name: str):
    from bslat.cli import main

    workload = workloads.WORKLOADS[name]()
    lines = [f"# pool {workload.pool_digest()}"]
    slowest = []
    for command in workload.pool():
        wall, _, code, out, err = run_one(main, command.argv)
        reason = workloads.check(command, code, out, err)
        if reason is not None:
            raise SystemExit(f"{' '.join(command.argv)}: {reason}\n{err}")
        lines.append(workloads.stdout_digest(out))
        slowest.append((wall, command.argv))
    path = workloads.GOLDEN_DIR / f"{name}.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    slowest.sort(reverse=True)
    print(f"{name}: {len(lines) - 1} commands, "
          f"{sum(w for w, _ in slowest):.1f} s; slowest:")
    for wall, argv in slowest[:5]:
        print(f"  {wall * 1000:9.1f} ms  {' '.join(argv)}")


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    write_spec_files()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        start = time.perf_counter()
        record(name)
        print(f"  recorded in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
