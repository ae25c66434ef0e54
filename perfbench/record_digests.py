"""Record the sha256 of the cli-mix stdout for a range of seeds.

    python3 perfbench/record_digests.py 0 99

Runs one full-size cli-mix pass per seed and merges the digests into
cli_digests.json. Record only on a commit whose CLI output is known to be
right: a later cli-mix run on a recorded seed fails when its captured
stdout differs by a single byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import load_package, run_pass
from workloads import DIGESTS_FILE, CliMix


def main(first: int, last: int) -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    nc = load_package(src)
    table = json.loads(DIGESTS_FILE.read_text())
    for seed in range(first, last + 1):
        workload = CliMix(nc, seed, "full")
        _, failed = run_pass(workload)
        if failed:
            print(f"seed {seed}: {failed} failed calls, not recorded", file=sys.stderr)
            return 1
        table["digests"][str(seed)] = workload.digests[0]
        print(seed, workload.digests[0], flush=True)
    table["digests"] = dict(sorted(table["digests"].items(), key=lambda kv: int(kv[0])))
    DIGESTS_FILE.write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
