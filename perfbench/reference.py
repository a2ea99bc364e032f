"""Write or check the fidelity reference the benchmark compares against.

    python3 perfbench/reference.py write   # record reference.json at this commit
    python3 perfbench/reference.py check   # regenerate and require an exact match

For every workload and every master seed in ``workloads.PASSEL_SEEDS`` it
runs one counted pass in a fresh interpreter (``run.py --record``) and keeps,
per point: the outcome, SE, AIR and ci95, the selected candidate index of
every (channel, block), and the exact work counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import REFERENCE, ROOT, host_info  # noqa: E402
from workloads import PASSEL_SEEDS, WORKLOADS  # noqa: E402

JOBS = 2


def record(job: tuple[str, int]) -> dict:
    name, seed = job
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(seed), "--record"],
                         cwd=str(ROOT), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def generate() -> dict:
    jobs = [(name, k) for name in WORKLOADS for k in range(len(PASSEL_SEEDS))]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        entries = list(pool.map(record, jobs))
    out: dict = {}
    for (name, k), entry in zip(jobs, entries):
        out.setdefault(name, {})[str(PASSEL_SEEDS[k])] = entry
    return out


def main(argv: list[str]) -> int:
    if argv not in (["write"], ["check"]):
        print(__doc__, file=sys.stderr)
        return 2
    fresh = generate()
    if argv == ["write"]:
        host = host_info()
        data = {"recorded_with": {k: host[k] for k in
                                  ("git_commit", "src_sha256", "python", "numpy", "scipy")},
                "workloads": fresh}
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                             encoding="ascii")
        print("wrote %s" % REFERENCE)
        return 0
    stored = json.loads(REFERENCE.read_text(encoding="ascii"))["workloads"]
    if fresh != stored:
        for name in WORKLOADS:
            for seed, entry in fresh[name].items():
                if stored.get(name, {}).get(seed) != entry:
                    print("differs: %s seed %s" % (name, seed))
        return 1
    print("reference reproduced exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
