"""Rewrite perfbench/expected.json from the outputs of the current vspart.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are the reference: every pass of the
benchmark compares its digests, verdicts, payloads and exit codes against
this file.  Jobs that fail an independent check are not pinned, and the
script exits 1; a known defect is pinned as having nothing to match.
"""

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import jobs
import run
import worker


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    env = run.child_env()
    pins, bad = {}, []
    worker.OUT_DIR.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"pin-{name}-", dir=worker.OUT_DIR)
        try:
            ctx = jobs.Context(random.Random(0), Path(workdir), env)
            worker.build_fields(name)
            pins[name] = {}
            for op in jobs.OPS[name](ctx):
                res = worker.run_op(op, None, {op.name: {}})
                if not (res["ok"] or res["known_defect"]):
                    bad.append(f"{name} / {op.name}: {res['problem']}")
                pins[name][op.name] = res["observed"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    worker.EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
