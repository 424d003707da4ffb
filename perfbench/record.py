"""Record the reference output of every op a benchmark run can make.

Usage, from the root of a checkout: python3 perfbench/record.py

Runs each op of every workload pool once and stores its exit code and the
sha256 of its output (the report JSON of a verify op, the standard output
of a CLI op) in perfbench/references.json. An existing reference that
differs is never overwritten: the differing ops are listed and the script
exits 1, because a changed output means the program's arithmetic changed.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from workloads import OUT, REFERENCES, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    old = workloads.load_references() if REFERENCES.is_file() else {}
    docs_dir = OUT / "record-docs"
    workloads.write_documents(docs_dir)
    new = {}
    try:
        for name, groups in workloads.GROUPS.items():
            for group in groups:
                for op in group:
                    new[op.key] = workloads.reference_of(
                        workloads.run_op(op, docs_dir))
            print(f"{name}: {sum(map(len, groups))} ops", file=sys.stderr)
    finally:
        shutil.rmtree(docs_dir, ignore_errors=True)
    changed = sorted(k for k in new.keys() & old.keys() if new[k] != old[k])
    for key in changed:
        print(f"differs from the recorded reference: {key}", file=sys.stderr)
    if changed:
        return 1
    REFERENCES.write_text(json.dumps(dict(sorted(new.items())), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
