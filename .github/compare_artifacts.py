"""Compare the artifact digests of two perfbench `pipeline` runs.

Usage: python3 .github/compare_artifacts.py FIRST.log SECOND.log

Each log is a run's JSON lines; the digests are the `artifacts_sha256` map of
the first line that has one. Prints the artifacts whose bytes differ and exits
1 if any do, or if a log has no digests.
"""

import json
import sys


def digests(path):
    for line in open(path):
        record = json.loads(line)
        if record.get("artifacts_sha256"):
            return record["artifacts_sha256"]
    sys.exit(f"{path}: no artifacts_sha256 on any line")


first, second = map(digests, sys.argv[1:])
changed = sorted(name for name in first.keys() | second.keys() if first.get(name) != second.get(name))
print(f"artifacts whose bytes differ between {sys.argv[1]} and {sys.argv[2]}:", changed or "none")
sys.exit(1 if changed else 0)
