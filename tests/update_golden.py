"""Rewrite tests/golden.json from the outputs of the current code.

    PYTHONPATH=src python tests/update_golden.py

Run it after a change that moves outputs on purpose, or to record the
digests on another numpy version or machine, and list every file it moves
(git diff tests/golden.json) in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN, environment, run_cases


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = run_cases(Path(tmp))
    old = json.loads(GOLDEN.read_text())["files"] if GOLDEN.is_file() else {}
    body = {"environment": environment(), "files": files}
    GOLDEN.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    for name in sorted(set(old) | set(files)):
        if old.get(name, {}).get("sha256") != files.get(name, {}).get("sha256"):
            print(f"moved: {name}")


if __name__ == "__main__":
    main()
