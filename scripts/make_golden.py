#!/usr/bin/env python3
"""Refresh the stored outputs of the 16x16 regression pipeline.

Run from anywhere; runs tests/golden_pipeline.run_all and copies each output
over its stored copy in tests/golden/expected, unless the two are equal once
runtime fields are dropped (test_golden.normalized_text), so a refresh
rewrites only the files whose content changed.  Commit the result when an
intentional change to the pipeline output lands.
"""
import os
import shutil
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tests"))

from golden_pipeline import EXPECTED_FILES, run_all  # noqa: E402
from test_golden import normalized_text  # noqa: E402


def main():
    expected_root = os.path.join(REPO, "tests", "golden", "expected")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = run_all(tmp)
        for stage, files in EXPECTED_FILES.items():
            os.makedirs(os.path.join(expected_root, stage), exist_ok=True)
            for name in files:
                fresh = os.path.join(dirs[stage], name)
                stored = os.path.join(expected_root, stage, name)
                if os.path.exists(stored) and normalized_text(stored) == normalized_text(fresh):
                    continue
                shutil.copy2(fresh, stored)
                print(f"  rewrote {stage}/{name}")
    print(f"golden outputs up to date in {expected_root}")


if __name__ == "__main__":
    main()
