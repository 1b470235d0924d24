#!/usr/bin/env python3
"""Refresh the stored outputs of the 16x16 regression pipeline.

Run from anywhere; runs tests/golden_pipeline.run_all and copies each output
over its stored copy in tests/golden/expected, unless the two are equal once
runtime fields are dropped (test_golden.normalized_text), so a refresh
rewrites only the files whose content changed.  For each rewritten file it
prints the max element-wise and the normwise relative drift of its numbers.
Commit the result when an intentional change to the pipeline output lands.
"""
import json
import os
import shutil
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tests"))

from golden_pipeline import EXPECTED_FILES, run_all  # noqa: E402
from test_golden import normalized_text  # noqa: E402


def numbers(path):
    """Every number in an output file, in file order, runtime fields dropped."""
    text = normalized_text(path)
    if path.endswith(".json"):
        return np.array(_json_numbers(json.loads(text)))
    out = []
    for field in text.replace("\n", ",").split(","):
        try:
            out.append(float(field))
        except ValueError:
            pass
    return np.array(out)


def _json_numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _json_numbers(v)]
    return [float(obj)] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def drift(stored, fresh):
    """(max element-wise, normwise) relative drift of fresh's numbers from
    stored's, or None when the files hold different counts of numbers."""
    old, new = numbers(stored), numbers(fresh)
    if old.shape != new.shape:
        return None
    diff = np.abs(new - old)
    with np.errstate(divide="ignore", invalid="ignore"):
        elementwise = np.where(diff == 0, 0.0, diff / np.abs(old))
        normwise = np.linalg.norm(diff) / np.linalg.norm(old)
    return float(elementwise.max(initial=0.0)), float(normwise)


def main():
    expected_root = os.path.join(REPO, "tests", "golden", "expected")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = run_all(tmp)
        for stage, files in EXPECTED_FILES.items():
            os.makedirs(os.path.join(expected_root, stage), exist_ok=True)
            for name in files:
                fresh = os.path.join(dirs[stage], name)
                stored = os.path.join(expected_root, stage, name)
                if not os.path.exists(stored):
                    shutil.copy2(fresh, stored)
                    print(f"  added {stage}/{name}")
                    continue
                if normalized_text(stored) == normalized_text(fresh):
                    continue
                d = drift(stored, fresh)
                shutil.copy2(fresh, stored)
                how = ("numbers added or removed" if d is None else
                       f"max element-wise relative drift {d[0]:.2g}, normwise {d[1]:.2g}")
                print(f"  rewrote {stage}/{name}: {how}")
    print(f"golden outputs up to date in {expected_root}")


if __name__ == "__main__":
    main()
