"""The software-simplicity comparison (paper Section 7.6).

The paper counts Giraph-core at 32,197 lines versus the Pregelix core at
8,514 — the point being that building Pregel *on top of an existing
dataflow engine* takes a fraction of the code that a custom-constructed
process-centric runtime needs, because the engine already provides bulk
network transfer, out-of-core operators, buffer management, indexes, and
shuffles.

This repository reproduces the measurement structurally: the Pregel-
specific code (``repro.pregelix``) is compared against the
general-purpose infrastructure it leverages instead of rebuilding
(``repro.hyracks`` + ``repro.hdfs`` + the serde/accounting/cost-model
layer in ``repro.common`` they are built on) — the code a from-scratch
process-centric system has to own itself.
"""

import os

import repro


def count_lines(package_dir):
    """Non-blank, non-comment source lines under ``package_dir``."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(package_dir):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                in_docstring = False
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    if in_docstring:
                        if '"""' in stripped or "'''" in stripped:
                            in_docstring = False
                        continue
                    if stripped.startswith(('"""', "'''")):
                        quote = stripped[:3]
                        if not (stripped.endswith(quote) and len(stripped) > 3):
                            in_docstring = True
                        continue
                    if stripped.startswith("#"):
                        continue
                    total += 1
    return total


def loc_report():
    """Per-package source line counts plus the paper's numbers."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    pregelix = count_lines(os.path.join(root, "pregelix"))
    hyracks = count_lines(os.path.join(root, "hyracks"))
    hdfs = count_lines(os.path.join(root, "hdfs"))
    common = count_lines(os.path.join(root, "common"))
    infrastructure = hyracks + hdfs + common
    return {
        "pregelix_core": pregelix,
        "leveraged_infrastructure": infrastructure,
        "ratio": (infrastructure + pregelix) / pregelix,
        "paper_pregelix_core": 8514,
        "paper_giraph_core": 32197,
        "paper_ratio": 32197 / 8514,
    }
