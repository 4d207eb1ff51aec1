#!/usr/bin/env python3
"""Completeness check for docs/PERFORMANCE.md.

The performance catalog must mention:

  * every bench binary (``bench_<stem>`` for each ``bench/<stem>.cpp``),
  * every ``BENCH_*.json`` name appearing anywhere in the repository
    (bench sources, CI workflow, committed result files) — except in
    root-level Markdown other than README.md, which is planning and
    reference material (roadmap, changelog, paper notes) that may name
    files that do not exist yet.

Exits non-zero listing each omission, so the CI docs job fails when a
new bench or tracked JSON lands without documentation.  Run from
anywhere:

    python3 tools/check_bench_docs.py
"""

import os
import re
import sys

BENCH_JSON_RE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")
SCAN_SUFFIXES = (".cpp", ".h", ".py", ".md", ".yml", ".yaml", ".json")
SKIP_DIRS = {".git", "CMakeFiles", "Testing"}


def collect_bench_json_names(root: str):
    names = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if BENCH_JSON_RE.match(name):
                names.add(name)
            if not name.endswith(SCAN_SUFFIXES):
                continue
            if (dirpath == root and name.endswith(".md")
                    and name != "README.md"):
                continue
            path = os.path.join(dirpath, name)
            if os.path.abspath(path) == os.path.abspath(
                    os.path.join(root, "docs", "PERFORMANCE.md")):
                continue  # The catalog itself is not a source of truth.
            try:
                with open(path, encoding="utf-8", errors="ignore") as f:
                    names.update(BENCH_JSON_RE.findall(f.read()))
            except OSError:
                continue
    return names


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    doc_path = os.path.join(root, "docs", "PERFORMANCE.md")
    if not os.path.isfile(doc_path):
        print("BROKEN: docs/PERFORMANCE.md does not exist", file=sys.stderr)
        return 1
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()

    errors = []

    def documented(name: str) -> bool:
        # Word-boundary match: 'bench_micro_detect' must not ride on a
        # documented 'bench_micro_detect_throughput' (nor a JSON name
        # on a longer sibling).
        return re.search(
            r"(?<![A-Za-z0-9_.])" + re.escape(name) + r"(?![A-Za-z0-9_])",
            doc) is not None

    bench_dir = os.path.join(root, "bench")
    binaries = sorted(
        "bench_" + os.path.splitext(name)[0]
        for name in os.listdir(bench_dir)
        if name.endswith(".cpp"))
    for binary in binaries:
        if not documented(binary):
            errors.append(
                f"bench binary '{binary}' missing from docs/PERFORMANCE.md")

    for json_name in sorted(collect_bench_json_names(root)):
        if not documented(json_name):
            errors.append(
                f"tracked file '{json_name}' missing from "
                "docs/PERFORMANCE.md")

    if errors:
        for e in errors:
            print(f"BROKEN: {e}", file=sys.stderr)
        print(f"{len(errors)} omission(s) in docs/PERFORMANCE.md",
              file=sys.stderr)
        return 1
    print(f"ok: {len(binaries)} bench binaries and all BENCH_*.json "
          "names documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
