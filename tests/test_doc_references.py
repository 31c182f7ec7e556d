"""The hand-kept docs point at code that exists.

Every ``path.py:NNN`` in docs/*.md, DESIGN.md, README.md and ROADMAP.md
must name an existing file with at least NNN lines, and every backticked
``repro.…`` dotted name in the first three must resolve by import plus
attribute walk (ROADMAP.md also names modules still to be built).  A
refactor that moves what a doc cites fails here, not in a reader's
hands.
"""

import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md"))
    + [os.path.join(ROOT, "DESIGN.md"), os.path.join(ROOT, "README.md")]
)
ROADMAP = os.path.join(ROOT, "ROADMAP.md")
#: where a cited path may be rooted: the repository, or the package.
BASES = ("", "src/repro")

LINE_REF = re.compile(r"([\w./-]+\.py):(\d+)")
DOTTED = re.compile(r"`(repro(?:\.\w+)+)")


def _references(pattern, docs):
    for doc in docs:
        with open(doc, encoding="utf-8") as fp:
            for number, line in enumerate(fp, start=1):
                for match in pattern.finditer(line):
                    where = "%s:%d" % (os.path.relpath(doc, ROOT), number)
                    yield where, match


def _resolve_path(path):
    for base in BASES:
        candidate = os.path.join(ROOT, base, path)
        if os.path.isfile(candidate):
            return candidate
    return None


def _resolve_name(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ImportError(dotted)


def test_line_references_name_existing_lines():
    stale = []
    for where, match in _references(LINE_REF, DOCS + [ROADMAP]):
        path, line = match.group(1), int(match.group(2))
        found = _resolve_path(path)
        if found is None:
            stale.append("%s: no file %s" % (where, path))
            continue
        with open(found, encoding="utf-8") as fp:
            length = sum(1 for _ in fp)
        if length < line:
            stale.append("%s: %s has %d lines" % (where, match.group(0), length))
    assert stale == []


def test_dotted_names_resolve():
    stale = []
    for where, match in _references(DOTTED, DOCS):
        try:
            _resolve_name(match.group(1))
        except (ImportError, AttributeError) as exc:
            stale.append("%s: %s (%s)" % (where, match.group(1), exc))
    assert stale == []
