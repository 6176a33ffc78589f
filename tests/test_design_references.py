"""Every ``DESIGN.md §N`` (and ``§N "Title"``, ``"Title" in DESIGN.md``)
mention in the code, the tests and the prose documents names a section
DESIGN.md has."""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where references live; ``perfbench/`` has none.
SOURCES = (
    "src/**/*.py",
    "tests/**/*.py",
    "benchmarks/**/*.py",
    "examples/**/*.py",
    "README.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
)

#: What may sit between ``DESIGN.md`` and the section it names: blanks,
#: line breaks, comment marks, emphasis and commas.
_GAP = r"[\s#*`,]*"
_NUMBERED = re.compile(
    r"DESIGN\.md" + _GAP + r"§\s*(\d+)(?:" + _GAP + r'"([^"\n]+)")?')
_TITLED = re.compile(r"DESIGN\.md" + _GAP + r'"([^"\n]+)"')
_TITLE_FIRST = re.compile(r'"([^"\n]+)"\s+in\s+`?DESIGN\.md')


def design_sections():
    """``{N: [the section's heading, then its subsection headings]}``."""
    sections, current = {}, None
    with open(os.path.join(ROOT, "DESIGN.md")) as handle:
        for line in handle:
            numbered = re.match(r"## (\d+)\. (.+)", line)
            if numbered:
                current = int(numbered.group(1))
                sections[current] = [numbered.group(2).strip()]
            elif line.startswith("### ") and current is not None:
                sections[current].append(line[4:].strip())
    return sections


def references():
    """``(where, section number or None, title or None)`` per mention."""
    found = []
    for pattern in SOURCES:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            if os.path.abspath(path) == os.path.abspath(__file__):
                continue
            with open(path) as handle:
                text = handle.read()
            where = os.path.relpath(path, ROOT)
            for match in _NUMBERED.finditer(text):
                found.append((where, int(match.group(1)), match.group(2)))
            for regex in (_TITLED, _TITLE_FIRST):
                for match in regex.finditer(text):
                    found.append((where, None, match.group(1)))
    return found


REFERENCES = references()


def test_the_repository_refers_to_design_sections():
    assert len(REFERENCES) >= 40


@pytest.mark.parametrize(
    "where,number,title", REFERENCES,
    ids=["%s:%s:%s" % ref for ref in REFERENCES],
)
def test_reference_resolves(where, number, title):
    sections = design_sections()
    if number is not None:
        assert number in sections, "%s cites DESIGN.md §%d" % (where, number)
        headings = sections[number]
    else:
        headings = [heading for group in sections.values() for heading in group]
    if title is not None:
        assert any(title.lower() in heading.lower() for heading in headings), (
            "%s cites %r, not a heading of DESIGN.md%s"
            % (where, title, " §%d" % number if number else ""))


#: DESIGN.md describes the system in at most this many lines: a change
#: edits the section that owns a fact instead of appending one.
DESIGN_MAX_LINES = 900


def test_design_stays_within_its_line_cap():
    with open(os.path.join(ROOT, "DESIGN.md")) as handle:
        lines = sum(1 for _ in handle)
    assert lines <= DESIGN_MAX_LINES, (
        "DESIGN.md is %d lines, over its cap of %d" % (lines, DESIGN_MAX_LINES))
