#!/usr/bin/env python
"""Docs rot guard: link integrity, code-fence syntax, example imports.

Checks that every intra-repo markdown link (``[text](relative/path)``)
in the repository's ``*.md`` files resolves to an existing file, that
every ```` ```python ```` fence in the curated docs (``README.md`` and
``docs/*.md`` — not scratch files like SNIPPETS.md) at least *parses*
as Python, and — with ``--examples`` — that every ``examples/*.py``
script imports cleanly in import-only mode (their
``if __name__ == "__main__"`` guards keep the actual runs out; new
example scripts are discovered automatically).  It also keeps the
``docs/lint.md`` rule catalog in sync with the ``repro lint`` registry
(every registered rule id documented, no ghost headings).  CI runs all
of these; ``tests/test_docs.py`` runs the link and fence checks as part
of tier-1 so rotted docs fail locally too.

Usage::

    python tools/check_docs.py              # link + fence checks
    PYTHONPATH=src python tools/check_docs.py --examples

Exit code 0 when everything resolves, 1 otherwise (failures listed).
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import os
import re
import sys

#: Inline markdown links: [text](target).  Targets with a scheme or a
#: pure-anchor target are external/self references, not file links.
_LINK = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)\)")

_SKIPPED_DIRS = {".git", ".repro_cache", "__pycache__", ".pytest_cache"}


def _markdown_files(root: str) -> list:
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _SKIPPED_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def _strip_code_fences(text: str) -> str:
    """Drop fenced code blocks: their bracket/paren runs are not links."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def check_links(root: str) -> list:
    """All broken intra-repo links as ``(md_file, target)`` pairs."""
    broken = []
    for md_path in _markdown_files(root):
        with open(md_path, "r", encoding="utf-8") as fh:
            text = _strip_code_fences(fh.read())
        for match in _LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(md_path), target_path)
            )
            if not os.path.exists(resolved):
                broken.append((os.path.relpath(md_path, root), target))
    return broken


def _python_fences(text: str) -> list:
    """``(first_line_number, source)`` for every ```python fence."""
    fences, buffer, start, in_python = [], [], 0, False
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("```"):
            if in_python:
                fences.append((start, "\n".join(buffer)))
                buffer, in_python = [], False
            elif stripped.rstrip() == "```python":
                start, in_python = number + 1, True
            continue
        if in_python:
            buffer.append(line)
    return fences


def check_fences(root: str) -> list:
    """Syntax-broken ```python fences in the curated docs.

    Returns ``(md_file, line, error)`` triples.  Only README.md and
    docs/*.md are checked — those are the documents whose examples
    users paste — so scratch markdown (SNIPPETS.md, ISSUE.md) stays
    free-form.  Fences are compiled, never executed.
    """
    curated = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        curated.extend(
            os.path.join(docs_dir, name)
            for name in sorted(os.listdir(docs_dir))
            if name.endswith(".md")
        )
    broken = []
    for md_path in curated:
        if not os.path.exists(md_path):
            continue
        with open(md_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        for line, source in _python_fences(text):
            try:
                compile(source, f"{md_path}:{line}", "exec")
            except SyntaxError as exc:
                broken.append(
                    (os.path.relpath(md_path, root), line, str(exc))
                )
    return broken


def check_rule_catalog(root: str) -> list:
    """docs/lint.md catalog drift against the registered lint rules.

    Every registered rule id — plus the driver-level diagnostics
    (RPR000 unused-suppression, E001 parse error) — must own a ``###``
    heading in docs/lint.md, and every ``RPR``-shaped heading there
    must name a known id, so the catalog can neither lag a new rule
    nor keep advertising a deleted one.  Returns problem strings.
    """
    doc_rel = os.path.join("docs", "lint.md")
    doc_path = os.path.join(root, doc_rel)
    if not os.path.exists(doc_path):
        return [f"{doc_rel} is missing (the lint rule catalog)"]
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.lint import PARSE_ERROR_ID, UNUSED_SUPPRESSION_ID, rule_ids

    with open(doc_path, "r", encoding="utf-8") as fh:
        text = _strip_code_fences(fh.read())
    headings = re.findall(r"^###\s+(\S+)", text, flags=re.MULTILINE)
    expected = set(rule_ids()) | {UNUSED_SUPPRESSION_ID, PARSE_ERROR_ID}
    problems = []
    for rule_id in sorted(expected - set(headings)):
        problems.append(
            f"{doc_rel}: no catalog heading for registered rule {rule_id}"
        )
    for heading in headings:
        if re.fullmatch(r"RPR\d{3}", heading) and heading not in expected:
            problems.append(
                f"{doc_rel}: heading {heading} names no registered rule"
            )
    return problems


def check_examples(root: str, pattern: str = "examples/*.py") -> list:
    """Import every script matching ``pattern``; returns ``(script,
    error)`` failures.  tests/test_docs.py also runs it over
    ``benchmarks/bench_*.py``, which pytest never collects."""
    failures = []
    for path in sorted(glob.glob(os.path.join(root, pattern))):
        module_name = f"_checked_{os.path.basename(path)[:-3]}"
        try:
            spec = importlib.util.spec_from_file_location(module_name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append((os.path.relpath(path, root), f"{type(exc).__name__}: {exc}"))
        finally:
            sys.modules.pop(module_name, None)
    return failures


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--examples",
        action="store_true",
        help="also import examples/*.py (requires PYTHONPATH=src)",
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent's parent)",
    )
    args = parser.parse_args(argv)

    ok = True
    broken = check_links(args.root)
    for md_file, target in broken:
        print(f"broken link in {md_file}: {target}")
        ok = False
    if not broken:
        print(f"markdown links ok ({len(_markdown_files(args.root))} files)")

    bad_fences = check_fences(args.root)
    for md_file, line, error in bad_fences:
        print(f"broken python fence in {md_file}:{line}: {error}")
        ok = False
    if not bad_fences:
        print("python fences parse")

    catalog_problems = check_rule_catalog(args.root)
    for problem in catalog_problems:
        print(problem)
        ok = False
    if not catalog_problems:
        print("lint rule catalog matches the registry")

    if args.examples:
        failures = check_examples(args.root)
        for script, error in failures:
            print(f"example fails to import: {script}: {error}")
            ok = False
        if not failures:
            print("examples import cleanly")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
