"""Docs can't silently rot: link integrity and example importability.

Runs the same checks the CI docs job runs (``tools/check_docs.py``), so
a broken intra-repo markdown link or an example that no longer imports
fails tier-1 locally, not just in CI.
"""

import importlib.util
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    path = os.path.join(_ROOT, "tools", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    checker = _load_checker()
    assert checker.check_links(_ROOT) == []


def test_examples_import_cleanly():
    checker = _load_checker()
    assert checker.check_examples(_ROOT) == []


def test_benchmarks_import_cleanly():
    """pytest collects only ``test_*.py``, so nothing else imports the
    benches; a renamed ``repro`` name they use fails here instead."""
    checker = _load_checker()
    assert checker.check_examples(_ROOT, "benchmarks/bench_*.py") == []


def test_python_fences_parse():
    checker = _load_checker()
    assert checker.check_fences(_ROOT) == []


def test_checker_catches_a_broken_fence(tmp_path):
    checker = _load_checker()
    (tmp_path / "README.md").write_text(
        "```python\ndef broken(:\n```\n"
        "```sh\nnot python, never compiled\n```\n"
        "```python\nprint('fine')\n```\n"
    )
    broken = checker.check_fences(str(tmp_path))
    assert len(broken) == 1
    assert broken[0][0] == "README.md" and broken[0][1] == 2


def test_lint_rule_catalog_in_sync():
    checker = _load_checker()
    assert checker.check_rule_catalog(_ROOT) == []


def test_catalog_checker_catches_drift(tmp_path):
    """A ghost heading and a missing rule are both reported."""
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "lint.md").write_text("### RPR999 — ghost rule\n")
    problems = checker.check_rule_catalog(str(tmp_path))
    assert any("RPR999" in problem for problem in problems)
    assert any("RPR001" in problem for problem in problems)


def test_checker_catches_a_broken_link(tmp_path):
    checker = _load_checker()
    (tmp_path / "doc.md").write_text(
        "see [missing](nope.md) and [ok](doc.md)\n"
        "```\n[not a link](never-checked.md)\n```\n"
    )
    assert checker.check_links(str(tmp_path)) == [("doc.md", "nope.md")]
