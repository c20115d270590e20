"""Suppression comments: coverage, rationale form, and unused detection."""

import textwrap

from repro.lint import (
    PARSE_ERROR_ID,
    UNUSED_SUPPRESSION_ID,
    lint_source,
    select_rules,
)

PATH = "src/repro/placement/fixture.py"


def lint(text, rules=("RPR001",)):
    return lint_source(textwrap.dedent(text), PATH, select_rules(list(rules)))


def test_inline_suppression_silences_the_line():
    findings = lint(
        """\
        import time

        def stamp():
            return time.time()  # repro: lint-ignore[RPR001] test fixture
        """
    )
    assert findings == []


def test_standalone_suppression_covers_next_code_line():
    findings = lint(
        """\
        import time

        def stamp():
            # repro: lint-ignore[RPR001] wall clock is the payload here
            return time.time()
        """
    )
    assert findings == []


def test_multiline_rationale_still_reaches_the_code():
    findings = lint(
        """\
        import time

        def stamp():
            # repro: lint-ignore[RPR001] the rationale for this one is
            # long enough to continue onto a second comment line
            return time.time()
        """
    )
    assert findings == []


def test_unused_suppression_reported_as_rpr000():
    findings = lint(
        """\
        def quiet():
            # repro: lint-ignore[RPR001] nothing to suppress below
            return 1
        """
    )
    assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "lint-ignore[RPR001]" in findings[0].message


def test_suppression_for_unselected_rule_not_judged():
    # A --rule RPR002 run must not call RPR001 ignores unused.
    findings = lint(
        """\
        import time

        def stamp():
            return time.time()  # repro: lint-ignore[RPR001] fixture
        """,
        rules=("RPR002",),
    )
    assert findings == []


def test_suppression_lists_multiple_rules():
    findings = lint(
        """\
        import json
        import time

        def build():
            # repro: lint-ignore[RPR001, RPR002] fixture covers both
            return json.dumps({"at": time.time()})
        """,
        rules=("RPR001", "RPR002"),
    )
    assert findings == []


def test_docstring_mention_is_not_a_live_suppression():
    findings = lint(
        '''\
        def document():
            """Suppress with ``# repro: lint-ignore[RPR001]``."""
            return 1
        '''
    )
    assert findings == []


def test_mid_comment_mention_is_not_a_live_suppression():
    findings = lint(
        """\
        # The syntax is `# repro: lint-ignore[RPR001]`, documented here.
        VALUE = 1
        """
    )
    assert findings == []


def test_wrong_rule_id_does_not_suppress():
    findings = lint(
        """\
        import time

        def stamp():
            return time.time()  # repro: lint-ignore[RPR002] wrong rule
        """,
        rules=("RPR001", "RPR002"),
    )
    rules = sorted(f.rule for f in findings)
    assert rules == sorted(["RPR001", UNUSED_SUPPRESSION_ID])


def test_syntax_error_becomes_e001():
    findings = lint_source("def broken(:\n", PATH, select_rules(["RPR001"]))
    assert [f.rule for f in findings] == [PARSE_ERROR_ID]
    assert findings[0].path == PATH
