"""Output formats: the JSON schema, GitHub annotations, and text form."""

import json

import pytest

from repro.lint import Finding, render
from repro.lint.output import FORMATS

FINDINGS = [
    Finding(
        path="src/repro/a.py",
        line=3,
        col=7,
        rule="RPR001",
        message="first message",
    ),
    Finding(
        path="src/repro/b.py",
        line=10,
        col=0,
        rule="RPR003",
        message="second message\nwith % and a newline",
    ),
]


def test_json_schema():
    document = json.loads(render(FINDINGS, "json"))
    assert set(document) == {"findings", "count", "rules"}
    assert document["count"] == 2
    assert document["rules"] == ["RPR001", "RPR003"]
    row = document["findings"][0]
    assert row == {
        "path": "src/repro/a.py",
        "line": 3,
        "col": 7,
        "rule": "RPR001",
        "message": "first message",
    }


def test_json_round_trips_empty():
    document = json.loads(render([], "json"))
    assert document == {"findings": [], "count": 0, "rules": []}


def test_text_format():
    text = render(FINDINGS, "text")
    assert "src/repro/a.py:3:7: RPR001 first message" in text
    assert text.endswith("repro lint: 2 findings")
    assert render([], "text") == "repro lint: clean"
    one = render(FINDINGS[:1], "text")
    assert one.endswith("repro lint: 1 finding")


def test_github_format_escapes_workflow_commands():
    text = render(FINDINGS, "github")
    lines = text.splitlines()
    assert lines[0] == (
        "::error file=src/repro/a.py,line=3,col=7,"
        "title=RPR001::first message"
    )
    # %, CR and LF must be escaped or the annotation body truncates.
    assert "%25" in lines[1] and "%0A" in lines[1]
    assert "\n" not in lines[1]


def test_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown format"):
        render([], "sarif")


def test_formats_tuple_matches_renderers():
    for fmt in FORMATS:
        assert isinstance(render([], fmt), str)
