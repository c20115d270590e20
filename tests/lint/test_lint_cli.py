"""The ``repro lint`` subcommand: exit codes, --rule, --format, --root."""

import json

from repro.cli import main

BAD_SOURCE = (
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


def write_tree(tmp_path, source=BAD_SOURCE):
    target = tmp_path / "src" / "repro" / "placement"
    target.mkdir(parents=True)
    (target / "mod.py").write_text(source, encoding="utf-8")
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, source="VALUE = 1\n")
    code = main(["lint", "--root", str(tmp_path), "src"])
    assert code == 0
    assert "repro lint: clean" in capsys.readouterr().out


def test_findings_exit_one_with_text(tmp_path, capsys):
    write_tree(tmp_path)
    code = main(["lint", "--root", str(tmp_path), "src"])
    assert code == 1
    out = capsys.readouterr().out
    assert "src/repro/placement/mod.py:4" in out
    assert "RPR001" in out


def test_rule_filter(tmp_path, capsys):
    write_tree(tmp_path)
    code = main(
        ["lint", "--root", str(tmp_path), "--rule", "RPR002", "src"]
    )
    assert code == 0
    assert "repro lint: clean" in capsys.readouterr().out


def test_json_format(tmp_path, capsys):
    write_tree(tmp_path)
    code = main(
        ["lint", "--root", str(tmp_path), "--format", "json", "src"]
    )
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["count"] == 1
    assert document["rules"] == ["RPR001"]


def test_github_format(tmp_path, capsys):
    write_tree(tmp_path)
    code = main(
        ["lint", "--root", str(tmp_path), "--format", "github", "src"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=src/repro/placement/mod.py,line=4")


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    write_tree(tmp_path)
    code = main(["lint", "--root", str(tmp_path), "--rule", "RPR999", "src"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_explicit_file_path(tmp_path, capsys):
    write_tree(tmp_path)
    code = main(
        ["lint", "--root", str(tmp_path), "src/repro/placement/mod.py"]
    )
    assert code == 1
    assert "RPR001" in capsys.readouterr().out
