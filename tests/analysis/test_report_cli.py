"""Tests of the shared finding report and the ``repro.analysis`` CLI.

The CLI's exit-code contract is what CI relies on: 0 for a clean run,
1 when any analysis reports findings, 2 for usage errors (unreadable
paths, unknown commands).
"""

import pytest

from repro.analysis.cli import main
from repro.analysis.report import Finding, format_findings


class TestFinding:
    def test_str_is_where_rule_message(self):
        f = Finding(rule="REP200", where="memory/pool.py:42",
                    message="'buf' still taken at return")
        assert str(f) == "memory/pool.py:42: REP200 'buf' still taken " \
                         "at return"

    def test_details_do_not_affect_equality(self):
        a = Finding("REP200", "x:1", "m", details={"resource": "buf"})
        b = Finding("REP200", "x:1", "m", details={"resource": "other"})
        assert a == b

    def test_findings_are_frozen(self):
        f = Finding("REP200", "x:1", "m")
        with pytest.raises(AttributeError):
            f.rule = "REP201"


class TestFormatFindings:
    FINDINGS = [Finding("REP201", "a.py:3", "double give"),
                Finding("REP210", "b.py:7", "unguarded write")]

    def test_one_line_per_finding(self):
        out = format_findings(self.FINDINGS)
        assert out.splitlines() == [str(f) for f in self.FINDINGS]

    def test_header_carries_count(self):
        out = format_findings(self.FINDINGS, header="flow")
        assert out.splitlines()[0] == "flow: 2 finding(s)"

    def test_empty_with_header(self):
        assert format_findings([], header="flow") == "flow: 0 finding(s)"

    def test_empty_without_header(self):
        assert format_findings([]) == ""


class TestCliExitCodes:
    def test_flow_clean_tree_exits_zero(self, capsys):
        assert main(["flow"]) == 0
        out = capsys.readouterr().out
        assert "locks (REP210-211)" in out
        assert "REP200" not in out

    def test_flow_bad_path_is_usage_error(self, capsys):
        assert main(["flow", "/no/such/module.py"]) == 2
        assert "cannot read" in capsys.readouterr().err

    COUNTER = ("import threading\n\n"
               "class Counter:\n"
               "    def __init__(self):\n"
               "        self._lock = threading.Lock()\n"
               "        self.count = 0\n\n"
               "    def bump(self):\n"
               "        with self._lock:\n"
               "            self.count += 1\n")

    def test_flow_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "unguarded.py"
        bad.write_text(self.COUNTER + "\n    def sneak(self):\n"
                                      "        self.count += 1\n")
        assert main(["flow", str(bad)]) == 1
        assert "REP210" in capsys.readouterr().out

    def test_flow_explicit_clean_file_exits_zero(self, tmp_path):
        good = tmp_path / "fine.py"
        good.write_text(self.COUNTER)
        assert main(["flow", str(good)]) == 0

    def test_lint_clean_tree_exits_zero(self):
        assert main(["lint"]) == 0

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
