"""The acceptance-gating mutation self-tests, run as pytest cases.

Each analysis layer must (a) report zero findings on the real tree and
(b) flag its seeded defect injection with a precise report.  These are
the same checks ``python -m repro.analysis selftest`` runs in CI.
"""

import pytest

from repro.analysis.mutation import (format_reports,
                                     selftest_flow_locks,
                                     selftest_flow_ownership,
                                     selftest_lint,
                                     selftest_pool_lint, selftest_races,
                                     selftest_wallclock_lint,
                                     selftest_waves)


@pytest.fixture(scope="module")
def waves_report():
    return selftest_waves()


@pytest.fixture(scope="module")
def races_report():
    return selftest_races()


@pytest.fixture(scope="module")
def lint_report():
    return selftest_lint()


class TestWavesSelftest:
    def test_passes(self, waves_report):
        assert waves_report.ok, format_reports([waves_report])

    def test_clean_stream_has_no_findings(self, waves_report):
        assert waves_report.clean_findings == []

    def test_duplicate_write_reported_precisely(self, waves_report):
        w1 = [f for f in waves_report.injected_findings
              if f.rule == "WAVE001"]
        assert w1, "overlapping same-wave write not flagged"
        f = w1[0]
        # The report names the aliased panel buffer, both task indices
        # and the byte extent of the overlap.
        assert f.details["buffer"][0] == "panel"
        assert f.details["task_a"] != f.details["task_b"]
        assert f.details["byte_range"][1] > f.details["byte_range"][0]

    def test_order_inversion_reported(self, waves_report):
        assert any(f.rule == "WAVE002"
                   for f in waves_report.injected_findings)

    def test_late_submission_reported_by_session(self, waves_report):
        # A live run submits one trsm_block past the last wave; the flush
        # sorts it after its readers, so only the submitted stream the
        # session verifies can show the inversion.
        assert "WAVE002-late" not in waves_report.expect_rules


class TestRacesSelftest:
    def test_passes(self, races_report):
        assert races_report.ok, format_reports([races_report])

    def test_checked_factorization_clean(self, races_report):
        assert races_report.clean_findings == []

    def test_unfenced_rput_reported(self, races_report):
        hb3 = [f for f in races_report.injected_findings
               if f.rule == "HB003"]
        assert hb3 and "unfenced rput" in hb3[0].message

    def test_signal_before_put_and_starvation_reported(self, races_report):
        fired = {f.rule for f in races_report.injected_findings}
        assert {"HB002", "HB004"} <= fired


class TestPoolLintSelftest:
    @pytest.fixture(scope="class")
    def report(self):
        return selftest_pool_lint()

    def test_passes(self, report):
        assert report.ok, format_reports([report])

    def test_real_storage_module_clean(self, report):
        assert report.clean_findings == []

    def test_raw_alloc_reported(self, report):
        findings = report.injected_findings
        assert [f.rule for f in findings] == ["REP106"]
        assert "np.zeros" in findings[0].message
        assert "BufferPool" in findings[0].message


class TestWallClockLintSelftest:
    @pytest.fixture(scope="class")
    def report(self):
        return selftest_wallclock_lint()

    def test_passes(self, report):
        assert report.ok, format_reports([report])

    def test_real_runtime_module_clean(self, report):
        assert report.clean_findings == []

    def test_wallclock_read_reported(self, report):
        findings = report.injected_findings
        assert [f.rule for f in findings] == ["REP107"]
        assert "time.monotonic" in findings[0].message


class TestFlowOwnershipSelftest:
    @pytest.fixture(scope="class")
    def report(self):
        return selftest_flow_ownership()

    def test_passes(self, report):
        assert report.ok, format_reports([report])

    def test_real_layers_clean(self, report):
        assert report.clean_findings == []

    def test_all_four_rules_fire(self, report):
        fired = {f.rule for f in report.injected_findings}
        assert {"REP200", "REP201", "REP202", "REP203"} <= fired

    def test_precision_pseudo_rules_absent(self, report):
        # Every planted defect was flagged at its exact line: no unmet
        # "<rule>-precise" expectation was appended.
        assert not any(r.endswith("-precise") for r in report.expect_rules)

    def test_findings_name_the_probe_functions(self, report):
        messages = " ".join(f.message for f in report.injected_findings)
        for probe in ("_flow_rep200_probe", "_flow_rep201_probe",
                      "_flow_rep202_probe", "_flow_rep203_probe"):
            assert probe in messages


class TestFlowLocksSelftest:
    @pytest.fixture(scope="class")
    def report(self):
        return selftest_flow_locks()

    def test_passes(self, report):
        assert report.ok, format_reports([report])

    def test_real_layers_clean(self, report):
        assert report.clean_findings == []

    def test_both_rules_fire_precisely(self, report):
        fired = {f.rule for f in report.injected_findings}
        assert {"REP210", "REP211"} <= fired
        assert not any(r.endswith("-precise") for r in report.expect_rules)

    def test_inversion_names_both_sites(self, report):
        f = next(f for f in report.injected_findings if f.rule == "REP211")
        assert "core/tracing.py" in f.message
        assert "service/caches.py" in f.message


class TestLintSelftest:
    def test_passes(self, lint_report):
        assert lint_report.ok, format_reports([lint_report])

    def test_injection_site_still_exists(self, lint_report):
        # Guards against the handler being renamed without updating the
        # self-test: the report degrades to "site not found" then.
        assert "not found" not in lint_report.notes

    def test_undeclared_mutation_reported_precisely(self, lint_report):
        findings = lint_report.injected_findings
        assert [f.rule for f in findings] == ["REP105"]
        assert "_op_syrk_sub" in findings[0].message
        assert "a_ref" in findings[0].message
