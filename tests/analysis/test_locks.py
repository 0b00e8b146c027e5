"""Tests of the lock-discipline analysis (REP210-211)."""

from textwrap import dedent

from repro.analysis.locks import (DEFAULT_LOCK_MODULES, ModuleSource,
                                  analyze_locks)


def findings_for(*sources):
    mods = [ModuleSource(rel, dedent(text)) for rel, text in sources]
    return analyze_locks(mods)


def rules(*sources):
    return [f.rule for f in findings_for(*sources)]


COUNTER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1
"""


class TestUnguardedWrites:
    def test_guarded_everywhere_clean(self):
        assert rules(("core/c.py", COUNTER)) == []

    def test_unguarded_write_flagged(self):
        source = COUNTER + """
        def sneak(self):
            self.count += 1
    """
        findings = findings_for(("core/c.py", source))
        assert [f.rule for f in findings] == ["REP210"]
        assert "Counter.count" in findings[0].message
        assert "Counter.sneak" in findings[0].message

    def test_constructor_writes_exempt(self):
        # ``__init__`` publishes the object; its bare writes do not make
        # the field "guarded elsewhere" and are never violations.
        assert rules(("core/c.py", COUNTER)) == []

    def test_never_guarded_field_exempt(self):
        # A field written without the lock everywhere is treated as
        # unshared (single-owner) rather than misused.
        source = """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.tag = ""

                def rename(self, tag):
                    self.tag = tag

                def clear(self):
                    self.tag = ""
        """
        assert rules(("core/c.py", source)) == []

    def test_mutating_container_call_counts_as_write(self):
        source = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def add(self, x):
                    with self._lock:
                        self.items.append(x)

                def sneak(self, x):
                    self.items.append(x)
        """
        assert rules(("core/c.py", source)) == ["REP210"]

    def test_allow_directive_suppresses(self):
        source = COUNTER + """
        # flow: allow(REP210)
        def sneak(self):
            self.count += 1
    """
        assert rules(("core/c.py", source)) == []


TWO_LOCK_TEMPLATE = """
    import threading

    class A:
        def __init__(self):
            self._lock = threading.Lock()

        def cross(self, b: "B"):
            with self._lock:
                with b._lock:
                    pass

    class B:
        def __init__(self):
            self._lock = threading.Lock()

        def cross(self, a: "A"):
            with {inner}:
                with {outer}:
                    pass
"""


class TestLockOrder:
    def test_consistent_order_clean(self):
        source = TWO_LOCK_TEMPLATE.format(inner="a._lock",
                                          outer="self._lock")
        assert rules(("core/c.py", source)) == []

    def test_inversion_flagged_with_both_sites(self):
        source = TWO_LOCK_TEMPLATE.format(inner="self._lock",
                                          outer="a._lock")
        findings = findings_for(("core/c.py", source))
        assert [f.rule for f in findings] == ["REP211"]
        assert "A._lock" in findings[0].message
        assert "B._lock" in findings[0].message

    def test_inversion_through_callee_acquire(self):
        source = """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()

                def locked_op(self, b: "B"):
                    with self._lock:
                        b.locked_op_rev(self)

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def locked_op_rev(self, a: "A"):
                    with self._lock:
                        with a._lock:
                            pass
        """
        assert "REP211" in rules(("core/c.py", source))

    def test_nonreentrant_self_acquire_flagged(self):
        source = """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """
        findings = findings_for(("core/c.py", source))
        assert "REP211" in [f.rule for f in findings]

    def test_reentrant_self_acquire_allowed(self):
        source = """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """
        assert rules(("core/c.py", source)) == []


class TestRealTree:
    def test_default_modules_clean(self):
        from pathlib import Path

        base = Path(__file__).resolve().parents[2] / "src" / "repro"
        mods = [ModuleSource(rel, (base / rel).read_text())
                for rel in DEFAULT_LOCK_MODULES]
        assert analyze_locks(mods) == []

    def test_syntax_error_becomes_rep290(self):
        findings = findings_for(("core/c.py", "class Broken(:\n"))
        assert [f.rule for f in findings] == ["REP290"]
