"""Unit tests of the repo-invariant AST lint pass."""

from pathlib import Path

from repro.analysis.lint import lint_source, lint_tree


def rules(text, rel="core/somefile.py"):
    return [f.rule for f in lint_source(text, f"src/repro/{rel}", rel=rel)]


class TestRandomRule:
    def test_legacy_sampler_flagged(self):
        assert rules("import numpy as np\nx = np.random.rand(3)\n") == \
            ["REP101"]

    def test_legacy_seed_flagged(self):
        assert rules("import numpy as np\nnp.random.seed(0)\n") == ["REP101"]

    def test_unseeded_default_rng_flagged(self):
        assert rules("import numpy as np\nr = np.random.default_rng()\n") \
            == ["REP101"]

    def test_seeded_default_rng_clean(self):
        assert rules("import numpy as np\n"
                     "r = np.random.default_rng(42)\n") == []

    def test_unrelated_attribute_clean(self):
        assert rules("x = rng.normal(size=3)\n") == []


class TestThreadingRule:
    def test_import_outside_allowlist_flagged(self):
        assert rules("import threading\n") == ["REP102"]
        assert rules("from concurrent.futures import Future\n") == ["REP102"]
        assert rules("import multiprocessing\n") == ["REP102"]
        assert rules("from concurrent.futures import ThreadPoolExecutor\n",
                     rel="kernels/dispatch.py") == ["REP102"]

    def test_allowlisted_files_clean(self):
        for rel in ("core/tracing.py", "service/service.py",
                    "service/spool.py"):
            findings = lint_source("import threading\n",
                                   f"src/repro/{rel}", rel=rel)
            assert [f.rule for f in findings] == [], rel

    def test_unrelated_import_clean(self):
        assert rules("import itertools\nimport numpy as np\n") == []


class TestAssertRule:
    def test_assert_flagged(self):
        assert rules("def f(x):\n    assert x > 0\n    return x\n") == \
            ["REP103"]

    def test_raise_clean(self):
        assert rules("def f(x):\n"
                     "    if x <= 0:\n"
                     "        raise ValueError('x')\n"
                     "    return x\n") == []


class TestDictOrderRule:
    REL = "core/taskgraph.py"

    def test_bare_items_iteration_flagged(self):
        text = "for k, v in d.items():\n    pass\n"
        assert rules(text, rel=self.REL) == ["REP104"]

    def test_comprehension_over_values_flagged(self):
        text = "xs = [v for v in d.values()]\n"
        assert rules(text, rel=self.REL) == ["REP104"]

    def test_sorted_iteration_clean(self):
        text = "for k, v in sorted(d.items()):\n    pass\n"
        assert rules(text, rel=self.REL) == []

    def test_rule_scoped_to_taskgraph(self):
        text = "for k, v in d.items():\n    pass\n"
        assert rules(text, rel="core/engine.py") == []


class TestHandlerRule:
    REL = "kernels/dispatch.py"

    def handler(self, body):
        text = ("HANDLER = 1\n"
                "def _op_syrk_sub(ctx, tgt_ref, a_ref, flat, sign):\n"
                + "".join(f"    {line}\n" for line in body))
        return [f for f in lint_source(text, "dispatch.py", rel=self.REL)]

    def test_declared_target_write_clean(self):
        assert self.handler([
            "prod = a_ref",
            "ctx.resolve(tgt_ref)[flat] += prod",
        ]) == []

    def test_read_only_operand_write_flagged(self):
        findings = self.handler(["ctx.resolve(a_ref)[0, 0] = 0.0"])
        assert [f.rule for f in findings] == ["REP105"]
        assert "ctx.resolve(a_ref)" in findings[0].message

    def test_alias_through_local_tracked(self):
        findings = self.handler([
            "view = ctx.resolve(a_ref)",
            "view[0] = 1.0",
        ])
        assert [f.rule for f in findings] == ["REP105"]

    def test_mutating_method_on_accessor_flagged(self):
        text = ("def _op_potrf_diag(ctx, s):\n"
                "    ctx.rhs.fill(0.0)\n")
        findings = lint_source(text, "dispatch.py", rel=self.REL)
        assert [f.rule for f in findings] == ["REP105"]

    def test_unknown_handler_needs_spec(self):
        text = "def _op_hyperdrive(ctx, s):\n    pass\n"
        findings = lint_source(text, "dispatch.py", rel=self.REL)
        assert [f.rule for f in findings] == ["REP105"]
        assert "HANDLER_WRITE_SPEC" in findings[0].message


class TestPoolAllocRule:
    TEXT = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"

    def test_raw_alloc_in_hot_modules_flagged(self):
        for rel in ("core/storage.py", "variants/fanin.py",
                    "kernels/dense.py"):
            assert rules(self.TEXT, rel=rel) == ["REP106"], rel

    def test_rule_scoped_to_hot_modules(self):
        for rel in ("core/engine.py", "sparse/csc.py", "memory/pool.py"):
            assert rules(self.TEXT, rel=rel) == [], rel

    def test_np_empty_and_module_level_flagged(self):
        assert rules("import numpy as np\nX = np.empty(3)\n",
                     rel="kernels/dense.py") == ["REP106"]

    def test_allowlisted_function_clean(self):
        text = ("import numpy as np\n"
                "def proportional_supernode_mapping(n):\n"
                "    return np.empty(n)\n")
        assert rules(text, rel="variants/multifrontal.py") == []

    def test_allowlist_keyed_by_file_and_function(self):
        text = ("import numpy as np\n"
                "def proportional_supernode_mapping(n):\n"
                "    return np.empty(n)\n")
        assert rules(text, rel="variants/fanin.py") == ["REP106"]

    def test_pool_take_clean(self):
        # A take in the buffer's owner is the sanctioned allocation.
        text = ("class FactorStorage:\n"
                "    def __init__(self, pool):\n"
                "        self.buf = pool.take((4, 4), float, label='x')\n")
        assert rules(text, rel="core/storage.py") == []

    def test_pool_take_outside_owner_flagged(self):
        # Any module outside memory/, any receiver: only the owner
        # methods in POOL_OWNERS may take or give pool buffers.
        text = ("def _op_frontal(ctx, s, kids):\n"
                "    front = ctx.pool.take((4, 4))\n"
                "    ctx.pool.give(front)\n")
        findings = lint_source(text, "dispatch.py",
                               rel="kernels/dispatch.py")
        assert [f.rule for f in findings if f.rule == "REP106"] == \
            ["REP106", "REP106"]
        assert "_op_frontal" in findings[0].message
        for rel in ("service/service.py", "core/base.py"):
            text = "def f(self):\n    self.session.pool.give(self.buf)\n"
            assert rules(text, rel=rel) == ["REP106"], rel

    def test_pool_owner_allowlist_exact(self):
        owner = ("class SolverBase:\n"
                 "    def _rhs_buffer(self, n):\n"
                 "        return self.session.pool.take((n, 4))\n")
        assert rules(owner, rel="core/base.py") == []
        # The same method name in another file owns nothing.
        assert rules(owner, rel="core/solver.py") == ["REP106"]
        # The pool module itself and numpy's take are not pool calls.
        assert rules("def f(p, a):\n    return p.take((2,))\n",
                     rel="memory/pool.py") == []
        assert rules("import numpy as np\nX = np.take([1, 2], [0])\n",
                     rel="core/base.py") == []

    def test_nested_helper_inherits_allowlist(self):
        # The allowlisted outer scope covers helpers defined inside it.
        text = ("import numpy as np\n"
                "def proportional_supernode_mapping(n):\n"
                "    def assign(k):\n"
                "        return np.zeros(k)\n"
                "    return assign(n)\n")
        assert rules(text, rel="variants/multifrontal.py") == []

    def test_method_resolves_to_qualified_name(self):
        # A method named like an allowlisted top-level function is a
        # different qualified name ("C.proportional_supernode_mapping")
        # and must still be flagged.
        text = ("import numpy as np\n"
                "class C:\n"
                "    def proportional_supernode_mapping(self, n):\n"
                "        return np.empty(n)\n")
        assert rules(text, rel="variants/multifrontal.py") == ["REP106"]

    def test_decorated_allowlisted_function_clean(self):
        text = ("import numpy as np\n"
                "@functools.cache\n"
                "def proportional_supernode_mapping(n):\n"
                "    return np.empty(n)\n")
        assert rules(text, rel="variants/multifrontal.py") == []

    def test_decorator_and_defaults_use_enclosing_scope(self):
        # Decorator expressions and parameter defaults evaluate outside
        # the function body; the function's allowlist entry must not
        # suppress allocations inside them.
        text = ("import numpy as np\n"
                "@register(np.zeros(3))\n"
                "def proportional_supernode_mapping(n, seed=np.empty(2)):\n"
                "    return n\n")
        assert rules(text, rel="variants/multifrontal.py") == \
            ["REP106", "REP106"]

    def test_scope_named_in_message(self):
        text = ("import numpy as np\n"
                "class S:\n"
                "    def build(self):\n"
                "        return np.zeros(4)\n")
        findings = lint_source(text, "src/repro/core/storage.py",
                               rel="core/storage.py")
        assert [f.rule for f in findings] == ["REP106"]
        assert "S.build" in findings[0].message


class TestWallClockRule:
    def test_dotted_wallclock_call_flagged(self):
        text = "import time\nt0 = time.monotonic()\n"
        assert rules(text, rel="pgas/runtime.py") == ["REP107"]

    def test_all_three_clocks_flagged(self):
        text = ("import time\n"
                "a = time.time()\nb = time.monotonic()\n"
                "c = time.perf_counter()\n")
        assert rules(text, rel="resilience/delivery.py") == ["REP107"] * 3

    def test_from_import_flagged(self):
        text = "from time import perf_counter\n"
        assert rules(text, rel="pgas/events.py") == ["REP107"]

    def test_rule_scoped_to_simulated_time_dirs(self):
        text = "import time\nt0 = time.perf_counter()\n"
        assert rules(text, rel="kernels/dispatch.py") == []
        assert rules(text, rel="core/session.py") == []

    def test_non_clock_time_functions_clean(self):
        text = "import time\ntime.sleep(0)\nfrom time import strftime\n"
        assert rules(text, rel="pgas/runtime.py") == []


class TestTreeInvariant:
    def test_working_tree_is_clean(self):
        assert lint_tree() == []

    def test_syntax_error_is_rep100(self):
        findings = lint_source("def f(:\n", "broken.py", rel="core/x.py")
        assert [f.rule for f in findings] == ["REP100"]

    def test_real_dispatch_file_clean(self):
        path = (Path(__file__).resolve().parents[2]
                / "src" / "repro" / "kernels" / "dispatch.py")
        findings = lint_source(path.read_text(), str(path),
                               rel="kernels/dispatch.py")
        assert findings == []
