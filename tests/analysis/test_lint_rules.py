"""Golden-file coverage for every determinism lint rule.

Each rule gets fixture snippets that must flag and near-miss snippets
that must stay clean, plus the meta-level contracts: suppression
mechanics, the strict/canonical/cost scoping, the CLI exit codes, and
the requirement that ``src/repro`` itself lints clean with zero
unexplained suppressions.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.lint import DEFAULT_CONFIG, lint_paths, lint_source, module_rel

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: A synthetic path resolving to a canonical-path module.
KERNEL_PATH = "/x/repro/routing/kernel.py"
#: A synthetic path inside the package but off the canonical list.
REPORT_PATH = "/x/repro/analysis/report.py"
#: A synthetic path outside any repro root: strict mode.
STRICT_PATH = "/x/fixture.py"


def rules_at(source, path=STRICT_PATH):
    """Active rule ids found in ``source`` linted as ``path``."""
    report = lint_source(textwrap.dedent(source), path)
    return [f.rule for f in report.active]


# ---------------------------------------------------------------------------
# scoping
# ---------------------------------------------------------------------------


def test_module_rel_resolves_inside_repro_root():
    assert module_rel("/a/b/src/repro/routing/kernel.py") == "routing/kernel.py"
    assert module_rel("/a/repro/x/repro/sim/events.py") == "sim/events.py"


def test_module_rel_outside_root_is_none():
    assert module_rel("/tmp/fixture.py") is None


def test_strict_path_gets_all_rules():
    assert "unordered-iter" in rules_at("s = {1, 2}\nfor x in s:\n    pass\n")


def test_non_canonical_module_skips_unordered_iter():
    src = "s = {1, 2}\nfor x in s:\n    pass\n"
    assert rules_at(src, REPORT_PATH) == []
    assert rules_at(src, KERNEL_PATH) == ["unordered-iter"]


# ---------------------------------------------------------------------------
# R1: unordered-iter
# ---------------------------------------------------------------------------


def test_r1_flags_bare_set_loop():
    assert rules_at("pending = set()\nfor x in pending:\n    pass\n") == [
        "unordered-iter"
    ]


def test_r1_flags_keys_view_union():
    src = "a = {}\nb = {}\nfor k in a.keys() | b.keys():\n    pass\n"
    assert rules_at(src) == ["unordered-iter"]


def test_r1_flags_binop_with_one_known_set_operand():
    # `x & {...}` is set-valued (or raises) even when only one side is
    # provably a set; requiring both would let unknown params escape.
    src = """
    def bad(nodes):
        for n in nodes & {"a"}:
            pass
    """
    assert rules_at(src) == ["unordered-iter"]


def test_r1_integer_bitmask_arithmetic_is_clean():
    src = "MASK = 0x0F\n\ndef f(flags):\n    return flags & MASK\n"
    assert rules_at(src) == []


def test_r1_flags_comprehension_over_set():
    assert rules_at("s = {1}\nrows = [x for x in s]\n") == ["unordered-iter"]


def test_r1_flags_self_attribute_set():
    src = """
    class K:
        def __init__(self):
            self._dirty = set()

        def drain(self):
            for x in self._dirty:
                pass
    """
    assert rules_at(src) == ["unordered-iter"]


def test_r1_flags_set_returning_function():
    src = """
    from typing import Set

    def changes() -> Set[int]:
        return {1}

    for x in changes():
        pass
    """
    assert rules_at(src) == ["unordered-iter"]


def test_r1_flags_annotated_parameter():
    src = """
    from typing import Optional, Set

    def relax(suppliers: Optional[Set[str]] = None):
        for s in suppliers:
            pass
    """
    assert rules_at(src) == ["unordered-iter"]


def test_r1_sorted_drain_is_clean():
    src = "pending = set()\nfor x in sorted(pending, key=repr):\n    pass\n"
    assert rules_at(src) == []


def test_r1_plain_dict_iteration_is_clean():
    src = "d = {}\nfor k in d:\n    pass\nfor k, v in d.items():\n    pass\n"
    assert rules_at(src) == []


def test_r1_list_iteration_is_clean():
    assert rules_at("xs = [1, 2]\nfor x in xs:\n    pass\n") == []


# ---------------------------------------------------------------------------
# R2: hash-escape
# ---------------------------------------------------------------------------


def test_r2_flags_builtin_hash_everywhere():
    assert rules_at("key = hash((1, 2))\n", REPORT_PATH) == ["hash-escape"]


def test_r2_flags_builtin_id():
    assert rules_at("tag = id(object())\n", REPORT_PATH) == ["hash-escape"]


def test_r2_flags_set_materialisation_in_canonical_module():
    src = "s = {1, 2}\nrows = list(s)\n"
    assert rules_at(src, KERNEL_PATH) == ["hash-escape"]
    assert rules_at(src, REPORT_PATH) == []


def test_r2_hashlib_is_clean():
    src = "import hashlib\ndigest = hashlib.sha256(b'x').hexdigest()\n"
    assert rules_at(src) == []


def test_r2_list_of_sorted_is_clean():
    assert rules_at("s = {1}\nrows = list(sorted(s, key=repr))\n") == []


# ---------------------------------------------------------------------------
# R3: unseeded-random / wall-clock
# ---------------------------------------------------------------------------


def test_r3_flags_ambient_random_call():
    src = "import random\nx = random.random()\n"
    assert rules_at(src, REPORT_PATH) == ["unseeded-random"]


def test_r3_flags_unseeded_random_instance():
    assert rules_at("import random\nrng = random.Random()\n") == ["unseeded-random"]


def test_r3_flags_from_random_import():
    assert rules_at("from random import choice\n") == ["unseeded-random"]


def test_r3_seeded_random_is_clean():
    src = "import random\nrng = random.Random(7)\nrng.random()\n"
    assert rules_at(src) == []


def test_r3_from_random_import_random_class_is_clean():
    assert rules_at("from random import Random\nrng = Random(7)\n") == []


def test_r3_flags_wall_clock_reads():
    assert rules_at("import time\nt = time.time()\n") == ["wall-clock"]
    assert rules_at("import time\nt = time.perf_counter()\n") == ["wall-clock"]
    assert rules_at("from time import perf_counter\n") == ["wall-clock"]


def test_r3_flags_datetime_now():
    src = "from datetime import datetime\nstamp = datetime.now()\n"
    assert rules_at(src) == ["wall-clock"]


def test_r3_time_sleep_is_clean():
    assert rules_at("import time\ntime.sleep(0)\n") == []


def test_r3_allowlist_covers_runner_wall_clock():
    src = "import time\nt = time.perf_counter()\n"
    report = lint_source(src, "/x/repro/experiments/runner.py")
    assert report.ok
    assert [f.rule for f, _reason in report.allowlisted] == ["wall-clock"]


def test_r3_allowlist_covers_obs_sink_wall_clock():
    # The JSONL sink boundary is the one observability module allowed to
    # stamp wall time onto records.
    src = "import time\nstamp = time.time()\n"
    report = lint_source(src, "/x/repro/obs/events.py")
    assert report.ok
    assert [f.rule for f, _reason in report.allowlisted] == ["wall-clock"]


def test_r3_obs_trace_and_feed_are_not_allowlisted():
    # Near-miss: the rest of the observability layer must stay clock-free;
    # only the sink boundary is quarantined.
    src = "import time\nstamp = time.time()\n"
    for path in ("/x/repro/obs/trace.py", "/x/repro/obs/feed.py"):
        report = lint_source(src, path)
        assert not report.ok
        assert [f.rule for f in report.active] == ["wall-clock"]


# ---------------------------------------------------------------------------
# R4: float-eq
# ---------------------------------------------------------------------------


def test_r4_flags_float_literal_equality():
    src = "def pay(c):\n    return c == 0.5\n"
    assert rules_at(src, "/x/repro/mechanism/vcg.py") == ["float-eq"]


def test_r4_flags_float_cast_inequality():
    src = "def pay(a, b):\n    return float(a) != b\n"
    assert rules_at(src, "/x/repro/routing/engine.py") == ["float-eq"]


def test_r4_outside_cost_scope_is_clean():
    src = "def pay(c):\n    return c == 0.5\n"
    assert rules_at(src, "/x/repro/sim/metrics.py") == []


def test_r4_int_and_ordering_comparisons_are_clean():
    src = "def pay(c, d):\n    return c == 5 or c < 0.5 or c == d\n"
    assert rules_at(src, "/x/repro/mechanism/vcg.py") == []


# ---------------------------------------------------------------------------
# R5: kernel-purity
# ---------------------------------------------------------------------------


def purity(source):
    """Lint a ``# purity: kernel`` module (strict path)."""
    return rules_at("# purity: kernel\n" + textwrap.dedent(source))


def test_r5_flags_banned_imports():
    assert purity("import os\n") == ["kernel-purity"]
    assert purity("import random\n") == ["kernel-purity"]
    assert purity("from time import sleep\n") == ["kernel-purity"]


def test_r5_flags_io_calls():
    assert purity("def f():\n    print('x')\n") == ["kernel-purity"]
    assert purity("def f():\n    open('/tmp/x')\n") == ["kernel-purity"]


def test_r5_flags_global_statement():
    assert purity("X = 1\ndef f():\n    global X\n    X = 2\n") == ["kernel-purity"]


def test_r5_flags_module_global_mutation():
    assert purity("CACHE = {}\ndef f(k):\n    CACHE[k] = 1\n") == ["kernel-purity"]
    assert purity("SEEN = set()\ndef f(k):\n    SEEN.add(k)\n") == ["kernel-purity"]


def test_r5_flags_argument_mutation():
    assert purity("def f(d):\n    d['k'] = 1\n") == ["kernel-purity"]
    assert purity("def f(xs):\n    xs.append(1)\n") == ["kernel-purity"]
    assert purity("def f(e):\n    e.cost = 1\n") == ["kernel-purity"]


def test_r5_self_state_and_locals_are_clean():
    src = """
    class K:
        def f(self, x):
            self.total = x
            local = []
            local.append(x)
            x = None
            return local
    """
    assert purity(src) == []


def test_r5_inactive_without_marker():
    assert rules_at("import os\n") == []


def test_r5_unknown_contract_is_flagged():
    assert rules_at("# purity: bogus\n") == ["kernel-purity"]


# ---------------------------------------------------------------------------
# suppressions and meta rules
# ---------------------------------------------------------------------------


def test_suppression_on_same_line_silences():
    src = (
        "s = {1}\n"
        "for x in s:  # lint: allow[unordered-iter] order provably cannot escape\n"
        "    pass\n"
    )
    report = lint_source(src, STRICT_PATH)
    assert report.ok
    assert len(report.suppressed) == 1
    finding, supp = report.suppressed[0]
    assert finding.rule == "unordered-iter"
    assert supp.reason == "order provably cannot escape"


def test_suppression_on_line_above_silences():
    src = (
        "s = {1}\n"
        "# lint: allow[unordered-iter] order provably cannot escape\n"
        "for x in s:\n"
        "    pass\n"
    )
    assert lint_source(src, STRICT_PATH).ok


def test_suppression_without_reason_is_lint_meta():
    src = "s = {1}\nfor x in s:  # lint: allow[unordered-iter]\n    pass\n"
    assert rules_at(src) == ["lint-meta"]


def test_unused_suppression_is_lint_meta():
    src = "# lint: allow[unordered-iter] stale exemption\nx = 1\n"
    assert rules_at(src) == ["lint-meta"]


def test_wrong_rule_suppression_does_not_silence():
    src = (
        "s = {1}\n"
        "for x in s:  # lint: allow[float-eq] wrong rule\n"
        "    pass\n"
    )
    rules = rules_at(src)
    assert "unordered-iter" in rules  # the real finding survives
    assert "lint-meta" in rules  # and the suppression is unused


def test_syntax_error_is_parse_error_finding():
    assert rules_at("def f(:\n") == ["parse-error"]


# ---------------------------------------------------------------------------
# the analyzer on the real package (and on itself)
# ---------------------------------------------------------------------------


def test_src_repro_lints_clean():
    report = lint_paths([os.path.join(REPO_SRC, "repro")], DEFAULT_CONFIG)
    assert report.ok, "\n" + report.render_text()
    assert report.files_checked > 50
    # Zero unexplained suppressions: every one carries a reason.
    assert all(supp.reason for _f, supp in report.suppressed)
    # The analyzer package itself was part of the walk.
    linted = {f for f in os.listdir(os.path.join(REPO_SRC, "repro", "analysis", "lint"))}
    assert "engine.py" in linted


def test_kernel_suppression_inventory_is_curated():
    """The kernel's exemptions are exactly the analysed-and-safe sites."""
    kernel = os.path.join(REPO_SRC, "repro", "routing", "kernel.py")
    report = lint_paths([kernel], DEFAULT_CONFIG)
    assert report.ok
    rules = sorted(supp.rule for _f, supp in report.suppressed)
    assert rules == [
        "float-eq",
        "float-eq",
        "kernel-purity",
        # argmin drain in _relax_route, where iteration order cannot
        # change the strict-total-order minimum.
        "unordered-iter",
    ]


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


def run_cli(*args):
    """Run ``python -m repro lint`` with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def violating_fixture(tmp_path):
    """A seeded fixture file with one violation per major rule."""
    path = tmp_path / "violations.py"
    path.write_text(
        "import random\n"
        "s = {1, 2}\n"
        "for x in s:\n"
        "    random.random()\n"
        "key = hash(s)\n"
    )
    return str(path)


def test_cli_fails_on_seeded_fixture(violating_fixture):
    proc = run_cli("--paths", violating_fixture)
    assert proc.returncode == 1
    assert "unordered-iter" in proc.stdout
    assert "unseeded-random" in proc.stdout
    assert "hash-escape" in proc.stdout
    assert "FAIL" in proc.stdout


def test_cli_json_format(violating_fixture):
    proc = run_cli("--paths", violating_fixture, "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert {f["rule"] for f in doc["active"]} >= {
        "unordered-iter",
        "unseeded-random",
        "hash-escape",
    }


def test_cli_clean_file_exits_zero(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("xs = [1, 2]\ntotal = sum(xs)\n")
    proc = run_cli("--paths", str(clean))
    assert proc.returncode == 0
    assert "OK" in proc.stdout
