"""Unit tests for tools/asyncdr_lint.py: the line-level rules (DR001-DR011),
the suppression grammar, the outputs and the real-tree gate. The structural
rules (DR012-DR014) and frontend selection are in test_asyncdr_sema.py,
which reuses TreeCase from here.

Runs the analyzer in-process against synthetic trees: main() returns the
exit status, and analyze() runs a chosen subset of rules so a fixture only
has to be well-formed for the rule it exercises. Each rule has positive,
negative and suppressed fixtures. The real-tree gate and the injected
regressions check the deployed rule set against a copy of the actual repo:
the tree must be clean, and a protocol that sneaks in std::random_device (or
an unordered iteration, or a wall-clock read) must fail.

unittest-style on purpose: runnable by both `python3 -m unittest` (what
ctest invokes; no third-party deps) and pytest.
"""

import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(TOOLS_DIR)

spec = importlib.util.spec_from_file_location(
    "asyncdr_lint", os.path.join(TOOLS_DIR, "asyncdr_lint.py"))
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)


def run_lint(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        status = lint.main(list(argv))
    return status, out.getvalue()


class TreeCase(unittest.TestCase):
    """Base: a scratch repo root with helpers to drop files into it."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="asyncdr-lint-test-")
        self.addCleanup(shutil.rmtree, self.root)
        os.makedirs(os.path.join(self.root, "src"))

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def lint(self, *extra):
        return run_lint("--root", self.root, "--frontend", "fallback", *extra)

    def check(self, *rules):
        """Runs only `rules` (fallback frontend); returns the rendered
        findings, one per line ("" when clean)."""
        _, findings = lint.analyze(self.root, rules=set(rules))
        return "\n".join(f.render() for f in findings)


CLEAN_CPP = """\
#include "common/util.hpp"
namespace asyncdr {
int f() { return 1; }
}  // namespace asyncdr
"""


class RuleDetection(TreeCase):
    def test_clean_tree_passes(self):
        self.write("src/common/util.hpp",
                   "#pragma once\nnamespace asyncdr {}\n")
        self.write("src/common/util.cpp", CLEAN_CPP)
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr001_wall_clock(self):
        self.write("src/sim/clock.cpp",
                   "namespace asyncdr {\n"
                   "auto t = std::chrono::steady_clock::now();\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR001", out)
        self.assertIn("src/sim/clock.cpp:2", out)

    def test_dr001_time_call_but_not_identifiers_containing_time(self):
        self.write("src/sim/clock.cpp",
                   "namespace asyncdr {\n"
                   "double a = termination_time();\n"
                   "long b = time(nullptr);\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("clock.cpp:3", out)
        self.assertNotIn("clock.cpp:2", out)

    def test_dr001_perfbench_is_scanned(self):
        self.write("perfbench/probes.cpp",
                   "double now() {\n"
                   "  return std::chrono::steady_clock::now()"
                   ".time_since_epoch().count();\n}\n")
        out = self.check("DR001")
        self.assertIn("perfbench/probes.cpp:2: DR001", out)

    def test_dr001_after_digit_separator(self):
        # 1'000'000'000 holds three separators, not char literals: the clock
        # reads after it, on its line and the next, must both stay visible.
        self.write("src/sim/budget.cpp",
                   "namespace asyncdr {\n"
                   "constexpr long kBig = 1'000'000'000; auto a = "
                   "std::chrono::steady_clock::now();\n"
                   "auto b = std::chrono::steady_clock::now();\n}\n")
        out = self.check("DR001")
        self.assertIn("budget.cpp:2: DR001", out)
        self.assertIn("budget.cpp:3: DR001", out)

    def test_dr002_random_device(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\nstd::random_device rd;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR002", out)

    def test_dr002_exempts_rng_files(self):
        self.write("src/common/rng.cpp",
                   "namespace asyncdr {\nstd::mt19937 gen(42);\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr002_ignores_comments_and_strings(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   "// std::random_device would break determinism\n"
                   'const char* s = "rand()";\n}\n')
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr002_ignores_block_comment_spanning_lines(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   "/* Seeding from std::random_device here would\n"
                   "   std::random_device rd; break determinism,\n"
                   "   and so would rand(). */\n"
                   "int x = 0;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr003_source_internals(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   "void f(W& w) { w.source().set_overlay(0, fake); }\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR003", out)

    def test_dr003_exempts_oracle_and_source(self):
        self.write("src/oracle/dyn.cpp",
                   "namespace asyncdr {\n"
                   "void f(W& w) { w.source().set_data(BitVec{}); }\n}\n")
        self.write("src/dr/source.cpp",
                   "namespace asyncdr {\n"
                   "void f(Source& s) { s.set_overlay(0, BitVec{}); }\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr004_stdout_in_src_only(self):
        self.write("src/common/a.cpp",
                   'namespace asyncdr {\nvoid f() { std::cout << 1; }\n}\n')
        self.write("examples/cli.cpp", 'int main() { std::cout << 1; }\n')
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("src/common/a.cpp", out)
        self.assertNotIn("examples/cli.cpp", out)

    def test_dr004_call_split_over_two_lines(self):
        # The sim/network.cpp teardown-audit shape: the stream argument sits
        # on the line after the call's open paren.
        self.write("src/sim/net.cpp",
                   "namespace asyncdr {\n"
                   "void die() {\n"
                   "  std::fprintf(\n"
                   '      stderr, "audit failed\\n");\n'
                   "}\n}\n")
        out = self.check("DR004")
        self.assertIn("src/sim/net.cpp:3: DR004", out)

    def test_dr004_cin(self):
        self.write("src/dr/input.cpp",
                   "namespace asyncdr {\nvoid f(int& x) { std::cin >> x; }\n}\n")
        out = self.check("DR004")
        self.assertIn("input.cpp:2: DR004", out)

    def test_dr005_pragma_once(self):
        self.write("src/common/h.hpp", "namespace asyncdr {}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR005", out)

    def test_dr006_parent_relative_include(self):
        self.write("src/common/a.cpp",
                   '#include "../dr/world.hpp"\nnamespace asyncdr {}\n')
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR006", out)

    def test_dr006_unresolvable_quoted_include(self):
        self.write("src/common/a.cpp",
                   '#include "no/such/file.hpp"\nnamespace asyncdr {}\n')
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR006", out)

    def test_dr006_accepts_src_rooted_and_sibling_includes(self):
        self.write("src/common/h.hpp", "#pragma once\nnamespace asyncdr {}\n")
        self.write("src/common/a.cpp",
                   '#include "common/h.hpp"\nnamespace asyncdr {}\n')
        self.write("bench/bench_common.hpp",
                   "#pragma once\nnamespace asyncdr {}\n")
        self.write("bench/b.cpp",
                   '#include "bench_common.hpp"\nnamespace asyncdr {}\n')
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr006_angle_include_of_project_header(self):
        self.write("src/common/h.hpp", "#pragma once\nnamespace asyncdr {}\n")
        self.write("src/common/a.cpp",
                   "#include <common/h.hpp>\nnamespace asyncdr {}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("angle", out)

    def test_dr007_namespace(self):
        self.write("src/common/a.cpp", "int global_thing() { return 2; }\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR007", out)

    def test_dr008_raw_throw(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   'void f() { throw std::runtime_error("x"); }\n}\n')
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR008", out)

    def test_dr008_exempts_check_hpp(self):
        self.write("src/common/check.hpp",
                   "#pragma once\nnamespace asyncdr {\n"
                   "[[noreturn]] void fail() { throw 1; }\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr009_protocol_without_begin_phase(self):
        self.write("src/protocols/runner.cpp",
                   "namespace asyncdr {\n"
                   "auto f = std::make_unique<FooPeer>();\n}\n")
        self.write("src/protocols/foo.cpp",
                   "namespace asyncdr {\n"
                   "void FooPeer::on_start() { query_runs(runs); }\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR009", out)
        self.assertIn("FooPeer", out)

    def test_dr009_attack_peers_exempt(self):
        self.write("src/protocols/runner.cpp",
                   "namespace asyncdr {\n"
                   "auto f = std::make_unique<LiarPeer>();\n}\n")
        self.write("src/protocols/attacks.cpp",
                   "namespace asyncdr {\n"
                   "void LiarPeer::on_start() {}\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr010_thread_primitives(self):
        self.write("src/dr/world.cpp",
                   "namespace asyncdr {\nstd::mutex m;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR010", out)

    def test_dr010_chaos_campaign_and_threads_exempt(self):
        self.write("src/chaos/runner.cpp",
                   "namespace asyncdr {\nstd::thread t;\n}\n")
        self.write("src/campaign/runner.cpp",
                   "namespace asyncdr {\nstd::atomic<int> cursor;\n}\n")
        self.write("src/common/threads.cpp",
                   "namespace asyncdr {\nint n = "
                   "std::thread::hardware_concurrency();\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr011_fstream_in_model_code(self):
        self.write("src/dr/world.cpp",
                   "namespace asyncdr {\n"
                   'std::ofstream log("state.bin");\n}\n')
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR011", out)

    def test_dr011_fopen_and_filesystem(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   'FILE* f = fopen("x", "wb");\n'
                   'bool e = std::filesystem::exists("x");\n}\n')
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("p.cpp:2", out)
        self.assertIn("p.cpp:3", out)

    def test_dr011_journal_exempt(self):
        self.write("src/dr/journal.cpp",
                   "namespace asyncdr {\n"
                   'std::fstream backing("journal.bin");\n}\n')
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr011_bench_and_examples_exempt(self):
        self.write("bench/b.cpp",
                   "namespace asyncdr {\n"
                   'std::ofstream out("BENCH_x.json");\n}\n')
        self.write("examples/cli.cpp",
                   'int main() { std::ofstream f("report.json"); }\n')
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr011_identifiers_containing_fopen_ok(self):
        self.write("src/dr/p.cpp",
                   "namespace asyncdr {\n"
                   "int reopened = count_reopened();\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)


class Suppressions(TreeCase):
    def test_same_line_allow(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "std::cout << 1;  // asyncdr-lint: allow(DR004) renderer\n"
                   "}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_comment_block_above_allow(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "// asyncdr-lint: allow(DR004) this renderer's whole job\n"
                   "// is console output, reason spans two comment lines.\n"
                   "std::cout << 1;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_allow_does_not_leak_past_code_line(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "// asyncdr-lint: allow(DR004) the next line renders\n"
                   "int x = 0;\n"
                   "std::cout << x;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)

    def test_allow_wrong_rule_does_not_suppress(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "std::cout << 1;  // asyncdr-lint: allow(DR001) renderer\n"
                   "}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)

    def test_reasonless_allow_does_not_suppress(self):
        self.write("src/common/clock.cpp",
                   "namespace asyncdr {\n"
                   "// asyncdr-lint: allow(DR001)\n"
                   "auto t = std::chrono::steady_clock::now();\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1,
                         "a suppression without a reason must not "
                         "suppress\n" + out)
        self.assertIn("clock.cpp:3: DR001", out)

    def test_reasonless_disable_file_does_not_suppress(self):
        self.write("src/common/a.cpp",
                   "// asyncdr-lint: disable-file(DR004)\n"
                   "namespace asyncdr {\nstd::cout << 1;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1, out)

    def test_disable_file(self):
        self.write("src/common/a.cpp",
                   "// asyncdr-lint: disable-file(DR004) report renderer\n"
                   "namespace asyncdr {\n"
                   "std::cout << 1;\nstd::cerr << 2;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_stripper_keeps_lengths_and_char_literals(self):
        text = ("long k = 0x7F'FF; char c = u8'x'; char d = '\"';\n"
                "/* a\n b */ int y = 1'0;\n")
        stripped = lint.strip_comments_and_strings(text)
        self.assertEqual(len(stripped), len(text))
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertIn("0x7F'FF", stripped)   # separators are code
        self.assertIn("u8' '", stripped)     # char literals are blanked
        self.assertIn("int y = 1'0;", stripped)
        self.assertNotIn("a", stripped.splitlines()[1])


class Outputs(TreeCase):
    def test_sarif_output(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\nstd::cout << 1;\n}\n")
        sarif_path = os.path.join(self.root, "out.sarif")
        status, _ = self.lint("--sarif", sarif_path)
        self.assertEqual(status, 1)
        with open(sarif_path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["version"], "2.1.0")
        self.assertEqual(len(doc["runs"]), 1)
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "asyncdr-lint")
        self.assertEqual(run["tool"]["driver"]["properties"]["frontend"],
                         "fallback")
        self.assertEqual(len(run["tool"]["driver"]["rules"]), len(lint.RULES))
        self.assertEqual(len(run["results"]), 1)
        result = run["results"][0]
        self.assertEqual(result["ruleId"], "DR004")
        loc = result["locations"][0]["physicalLocation"]
        self.assertEqual(loc["artifactLocation"]["uri"], "src/common/a.cpp")
        self.assertEqual(loc["region"]["startLine"], 2)

    def test_list_rules_documents_the_catalog(self):
        status, out = run_lint("--list-rules")
        self.assertEqual(status, 0)
        rule_ids = [line.split()[0] for line in out.splitlines()
                    if line.startswith("DR")]
        self.assertEqual(rule_ids, [f"DR{i:03d}" for i in range(1, 15)])
        self.assertIn("ordered-iteration", out)
        self.assertIn("wal-ordering", out)


class RealTree(unittest.TestCase):
    """The acceptance gate: the shipped tree is clean under the fallback
    frontend, and a copy of its sources with a model violation injected
    fails — the deployed rule set guards the real tree, not just
    synthetic fixtures."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="asyncdr-lint-seeded-")
        self.addCleanup(shutil.rmtree, self.root)
        shutil.copytree(os.path.join(REPO_ROOT, "src"),
                        os.path.join(self.root, "src"))

    def inject(self, relpath, text):
        with open(os.path.join(self.root, relpath), "a",
                  encoding="utf-8") as f:
            f.write(text)
        return run_lint("--root", self.root, "--frontend", "fallback")

    def test_real_tree_zero_findings(self):
        status, out = run_lint("--root", REPO_ROOT, "--frontend", "fallback")
        self.assertEqual(status, 0, out)
        self.assertIn(" 0 finding(s)", out)

    def test_injected_random_device_is_caught(self):
        status, out = self.inject(
            "src/protocols/naive.cpp",
            "\nnamespace asyncdr::proto {\n"
            "static std::random_device entropy_leak;\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("naive.cpp", out)
        self.assertIn("DR002", out)

    def test_injected_wall_clock_is_caught(self):
        status, out = self.inject(
            "src/sim/engine.cpp",
            "\nnamespace asyncdr::sim {\nlong boot_ns() { return "
            "std::chrono::steady_clock::now().time_since_epoch()"
            ".count(); }\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("DR001", out)

    def test_injected_unaccounted_source_access_is_caught(self):
        status, out = self.inject(
            "src/protocols/committee.cpp",
            "\nnamespace asyncdr::proto {\nvoid peek(dr::World& w) "
            "{ auto& x = w.source().data(); (void)x; }\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("DR003", out)

    def test_injected_ad_hoc_persistence_is_caught(self):
        status, out = self.inject(
            "src/protocols/crash_multi.cpp",
            "\nnamespace asyncdr::proto {\nvoid persist() "
            '{ std::ofstream f("peer_state.bin"); }\n}\n')
        self.assertEqual(status, 1)
        self.assertIn("DR011", out)
        self.assertIn("crash_multi.cpp", out)

    def test_injected_cross_world_sharing_is_caught(self):
        status, out = self.inject(
            "src/campaign/runner.cpp",
            "\nnamespace asyncdr::campaign {\n"
            "static dr::World recycled_world;\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("DR012", out)
        self.assertIn("runner.cpp", out)

    def test_injected_unordered_iteration_is_caught(self):
        status, out = self.inject(
            "src/dr/phase.cpp",
            "\nnamespace asyncdr::dr {\n"
            "std::unordered_map<int, int> extra_;\n"
            "void dump_extra() {\n"
            "  for (const auto& [k, v] : extra_) { emit(k, v); }\n"
            "}\n}\n")
        self.assertEqual(status, 1, out)
        self.assertIn("DR013", out)
        self.assertIn("phase.cpp", out)


if __name__ == "__main__":
    unittest.main()
