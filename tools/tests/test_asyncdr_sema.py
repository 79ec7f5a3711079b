"""Unit tests for tools/asyncdr_sema.py.

Runs the analyzer in-process (main() returns the exit status) against
synthetic trees, one fixture per rule in each of the four states the triage
contract cares about: positive (finding fires), negative (the idiom that is
actually fine), suppressed (allow() with a justification), and
baseline-matched (known finding tolerated, new one still fatal). Plus the
gate the repo ships with: the real tree under the fallback frontend must be
clean against the checked-in baseline.

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
    "asyncdr_sema", os.path.join(TOOLS_DIR, "asyncdr_sema.py"))
sema = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sema)


def run_sema(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = sema.main(list(argv))
    return status, out.getvalue() + err.getvalue()


class TreeCase(unittest.TestCase):
    """Base: a scratch repo root with helpers to drop files into it."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="asyncdr-sema-test-")
        self.addCleanup(shutil.rmtree, self.root)
        os.makedirs(os.path.join(self.root, "src"))

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def sema(self, *extra):
        return run_sema("--root", self.root, "--frontend", "fallback",
                        "--no-baseline", *extra)


# ---------------------------------------------------------------- SA001

ENTRY_CALLS_HELPER = """\
namespace asyncdr::dr {
void run_world() { helper_clock(); }
}  // namespace asyncdr::dr
"""

HELPER_WITH_CLOCK = """\
namespace asyncdr {
void helper_clock() {
  auto t = std::chrono::steady_clock::now();
}
}  // namespace asyncdr
"""


class SA001Purity(TreeCase):
    def test_positive_sink_reachable_through_helper(self):
        self.write("src/dr/world.cpp", ENTRY_CALLS_HELPER)
        self.write("src/common/helper.cpp", HELPER_WITH_CLOCK)
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 1, out)
        self.assertIn("SA001", out)
        self.assertIn("src/common/helper.cpp:3", out)
        self.assertIn("run_world", out)  # the example path names the root

    def test_negative_sink_unreachable(self):
        # Same sink, but nothing in an entry namespace calls it.
        self.write("src/common/helper.cpp", HELPER_WITH_CLOCK)
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_negative_sink_in_exempt_owner(self):
        self.write("src/dr/world.cpp",
                   "namespace asyncdr::dr {\n"
                   "void run_world() { entropy(); }\n}\n")
        self.write("src/common/rng.cpp",
                   "namespace asyncdr {\n"
                   "void entropy() { std::random_device rd; }\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_honors_lint_allow_for_superseded_rule(self):
        self.write("src/dr/world.cpp", ENTRY_CALLS_HELPER)
        self.write("src/common/helper.cpp",
                   "namespace asyncdr {\n"
                   "void helper_clock() {\n"
                   "  // asyncdr-lint: allow(DR001) progress meter only\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_suppressed_with_sema_allow(self):
        self.write("src/dr/world.cpp", ENTRY_CALLS_HELPER)
        self.write("src/common/helper.cpp",
                   "namespace asyncdr {\n"
                   "void helper_clock() {\n"
                   "  // asyncdr-sema: allow(SA001) diagnostics-only path\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_threads_reachable_is_flagged_outside_campaign(self):
        self.write("src/proto/runner.cpp",
                   "namespace asyncdr::proto {\n"
                   "void go() { std::mutex m; }\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 1, out)
        self.assertIn("threading primitive", out)


# ---------------------------------------------------------------- SA002

UNORDERED_LOOP = """\
namespace asyncdr::dr {
void report() {
  std::unordered_map<int, int> tally;
  for (const auto& [key, value] : tally) {
    emit(key, value);
  }
}
}  // namespace asyncdr::dr
"""


class SA002OrderedIteration(TreeCase):
    def test_positive_range_for_over_unordered(self):
        self.write("src/dr/report.cpp", UNORDERED_LOOP)
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1, out)
        self.assertIn("SA002", out)
        self.assertIn("report.cpp:4", out)

    def test_positive_iterator_loop_over_unordered(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_set<int> seen;\n"
                   "  for (auto it = seen.begin(); it != seen.end(); ++it) {\n"
                   "    emit(*it);\n"
                   "  }\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1, out)

    def test_negative_ordered_map(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::map<int, int> tally;\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)

    def test_negative_provably_order_insensitive(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void tally_up() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  long total = 0;\n"
                   "  for (const auto& [key, value] : tally) {\n"
                   "    total += value;\n"
                   "  }\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)

    def test_positive_member_of_indexed_sequence(self):
        # vector-of-unordered, accessed through a subscript.
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "std::vector<std::unordered_map<int, int>> shards_;\n"
                   "void report() {\n"
                   "  for (const auto& [key, value] : shards_[0]) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1, out)

    def test_suppressed_with_justification(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  // asyncdr-sema: allow(SA002) sorted right below\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)

    def test_reasonless_allow_does_not_suppress(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  // asyncdr-sema: allow(SA002)\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1,
                         "a suppression without a justification must not "
                         "suppress\n" + out)

    def test_disable_file_with_reason(self):
        self.write("src/dr/report.cpp",
                   "// asyncdr-sema: disable-file(SA002) scratch prototype\n"
                   + UNORDERED_LOOP)
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)


# ---------------------------------------------------------------- SA003

JOURNAL_CLIENT = """\
namespace asyncdr::proto {
void Peer::on_restart(const dr::RecoveryState& state) {
  out_.set(0, true);
}
void Peer::apply(int i) {
  %s
}
}  // namespace asyncdr::proto
"""


class SA003WalOrdering(TreeCase):
    def test_positive_mutation_without_preceding_append(self):
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "out_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 1, out)
        self.assertIn("SA003", out)
        self.assertIn("out_", out)

    def test_negative_append_before_mutation(self):
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "if (!journal_indices(idx, vals)) return;\n"
                   "  out_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)

    def test_negative_non_recovered_member(self):
        # scratch_ is never touched by on_restart: not WAL-protected.
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "scratch_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)

    def test_negative_class_without_on_restart(self):
        self.write("src/proto/peer.cpp",
                   "namespace asyncdr::proto {\n"
                   "void Other::apply(int i) { out_.set(i, true); }\n}\n")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)

    def test_suppressed_with_justification(self):
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "// asyncdr-sema: allow(SA003) volatile stage cursor\n"
                   "  out_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)


# ---------------------------------------------------------------- SA004

WORKER_LAMBDA = """\
namespace asyncdr::campaign {
void sweep(Campaign& camp) {
  camp.run(%s(std::size_t i, std::uint64_t seed) { return go(i, seed); });
}
}  // namespace asyncdr::campaign
"""


class SA004CrossWorldSharing(TreeCase):
    def test_positive_mutable_static(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "static int cursor = 0;\n"
                   "void tick() { ++cursor; }\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 1, out)
        self.assertIn("SA004", out)
        self.assertIn("non-const static", out)

    def test_negative_const_static(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "static const int kLimit = 8;\n"
                   "static constexpr int kOther = 9;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_negative_static_function_declaration(self):
        self.write("src/chaos/runner.hpp",
                   "namespace asyncdr::chaos {\n"
                   "struct Runner {\n"
                   "  static Repro shrink(const Profile& p, int s);\n"
                   "};\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_negative_static_outside_worker_dirs(self):
        self.write("src/proto/cache.cpp",
                   "namespace asyncdr::proto {\n"
                   "static int cursor = 0;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_positive_default_ref_capture_worker(self):
        self.write("src/campaign/sweep.cpp", WORKER_LAMBDA % "[&]")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 1, out)
        self.assertIn("default-[&]", out)

    def test_negative_explicit_captures(self):
        self.write("src/campaign/sweep.cpp",
                   WORKER_LAMBDA % "[&results, total]")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_suppressed_with_justification(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "// asyncdr-sema: allow(SA004) guarded by claim cursor\n"
                   "static int cursor = 0;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)


# ------------------------------------------------------ baseline & output

class BaselineAndOutputs(TreeCase):
    def _seed_finding(self):
        self.write("src/dr/report.cpp", UNORDERED_LOOP)

    def test_baseline_roundtrip_and_new_finding_still_fatal(self):
        self._seed_finding()
        baseline = os.path.join(self.root, "baseline.json")
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline, "--write-baseline")
        self.assertEqual(status, 0, out)
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline)
        self.assertEqual(status, 0, out)
        self.assertIn("baselined", out)
        self.write("src/dr/second.cpp", UNORDERED_LOOP)
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline)
        self.assertEqual(status, 1)
        self.assertIn("second.cpp", out)

    def test_stale_baseline_entries_reported_and_pruned(self):
        self._seed_finding()
        baseline = os.path.join(self.root, "baseline.json")
        run_sema("--root", self.root, "--frontend", "fallback",
                 "--baseline", baseline, "--write-baseline")
        # Fix the finding: the baseline entry goes stale.
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\nvoid report() {}\n}\n")
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline)
        self.assertEqual(status, 0, out)
        self.assertIn("stale baseline entry", out)
        self.assertIn("--prune-baseline", out)
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline, "--prune-baseline")
        self.assertEqual(status, 0, out)
        self.assertIn("pruned 1", out)
        with open(baseline, encoding="utf-8") as f:
            self.assertEqual(json.load(f)["fingerprints"], [])
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline)
        self.assertEqual(status, 0, out)
        self.assertNotIn("stale", out)

    def test_foreign_baseline_is_a_usage_error(self):
        self._seed_finding()
        baseline = self.write("baseline.json", json.dumps(
            {"schema": "asyncdr-lint-baseline-v1", "fingerprints": []}))
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--baseline", baseline)
        self.assertEqual(status, 2, out)

    def test_sarif_output(self):
        self._seed_finding()
        sarif_path = os.path.join(self.root, "out.sarif")
        status, _ = self.sema("--sarif", sarif_path)
        self.assertEqual(status, 1)
        with open(sarif_path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "asyncdr-sema")
        self.assertEqual(len(run["tool"]["driver"]["rules"]), 4)
        result = run["results"][0]
        self.assertEqual(result["ruleId"], "SA002")
        loc = result["locations"][0]["physicalLocation"]
        self.assertEqual(loc["artifactLocation"]["uri"], "src/dr/report.cpp")
        self.assertEqual(loc["region"]["startLine"], 4)

    def test_merge_sarif_preserves_lint_run(self):
        self._seed_finding()
        merged = self.write("merged.sarif", json.dumps({
            "$schema": "x", "version": "2.1.0",
            "runs": [{"tool": {"driver": {"name": "asyncdr-lint"}},
                      "results": []}],
        }))
        status, _ = self.sema("--merge-sarif", merged)
        self.assertEqual(status, 1)
        with open(merged, encoding="utf-8") as f:
            doc = json.load(f)
        names = [r["tool"]["driver"]["name"] for r in doc["runs"]]
        self.assertEqual(names, ["asyncdr-lint", "asyncdr-sema"])
        # Re-running replaces the sema run instead of stacking duplicates.
        status, _ = self.sema("--merge-sarif", merged)
        with open(merged, encoding="utf-8") as f:
            doc = json.load(f)
        names = [r["tool"]["driver"]["name"] for r in doc["runs"]]
        self.assertEqual(names, ["asyncdr-lint", "asyncdr-sema"])

    def test_list_rules(self):
        status, out = run_sema("--list-rules")
        self.assertEqual(status, 0)
        for rule_id in ("SA001", "SA002", "SA003", "SA004"):
            self.assertIn(rule_id, out)
        self.assertIn("purity-reachability", out)
        self.assertIn("wal-ordering", out)


class FrontendSelection(TreeCase):
    def test_libclang_unavailable_exits_77(self):
        if sema.load_libclang() is not None:
            self.skipTest("libclang available here; the 77 path is for "
                          "environments without it")
        self.write("src/common/a.cpp", "namespace asyncdr {}\n")
        status, out = run_sema("--root", self.root, "--frontend", "libclang")
        self.assertEqual(status, 77, out)

    def test_auto_falls_back_and_reports_frontend(self):
        self.write("src/common/a.cpp", "namespace asyncdr {}\n")
        status, out = run_sema("--root", self.root, "--no-baseline")
        self.assertEqual(status, 0, out)
        self.assertIn("asyncdr-sema[", out)


class RealRepoGate(unittest.TestCase):
    """The acceptance gate: the shipped tree is clean under the fallback
    frontend against the checked-in (empty) baseline — every finding the
    analyzer can raise has been fixed or carries a written justification."""

    def test_real_tree_zero_unsuppressed_findings(self):
        status, out = run_sema("--root", REPO_ROOT, "--frontend", "fallback")
        self.assertEqual(status, 0, out)
        self.assertIn("0 finding(s)", out)

    def test_real_tree_regression_is_caught(self):
        # Copy src/ + tools baseline, inject an unordered iteration into a
        # trace-affecting protocol file, and require the analyzer to fail.
        scratch = tempfile.mkdtemp(prefix="asyncdr-sema-regress-")
        self.addCleanup(shutil.rmtree, scratch)
        shutil.copytree(os.path.join(REPO_ROOT, "src"),
                        os.path.join(scratch, "src"))
        victim = os.path.join(scratch, "src/dr/phase.cpp")
        with open(victim, encoding="utf-8") as f:
            text = f.read()
        text += ("\nnamespace asyncdr::dr {\n"
                 "std::unordered_map<int, int> extra_;\n"
                 "void dump_extra() {\n"
                 "  for (const auto& [k, v] : extra_) { emit(k, v); }\n"
                 "}\n}\n")
        with open(victim, "w", encoding="utf-8") as f:
            f.write(text)
        status, out = run_sema("--root", scratch, "--frontend", "fallback",
                               "--no-baseline")
        self.assertEqual(status, 1, out)
        self.assertIn("SA002", out)
        self.assertIn("phase.cpp", out)


if __name__ == "__main__":
    unittest.main()
