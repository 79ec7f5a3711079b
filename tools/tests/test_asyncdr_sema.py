"""Unit tests for the structural rules of tools/asyncdr_lint.py.

DR012 (cross-world sharing), DR013 (ordered iteration) and DR014 (WAL
ordering) read the IR a C++ frontend lowers, not single lines, so their
fixtures live here next to the frontend-selection and SARIF checks for
that IR; test_asyncdr_lint.py holds the line-level rules, the suppression
grammar and the real-tree gate, and the TreeCase fixture both files use.
Each rule has positive, negative and suppressed fixtures.

unittest-style on purpose: runnable by both `python3 -m unittest` (what
ctest invokes; no third-party deps) and pytest.
"""

import json
import os
import unittest

import test_asyncdr_lint as lexical
from test_asyncdr_lint import TreeCase, lint, run_lint

WORKER_LAMBDA = """\
namespace asyncdr::campaign {
void sweep(Campaign& camp) {
  camp.run(%s(std::size_t i, std::uint64_t seed) { return go(i, seed); });
}
}  // namespace asyncdr::campaign
"""


class CrossWorldSharing(TreeCase):
    def test_dr012_static_world_in_campaign(self):
        self.write("src/campaign/runner.cpp",
                   "namespace asyncdr {\n"
                   "static dr::World shared_world;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR012", out)
        self.assertIn("src/campaign/runner.cpp:2", out)
        # One finding per line, even though two shapes match it.
        self.assertEqual(out.count("runner.cpp:2"), 1, out)

    def test_dr012_shared_ptr_engine_in_chaos(self):
        self.write("src/chaos/runner.cpp",
                   "namespace asyncdr {\n"
                   "std::shared_ptr<sim::Engine> cached_engine;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 1)
        self.assertIn("DR012", out)

    def test_dr012_run_local_worlds_and_static_const_ok(self):
        self.write("src/campaign/runner.cpp",
                   "namespace asyncdr {\n"
                   "static const dr::World* kNoWorld = nullptr;\n"
                   "void run_one() { dr::World world; (void)world; }\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr012_outside_sweep_dirs_ignored(self):
        # The rule guards the fan-out layers; dr/ itself composes worlds
        # from engines by design, and statics elsewhere are not its concern.
        self.write("src/dr/world.cpp",
                   "namespace asyncdr {\n"
                   "std::shared_ptr<sim::Engine> engine_;\n"
                   "static int cursor = 0;\n}\n")
        status, out = self.lint()
        self.assertEqual(status, 0, out)

    def test_dr012_mutable_static(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "static int cursor = 0;\n"
                   "void tick() { ++cursor; }\n}\n")
        out = self.check("DR012")
        self.assertIn("worker.cpp:2: DR012", out)
        self.assertIn("non-const static", out)

    def test_dr012_const_static_ok(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "static const int kLimit = 8;\n"
                   "static constexpr int kOther = 9;\n}\n")
        self.assertEqual(self.check("DR012"), "")

    def test_dr012_static_function_declaration_ok(self):
        self.write("src/chaos/runner.hpp",
                   "namespace asyncdr::chaos {\n"
                   "struct Runner {\n"
                   "  static Repro shrink(const Profile& p, int s);\n"
                   "};\n}\n")
        self.assertEqual(self.check("DR012"), "")

    def test_dr012_default_ref_capture_worker(self):
        self.write("src/campaign/sweep.cpp", WORKER_LAMBDA % "[&]")
        out = self.check("DR012")
        self.assertIn("sweep.cpp:3: DR012", out)
        self.assertIn("default-[&]", out)

    def test_dr012_explicit_captures_ok(self):
        self.write("src/campaign/sweep.cpp",
                   WORKER_LAMBDA % "[&results, total]")
        self.assertEqual(self.check("DR012"), "")

    def test_dr012_suppressed_with_reason(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "// asyncdr-lint: allow(DR012) guarded by claim cursor\n"
                   "static int cursor = 0;\n}\n")
        self.assertEqual(self.check("DR012"), "")


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


class OrderedIteration(TreeCase):
    def test_dr013_range_for_over_unordered(self):
        self.write("src/dr/report.cpp", UNORDERED_LOOP)
        self.assertIn("report.cpp:4: DR013", self.check("DR013"))

    def test_dr013_iterator_loop_over_unordered(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_set<int> seen;\n"
                   "  for (auto it = seen.begin(); it != seen.end(); ++it) {\n"
                   "    emit(*it);\n"
                   "  }\n"
                   "}\n}\n")
        self.assertIn("report.cpp:4: DR013", self.check("DR013"))

    def test_dr013_member_of_indexed_sequence(self):
        # vector-of-unordered, accessed through a subscript.
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "std::vector<std::unordered_map<int, int>> shards_;\n"
                   "void report() {\n"
                   "  for (const auto& [key, value] : shards_[0]) emit(key);\n"
                   "}\n}\n")
        self.assertIn("report.cpp:4: DR013", self.check("DR013"))

    def test_dr013_after_digit_separator(self):
        # An odd number of separators must not swallow the loop below.
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  constexpr long kBig = 1'000'000'000;\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        self.assertIn("report.cpp:5: DR013", self.check("DR013"))

    def test_dr013_ordered_map_ok(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::map<int, int> tally;\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        self.assertEqual(self.check("DR013"), "")

    def test_dr013_provably_order_insensitive_ok(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void tally_up() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  long total = 0;\n"
                   "  for (const auto& [key, value] : tally) {\n"
                   "    total += value;\n"
                   "  }\n"
                   "}\n}\n")
        self.assertEqual(self.check("DR013"), "")

    def test_dr013_suppressed_with_reason(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  // asyncdr-lint: allow(DR013) sorted right below\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        self.assertEqual(self.check("DR013"), "")

    def test_dr013_disable_file_with_reason(self):
        self.write("src/dr/report.cpp",
                   "// asyncdr-lint: disable-file(DR013) scratch prototype\n"
                   + UNORDERED_LOOP)
        self.assertEqual(self.check("DR013"), "")


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


CHUNK_DECLS = """\
#pragma once
namespace asyncdr::proto {
struct Chunk {
  void apply_to(BitVec& out, IntervalSet& known) const;
  Checks check(const BitVec& src, BitVec const& known_mask) const;
};
}  // namespace asyncdr::proto
"""


class WalOrdering(TreeCase):
    def test_dr014_mutation_without_preceding_append(self):
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "out_.set(i, true);")
        out = self.check("DR014")
        self.assertIn("peer.cpp:6: DR014", out)
        self.assertIn("out_", out)

    def test_dr014_append_before_mutation_ok(self):
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "if (!journal_runs(runs, vals)) return;\n"
                   "  out_.set(i, true);")
        self.assertEqual(self.check("DR014"), "")

    def test_dr014_non_recovered_member_ok(self):
        # scratch_ is never touched by on_restart: not WAL-protected.
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "scratch_.set(i, true);")
        self.assertEqual(self.check("DR014"), "")

    def test_dr014_class_without_on_restart_ok(self):
        self.write("src/proto/peer.cpp",
                   "namespace asyncdr::proto {\n"
                   "void Other::apply(int i) { out_.set(i, true); }\n}\n")
        self.assertEqual(self.check("DR014"), "")

    def test_dr014_suppressed_with_reason(self):
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "// asyncdr-lint: allow(DR014) volatile stage cursor\n"
                   "  out_.set(i, true);")
        self.assertEqual(self.check("DR014"), "")

    def test_dr014_member_passed_to_mutating_call(self):
        # The callee takes `BitVec& out`: passing out_ writes it.
        self.write("src/proto/chunk.hpp", CHUNK_DECLS)
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "got.apply_to(out_, known_);")
        out = self.check("DR014")
        self.assertIn("peer.cpp:6: DR014", out)
        self.assertIn("'out_'", out)

    def test_dr014_member_passed_by_const_ref_ok(self):
        self.write("src/proto/chunk.hpp", CHUNK_DECLS)
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "(void)got.check(out_, known_);")
        self.assertEqual(self.check("DR014"), "")

    def test_dr014_download_applied_before_its_append(self):
        # An earlier checkpoint does not persist the queried bits: the
        # apply still runs ahead of the journal_runs that does.
        self.write("src/proto/chunk.hpp", CHUNK_DECLS)
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "if (!journal_checkpoint(\"phase\", 2)) return;\n"
                   "  BitVec values = query_runs(runs);\n"
                   "  got.apply_to(out_, known_);\n"
                   "  if (!journal_runs(runs, values)) return;")
        out = self.check("DR014")
        self.assertIn("peer.cpp:8: DR014", out)
        self.assertIn("before the journal_runs append", out)

    def test_dr014_download_applied_before_its_append_in_on_restart(self):
        self.write("src/proto/chunk.hpp", CHUNK_DECLS)
        self.write("src/proto/peer.cpp",
                   "namespace asyncdr::proto {\n"
                   "void Peer::on_restart(const dr::RecoveryState& state) {\n"
                   "  out_.set(0, true);\n"
                   "  BitVec values = query_runs(runs);\n"
                   "  got.apply_to(out_, known_);\n"
                   "  if (!journal_runs(runs, values)) return;\n"
                   "}\n"
                   "}  // namespace asyncdr::proto\n")
        self.assertIn("peer.cpp:5: DR014", self.check("DR014"))

    def test_dr014_download_appended_first_ok(self):
        self.write("src/proto/chunk.hpp", CHUNK_DECLS)
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "BitVec values = query_runs(runs);\n"
                   "  if (!journal_runs(runs, values)) return;\n"
                   "  got.apply_to(out_, known_);")
        self.assertEqual(self.check("DR014"), "")


class FrontendSelection(TreeCase):
    def test_libclang_unavailable_exits_77(self):
        if lint.load_libclang() is not None:
            self.skipTest("libclang available here; the 77 path is for "
                          "environments without it")
        self.write("src/common/a.cpp", "namespace asyncdr {}\n")
        status, out = run_lint("--root", self.root, "--frontend", "libclang")
        self.assertEqual(status, 77, out)

    def test_auto_falls_back_and_reports_frontend(self):
        self.write("src/common/a.cpp", "namespace asyncdr {}\n")
        status, out = run_lint("--root", self.root)
        self.assertEqual(status, 0, out)
        self.assertIn("asyncdr-lint[fallback]", out)


class StructuralOutputs(TreeCase):
    def test_sarif_carries_structural_results(self):
        self.write("src/dr/report.cpp", UNORDERED_LOOP)
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr {\n"
                   "static sim::Engine shared_engine;\n}\n")
        sarif_path = os.path.join(self.root, "out.sarif")
        status, _ = self.lint("--sarif", sarif_path)
        self.assertEqual(status, 1)
        with open(sarif_path, encoding="utf-8") as f:
            run = json.load(f)["runs"][0]
        located = {(r["ruleId"],
                    r["locations"][0]["physicalLocation"]["artifactLocation"]
                    ["uri"],
                    r["locations"][0]["physicalLocation"]["region"]
                    ["startLine"]) for r in run["results"]}
        self.assertIn(("DR012", "src/campaign/worker.cpp", 2), located)
        self.assertIn(("DR013", "src/dr/report.cpp", 4), located)


class Catalog(unittest.TestCase):
    def test_every_rule_has_a_detection_test(self):
        # Contract for contributors (DESIGN.md "Adding a rule"): each DRxxx
        # must come with at least one test_drxxx_* method.
        detection = set()
        cases = list(vars(lexical).values()) + list(globals().values())
        for case in cases:
            if isinstance(case, type) and issubclass(case, unittest.TestCase):
                detection |= {name.split("_")[1] for name in dir(case)
                              if name.startswith("test_dr")}
        for rule in lint.RULES:
            self.assertIn(rule.id.lower(), detection,
                          f"{rule.id} has no detection test")


if __name__ == "__main__":
    unittest.main()
