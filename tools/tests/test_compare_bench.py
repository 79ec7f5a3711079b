"""Unit tests for tools/compare_bench.py.

The tool is exercised as a subprocess (it sys.exit()s from its loaders), so
these tests pin the exact exit-status contract CI relies on: 0 = no
regression, 1 = regression, 2 = usage/parse error.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(TOOLS_DIR, "compare_bench.py")


def entry(section="s", label="l", q=100.0, t=10.0, m=1000.0, failures=0):
    return {"section": section, "label": label, "q_mean": q, "t_mean": t,
            "m_mean": m, "failures": failures}


def bench_doc(entries, schema="asyncdr-bench-v1", bench="bench_test"):
    return {"schema": schema, "bench": bench, "entries": entries}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(prefix="compare-bench-test-")
        self.addCleanup(self.dir.cleanup)

    def path(self, name, doc):
        p = os.path.join(self.dir.name, name)
        with open(p, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return p

    def run_tool(self, *args):
        proc = subprocess.run(
            [sys.executable, TOOL, *args],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def test_identical_files_pass(self):
        base = self.path("base.json", bench_doc([entry()]))
        fresh = self.path("fresh.json", bench_doc([entry()]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("0 problem(s)", out)

    def test_any_deterministic_drift_fails(self):
        # Simulated statistics are pure functions of (config, seed): even a
        # tiny move is a real change, whatever --tolerance says.
        base = self.path("base.json", bench_doc([entry(q=100.0)]))
        fresh = self.path("fresh.json", bench_doc([entry(q=100.5)]))
        code, out, _ = self.run_tool(base, fresh, "--tolerance", "0.25")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("q_mean", out)
        self.assertIn("--changed q_mean", out)

    def test_large_drift_fails(self):
        base = self.path("base.json", bench_doc([entry(q=100.0)]))
        fresh = self.path("fresh.json", bench_doc([entry(q=130.0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("q_mean", out)

    def test_integer_and_float_renderings_compare_equal(self):
        # Bench writers render some integral values as 71400.0; equality is
        # numeric, not textual.
        base = self.path("base.json", bench_doc([entry(m=71400)]))
        fresh = self.path("fresh.json", bench_doc([entry(m=71400.0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)

    def test_zero_baseline_metric_is_guarded(self):
        # Any real movement off zero trips the gate.
        base = self.path("base.json", bench_doc([entry(q=0.0)]))
        fresh = self.path("fresh.json", bench_doc([entry(q=0.5)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_failures_increase_fails(self):
        base = self.path("base.json", bench_doc([entry(failures=0)]))
        fresh = self.path("fresh.json", bench_doc([entry(failures=2)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("failures rose 0 -> 2", out)

    def test_failures_decrease_passes(self):
        base = self.path("base.json", bench_doc([entry(failures=3)]))
        fresh = self.path("fresh.json", bench_doc([entry(failures=0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)

    def test_entry_missing_in_fresh_fails(self):
        base = self.path("base.json", bench_doc(
            [entry(label="kept"), entry(label="dropped")]))
        fresh = self.path("fresh.json", bench_doc([entry(label="kept")]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("missing in fresh run", out)

    def test_subset_turns_baseline_only_entries_into_notes(self):
        # CI runs the scale sweep capped (ASYNCDR_SCALE_MAX_K); the fresh
        # file legitimately covers a prefix of the committed full sweep.
        base = self.path("base.json", bench_doc(
            [entry(label="k=64"), entry(label="k=4096")]))
        fresh = self.path("fresh.json", bench_doc([entry(label="k=64")]))
        code, out, _ = self.run_tool(base, fresh, "--subset")
        self.assertEqual(code, 0, out)
        self.assertIn("note: baseline entry not in this capped run", out)

    def test_subset_still_diffs_the_entries_that_are_present(self):
        base = self.path("base.json", bench_doc(
            [entry(label="k=64", q=100.0), entry(label="k=4096")]))
        fresh = self.path("fresh.json", bench_doc(
            [entry(label="k=64", q=200.0)]))
        code, out, _ = self.run_tool(base, fresh, "--subset")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_new_entry_in_fresh_is_allowed_but_noted(self):
        base = self.path("base.json", bench_doc([entry(label="old")]))
        fresh = self.path("fresh.json", bench_doc(
            [entry(label="old"), entry(label="new-series")]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("note: new entry", out)

    def test_extra_critpath_fields_in_fresh_entries_are_tolerated(self):
        # Traced benches append critpath_* fields to existing entries; a
        # baseline that predates them keeps passing with zero diff noise.
        enriched = entry(q=100.0)
        enriched.update({"critpath_len_mean": 9.5, "critpath_link_mean": 7.0,
                         "critpath_local_mean": 2.5, "critpath_reconciled": 5})
        base = self.path("base.json", bench_doc([entry(q=100.0)]))
        fresh = self.path("fresh.json", bench_doc([enriched]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("0 problem(s)", out)
        self.assertNotIn("note: new entry", out)

    def test_metric_missing_on_either_side_is_skipped(self):
        lean = {"section": "s", "label": "l", "q_mean": 100.0}
        base = self.path("base.json", bench_doc([lean]))
        fresh = self.path("fresh.json", bench_doc([entry(q=100.0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("compared 1 metric(s)", out)

    def test_recovery_counters_are_exact(self):
        # bench_recovery entries carry recovery counters instead of q/t/m;
        # they are deterministic like everything else.
        def rec(saved):
            return {"section": "R2", "label": "crashes=4 warm recovery",
                    "restarts_mean": 4.0, "replays_mean": 4.0,
                    "cold_fallbacks_mean": 0.0, "bits_recovered_mean": 2048.0,
                    "queries_saved_mean": saved}
        base = self.path("base.json", bench_doc([rec(2048.0)]))
        fresh = self.path("fresh.json", bench_doc([rec(2000.0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("queries_saved_mean", out)
        # Identical counters pass, and all five are compared.
        same = self.path("same.json", bench_doc([rec(2048.0)]))
        code, out, _ = self.run_tool(base, same)
        self.assertEqual(code, 0, out)
        self.assertIn("compared 5 metric(s)", out)

    def test_recovery_metrics_absent_from_old_baselines_are_skipped(self):
        # A baseline written before the recovery counters existed must keep
        # passing against an enriched fresh entry (and vice versa).
        enriched = entry(q=100.0)
        enriched.update({"queries_saved_mean": 512.0, "replays_mean": 1.0})
        base = self.path("base.json", bench_doc([entry(q=100.0)]))
        fresh = self.path("fresh.json", bench_doc([enriched]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("0 problem(s)", out)

    def test_percentiles_are_exact(self):
        def e(p99):
            d = entry(q=100.0)
            d["q_p99"] = p99
            return d
        base = self.path("base.json", bench_doc([e(100.0)]))
        fresh = self.path("fresh.json", bench_doc([e(101.0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("q_p99", out)

    def test_substrate_counters_are_exact(self):
        # bench_scale's S1-substrate rows: engine events and active links.
        def sub(events, links):
            return {"section": "S1-substrate", "label": "k=64",
                    "events": events, "active_links": links}
        base = self.path("base.json", bench_doc([sub(18944, 3528)]))
        for fresh_entry, field in ((sub(18943, 3528), "events"),
                                   (sub(18944, 3529), "active_links")):
            fresh = self.path("fresh.json", bench_doc([fresh_entry]))
            code, out, _ = self.run_tool(base, fresh)
            self.assertEqual(code, 1, out)
            self.assertIn(field, out)

    def test_entries_sharing_a_key_are_merged(self):
        # bench_scale records events and active_links as two entries under
        # one (section, label); both fields must be gated, not just the
        # last entry's.
        def doc(events, links):
            return bench_doc([
                {"section": "S1-substrate", "label": "k=64", "events": events},
                {"section": "S1-substrate", "label": "k=64",
                 "active_links": links}])
        base = self.path("base.json", doc(18944, 3528))
        fresh = self.path("fresh.json", doc(18000, 3528))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("events 18944 -> 18000", out)
        same = self.path("same.json", doc(18944, 3528))
        code, out, _ = self.run_tool(base, same)
        self.assertEqual(code, 0, out)
        self.assertIn("compared 2 metric(s) across 1 entry", out)

    def test_mem_bytes_are_exact(self):
        # mem_* byte fields are modeled (deterministic): one byte is a real
        # footprint change.
        def e(bytes_):
            d = entry(q=100.0)
            d["mem_sim_engine_heap_peak_bytes"] = bytes_
            return d
        base = self.path("base.json", bench_doc([e(1000.0)]))
        fresh = self.path("fresh.json", bench_doc([e(1001.0)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("mem_sim_engine_heap_peak_bytes", out)

    def test_declared_changes_are_listed_not_gated(self):
        def sub(events, links):
            return {"section": "S1-substrate", "label": "k=4096",
                    "events": events, "active_links": links}
        base = self.path("base.json", bench_doc([sub(8192, 100)]))
        fresh = self.path("fresh.json", bench_doc([sub(4608, 100)]))
        code, out, _ = self.run_tool(base, fresh, "--changed", "events")
        self.assertEqual(code, 0, out)
        self.assertIn("CHANGED ('S1-substrate', 'k=4096'): events 8192 -> 4608",
                      out)
        self.assertIn("1 declared change(s), 0 problem(s)", out)
        # A declaration covers only the field it names.
        fresh_both = self.path("fresh_both.json", bench_doc([sub(4608, 99)]))
        code, out, _ = self.run_tool(base, fresh_both, "--changed", "events")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION ('S1-substrate', 'k=4096'): active_links",
                      out)

    def test_declared_field_that_did_not_move_is_noted(self):
        base = self.path("base.json", bench_doc([entry()]))
        fresh = self.path("fresh.json", bench_doc([entry()]))
        code, out, _ = self.run_tool(base, fresh, "--changed", "events",
                                     "--changed", "q_mean")
        self.assertEqual(code, 0, out)
        self.assertIn("note: --changed events declared, but it did not move",
                      out)
        self.assertIn("note: --changed q_mean declared, but it did not move",
                      out)

    def test_measured_wall_and_rss_are_shown_but_never_gate(self):
        # Machine-measured: a baseline from another machine or build type
        # cannot gate them.
        base = self.path("base.json", bench_doc([
            {"section": "S1-wall", "label": "k=64", "wall_ms": 40.0},
            {"section": "S1-rss", "label": "k=64", "rss_mb": 1.0}]))
        fresh = self.path("fresh.json", bench_doc([
            {"section": "S1-wall", "label": "k=64", "wall_ms": 90.0},
            {"section": "S1-rss", "label": "k=64", "rss_mb": 0.5}]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("measured: ('S1-wall', 'k=64'): wall_ms 40 -> 90 "
                      "(+125.0%, not gated)", out)
        self.assertIn("rss_mb 1 -> 0.5 (-50.0%, not gated)", out)

    def test_mem_unattributed_frac_is_an_absolute_bound(self):
        # The fraction sits near 0 on healthy runs, where a relative gate
        # trips on noise: 0.01 -> 0.05 is a 400% relative change but only
        # 0.04 absolute, which passes; a drift past the bound fails.
        def e(frac):
            d = entry(q=100.0)
            d["mem_unattributed_frac"] = frac
            return d
        base = self.path("base.json", bench_doc([e(0.01)]))
        fresh = self.path("fresh.json", bench_doc([e(0.05)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        fresh_bad = self.path("fresh_bad.json", bench_doc([e(0.40)]))
        code, out, _ = self.run_tool(base, fresh_bad)
        self.assertEqual(code, 1)
        self.assertIn("absolute drift", out)
        code, out, _ = self.run_tool(base, fresh_bad, "--tolerance", "0.5")
        self.assertEqual(code, 0, out)

    def test_fingerprint_is_gated_exactly_unless_declared(self):
        # The one string field compared: it moves with any statistic of any
        # run, including those the entry's numbers do not summarize.
        def e(fingerprint):
            d = entry(q=100.0)
            d["fingerprint"] = fingerprint
            return d
        base = self.path("base.json", bench_doc([e("e6e6346d30c6393e")]))
        same = self.path("same.json", bench_doc([e("e6e6346d30c6393e")]))
        code, out, _ = self.run_tool(base, same)
        self.assertEqual(code, 0, out)
        # q/t/m means, failures and the fingerprint.
        self.assertIn("compared 5 metric(s)", out)
        moved = self.path("moved.json", bench_doc([e("0a1ed111cbd1239c")]))
        code, out, _ = self.run_tool(base, moved)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION ('s', 'l'): fingerprint e6e6346d30c6393e -> "
                      "0a1ed111cbd1239c", out)
        self.assertIn("--changed fingerprint", out)
        code, out, _ = self.run_tool(base, moved, "--changed", "fingerprint")
        self.assertEqual(code, 0, out)
        self.assertIn("CHANGED ('s', 'l'): fingerprint", out)
        # A baseline written before the field existed keeps working.
        old = self.path("old.json", bench_doc([entry(q=100.0)]))
        code, out, _ = self.run_tool(old, moved)
        self.assertEqual(code, 0, out)

    def test_non_numeric_mem_adjacent_fields_are_skipped(self):
        # The rss_mechanism tag is a string and must not be diffed; a
        # mechanism change between machines is not a regression.
        def e(mechanism, frac):
            d = entry(q=100.0)
            d["rss_mechanism"] = mechanism
            d["mem_unattributed_frac"] = frac
            return d
        base = self.path("base.json", bench_doc([e("clear_refs", 0.01)]))
        fresh = self.path("fresh.json", bench_doc([e("baseline_delta", 0.02)]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        # q/t/m means, failures and the fraction; the string tag adds nothing.
        self.assertIn("compared 5 metric(s)", out)

    def test_mem_fields_absent_from_old_baselines_are_skipped(self):
        enriched = entry(q=100.0)
        enriched.update({"mem_accounted_bytes": 123456.0,
                         "mem_unattributed_frac": 0.02,
                         "rss_mechanism": "clear_refs"})
        base = self.path("base.json", bench_doc([entry(q=100.0)]))
        fresh = self.path("fresh.json", bench_doc([enriched]))
        code, out, _ = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("0 problem(s)", out)

    def test_declaring_a_measured_field_is_usage_error(self):
        base = self.path("base.json", bench_doc([entry()]))
        fresh = self.path("fresh.json", bench_doc([entry()]))
        for field in ("wall_ms", "rss_mb", "mem_unattributed_frac"):
            code, _, err = self.run_tool(base, fresh, "--changed", field)
            self.assertEqual(code, 2, field)
            self.assertIn("measured fields are not gated exactly", err)

    def test_malformed_json_is_usage_error(self):
        base = self.path("base.json", "{not json")
        fresh = self.path("fresh.json", bench_doc([entry()]))
        code, _, err = self.run_tool(base, fresh)
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)

    def test_wrong_schema_is_usage_error(self):
        base = self.path("base.json", bench_doc([entry()], schema="v999"))
        fresh = self.path("fresh.json", bench_doc([entry()]))
        code, _, err = self.run_tool(base, fresh)
        self.assertEqual(code, 2)
        self.assertIn("asyncdr-bench-v1", err)

    def test_missing_baseline_file_is_usage_error(self):
        fresh = self.path("fresh.json", bench_doc([entry()]))
        code, _, err = self.run_tool(
            os.path.join(self.dir.name, "nope.json"), fresh)
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)


if __name__ == "__main__":
    unittest.main()
