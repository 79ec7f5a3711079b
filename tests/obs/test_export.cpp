// The structured exporters: JSONL event streams (every line the dump of one
// event's JSON object, overflow surfaced in a meta line) and the Chrome
// trace-event (Perfetto) document, validated against the schema the viewers
// require — name/ph/pid on every event, ts/tid on slices and instants, dur
// on complete slices. tools/check_perfetto.py validates a written file in
// ctest (cli_trace_perfetto_valid).
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "protocols/runner.hpp"

namespace asyncdr::obs {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    ASYNCDR_EXPECTS(nl != std::string::npos);  // newline-terminated stream
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Runs a committee scenario with tracing enabled and hands the trace plus
/// report to `consume` before the world is destroyed.
template <typename Fn>
void with_traced_committee_run(std::uint64_t seed, Fn&& consume) {
  proto::Scenario s;
  s.cfg = dr::Config{.n = 256, .k = 8, .beta = 0.25, .message_bits = 1024,
                     .seed = seed};
  s.honest = proto::make_committee();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
  sim::Trace* trace = nullptr;
  s.instrument = [&](dr::World& world) { trace = &world.enable_trace(); };
  s.post_run = [&](dr::World&, const dr::RunReport& report) {
    ASSERT_NE(trace, nullptr);
    consume(*trace, report);
  };
  const dr::RunReport report = proto::run_scenario(s);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

TEST(Jsonl, EveryLineIsAValidObjectWithKindAndTime) {
  with_traced_committee_run(21, [](const sim::Trace& trace,
                                   const dr::RunReport&) {
    const std::string out = to_jsonl(trace);
    const auto lines = split_lines(out);
    ASSERT_EQ(lines.size(), trace.events().size());  // no overflow here
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Json doc = trace_event_json(trace.events()[i]);
      EXPECT_EQ(lines[i], doc.dump());
      ASSERT_TRUE(doc.is_object()) << lines[i];
      const Json* kind = doc.find("kind");
      ASSERT_NE(kind, nullptr) << lines[i];
      EXPECT_FALSE(kind->as_string().empty());
      ASSERT_NE(doc.find("t"), nullptr) << lines[i];
    }
  });
}

TEST(Jsonl, OverflowAppendsAMetaLineWithTheCutoff) {
  proto::Scenario s;
  s.cfg = dr::Config{.n = 256, .k = 8, .beta = 0.25, .message_bits = 1024,
                     .seed = 22};
  s.honest = proto::make_committee();
  std::string out;
  sim::Trace* trace = nullptr;
  // The Trace dies with the World inside run_scenario, so everything the
  // assertions need is copied out in post_run.
  std::vector<std::string> kept_lines;
  std::size_t dropped_events = 0;
  double first_dropped_at = 0.0;
  s.instrument = [&](dr::World& world) {
    trace = &world.enable_trace(/*capacity=*/8);
  };
  s.post_run = [&](dr::World&, const dr::RunReport&) {
    out = to_jsonl(*trace);
    for (const sim::TraceEvent& ev : trace->events()) {
      kept_lines.push_back(trace_event_json(ev).dump());
    }
    dropped_events = trace->dropped_events();
    first_dropped_at = trace->first_dropped_at();
  };
  ASSERT_TRUE(proto::run_scenario(s).ok());
  ASSERT_GT(dropped_events, 0u);

  auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), kept_lines.size() + 1);
  EXPECT_EQ(lines.back(), "{\"kind\":\"meta\",\"dropped_events\":" +
                              std::to_string(dropped_events) +
                              ",\"first_dropped_at\":" +
                              Json(first_dropped_at).dump() + "}");
  lines.pop_back();
  EXPECT_EQ(lines, kept_lines);
}

// The acceptance gate for the Perfetto exporter: check the document's
// trace-event schema field by field.
TEST(Perfetto, DocumentSatisfiesTheTraceEventSchema) {
  with_traced_committee_run(23, [](const sim::Trace& trace,
                                   const dr::RunReport& report) {
    const Json doc =
        to_perfetto(trace, report.phase_spans, /*k=*/8, PerfettoOptions{});
    EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);

    std::size_t slices = 0, instants = 0, metadata = 0;
    bool saw_phase_slice = false, saw_query = false, saw_terminate = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& ev = events->at(i);
      ASSERT_NE(ev.find("name"), nullptr) << ev.dump();
      ASSERT_NE(ev.find("ph"), nullptr) << ev.dump();
      ASSERT_NE(ev.find("pid"), nullptr) << ev.dump();
      const std::string ph = ev.find("ph")->as_string();
      if (ph == "M") {
        ++metadata;
        continue;
      }
      // Timeline events need a timestamp and a track.
      ASSERT_NE(ev.find("ts"), nullptr) << ev.dump();
      ASSERT_NE(ev.find("tid"), nullptr) << ev.dump();
      EXPECT_GE(ev.find("ts")->as_number(), 0.0);
      if (ph == "X") {
        ++slices;
        ASSERT_NE(ev.find("dur"), nullptr) << ev.dump();
        EXPECT_GE(ev.find("dur")->as_number(), 0.0);
        if (ev.find("name")->as_string() == "committee-query+vote") {
          saw_phase_slice = true;
        }
      } else if (ph == "i") {
        ++instants;
        ASSERT_NE(ev.find("s"), nullptr) << ev.dump();
        const std::string name = ev.find("name")->as_string();
        if (name.rfind("query", 0) == 0) saw_query = true;
        if (name == "terminate") saw_terminate = true;
      } else {
        FAIL() << "unexpected ph: " << ev.dump();
      }
    }
    // One process_name plus one thread_name per peer track.
    EXPECT_EQ(metadata, 1u + 8u);
    EXPECT_GT(slices, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_TRUE(saw_phase_slice);
    EXPECT_TRUE(saw_query);
    EXPECT_TRUE(saw_terminate);
  });
}

TEST(Perfetto, CrashesBecomeInstantsAndTimesScaleByTheOption) {
  proto::Scenario s;
  s.cfg = dr::Config{.n = 256, .k = 8, .beta = 0.25, .message_bits = 1024,
                     .seed = 25};
  s.honest = proto::make_committee();
  s.crashes.add_at_time(0, 0.5);
  sim::Trace* trace = nullptr;
  Json doc;
  s.instrument = [&](dr::World& world) { trace = &world.enable_trace(); };
  s.post_run = [&](dr::World&, const dr::RunReport& report) {
    PerfettoOptions opts;
    opts.us_per_time_unit = 10.0;
    doc = to_perfetto(*trace, report.phase_spans, 8, opts);
  };
  ASSERT_TRUE(proto::run_scenario(s).ok());

  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_crash = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    if (ev.find("name")->as_string() == "crash") {
      saw_crash = true;
      // t=0.5 at 10 us per unit.
      EXPECT_DOUBLE_EQ(ev.find("ts")->as_number(), 5.0);
      EXPECT_EQ(ev.find("tid")->as_int(), 0);
    }
  }
  EXPECT_TRUE(saw_crash);
}

TEST(Perfetto, CriticalPathFlowsArePairedAndSliceBound) {
  with_traced_committee_run(29, [](const sim::Trace& trace,
                                   const dr::RunReport& report) {
    ASSERT_TRUE(report.critical_path.has_value());
    PerfettoOptions opts;
    opts.critical_path = &*report.critical_path;
    const Json doc = to_perfetto(trace, report.phase_spans, 8, opts);
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    struct Slice {
      std::int64_t pid, tid;
      double ts, dur;
    };
    struct Flow {
      std::int64_t pid, tid, id;
      double ts;
    };
    std::vector<Slice> slices;
    std::vector<Flow> starts, finishes;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& ev = events->at(i);
      const std::string ph = ev.find("ph")->as_string();
      if (ph == "X") {
        slices.push_back({ev.find("pid")->as_int(), ev.find("tid")->as_int(),
                          ev.find("ts")->as_number(),
                          ev.find("dur")->as_number()});
      } else if (ph == "s" || ph == "f") {
        // Flow endpoints carry the shared binding triple plus an id.
        EXPECT_EQ(ev.find("name")->as_string(), "critical-path");
        ASSERT_NE(ev.find("cat"), nullptr) << ev.dump();
        EXPECT_EQ(ev.find("cat")->as_string(), "critpath");
        ASSERT_NE(ev.find("id"), nullptr) << ev.dump();
        ASSERT_NE(ev.find("ts"), nullptr) << ev.dump();
        ASSERT_NE(ev.find("tid"), nullptr) << ev.dump();
        const Flow flow{ev.find("pid")->as_int(), ev.find("tid")->as_int(),
                        ev.find("id")->as_int(), ev.find("ts")->as_number()};
        if (ph == "s") {
          EXPECT_EQ(ev.find("bp"), nullptr);
          starts.push_back(flow);
        } else {
          ASSERT_NE(ev.find("bp"), nullptr) << ev.dump();
          EXPECT_EQ(ev.find("bp")->as_string(), "e");
          finishes.push_back(flow);
        }
      }
    }

    // The committee critical path crosses peers, so there are link hops.
    ASSERT_GT(starts.size(), 0u);
    ASSERT_EQ(starts.size(), finishes.size());
    const auto enclosed = [&](const Flow& flow) {
      for (const Slice& slice : slices) {
        if (slice.pid == flow.pid && slice.tid == flow.tid &&
            slice.ts <= flow.ts && flow.ts <= slice.ts + slice.dur) {
          return true;
        }
      }
      return false;
    };
    for (std::size_t i = 0; i < starts.size(); ++i) {
      // Emitted as adjacent pairs: each start's id resolves to its finish,
      // time flows forward, and both endpoints bind to an enclosing slice.
      EXPECT_EQ(starts[i].id, finishes[i].id);
      EXPECT_LE(starts[i].ts, finishes[i].ts);
      EXPECT_TRUE(enclosed(starts[i])) << "unbound flow start " << i;
      EXPECT_TRUE(enclosed(finishes[i])) << "unbound flow finish " << i;
    }
  });
}

TEST(Perfetto, FlowsAreAbsentWithoutACriticalPath) {
  with_traced_committee_run(30, [](const sim::Trace& trace,
                                   const dr::RunReport& report) {
    const Json doc = to_perfetto(trace, report.phase_spans, 8);
    const Json* events = doc.find("traceEvents");
    for (std::size_t i = 0; i < events->size(); ++i) {
      const std::string ph = events->at(i).find("ph")->as_string();
      EXPECT_NE(ph, "s");
      EXPECT_NE(ph, "f");
    }
  });
}

TEST(Perfetto, MessageInstantsAreOptIn) {
  with_traced_committee_run(27, [](const sim::Trace& trace,
                                   const dr::RunReport& report) {
    const auto count_named = [](const Json& doc, const std::string& prefix) {
      const Json* events = doc.find("traceEvents");
      std::size_t count = 0;
      for (std::size_t i = 0; i < events->size(); ++i) {
        if (events->at(i).find("name")->as_string().rfind(prefix, 0) == 0) {
          ++count;
        }
      }
      return count;
    };
    PerfettoOptions with;
    with.include_messages = true;
    const Json quiet = to_perfetto(trace, report.phase_spans, 8);
    const Json loud = to_perfetto(trace, report.phase_spans, 8, with);
    EXPECT_EQ(count_named(quiet, "send "), 0u);
    EXPECT_GT(count_named(loud, "send "), 0u);
  });
}

}  // namespace
}  // namespace asyncdr::obs
