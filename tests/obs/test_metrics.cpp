// The metrics layer: the JSON writer's output and the standard run
// collector wired through a real scenario.
#include "obs/collect.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"
#include "protocols/runner.hpp"

namespace asyncdr {
namespace {

using obs::Json;

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json{}.dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::int64_t{42}).dump(), "42");
  EXPECT_EQ(Json(-17).dump(), "-17");
  EXPECT_EQ(Json(-1.5).dump(), "-1.5");
  EXPECT_EQ(Json("hi \"there\"\n").dump(), "\"hi \\\"there\\\"\\n\"");
}

// A double holding an integer prints as one; any other double prints in the
// shortest form that round-trips, exponent included where %g uses one.
TEST(Json, DoublesDumpShortestAndIntegralWithoutExponent) {
  EXPECT_EQ(Json(10.0).dump(), "10");
  EXPECT_EQ(Json(410.0).dump(), "410");
  EXPECT_EQ(Json(1e6).dump(), "1000000");
  EXPECT_EQ(Json(-2048.0).dump(), "-2048");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(3.25).dump(), "3.25");
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(1.5e-05).dump(), "1.5e-05");
  EXPECT_EQ(Json(123456.5).dump(), "123456.5");
  // From 2^53 on a double no longer holds every integer: %g again.
  EXPECT_EQ(Json(9007199254740991.0).dump(), "9007199254740991");
  EXPECT_EQ(Json(1e20).dump(), "1e+20");
  EXPECT_EQ(Json(-1e20).dump(), "-1e+20");
}

TEST(Json, NestedDump) {
  Json doc = Json::object();
  doc["name"] = "asyncdr";
  doc["pi"] = 3.25;
  doc["count"] = std::uint64_t{7};
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  Json inner = Json::object();
  inner["deep"] = true;
  arr.push_back(std::move(inner));
  doc["items"] = std::move(arr);

  EXPECT_EQ(doc.dump(),
            "{\"name\":\"asyncdr\",\"pi\":3.25,\"count\":7,"
            "\"items\":[1,\"two\",{\"deep\":true}]}");
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"name\": \"asyncdr\",\n"
            "  \"pi\": 3.25,\n"
            "  \"count\": 7,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    \"two\",\n"
            "    {\n"
            "      \"deep\": true\n"
            "    }\n"
            "  ]\n"
            "}");
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");

  // The value side: members keep insertion order and read back as built.
  EXPECT_EQ(doc.find("name")->as_string(), "asyncdr");
  EXPECT_DOUBLE_EQ(doc.find("pi")->as_number(), 3.25);
  EXPECT_EQ(doc.find("count")->as_int(), 7);
  EXPECT_EQ(doc.find("missing"), nullptr);
  const Json* items = doc.find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 3u);
  EXPECT_EQ(items->at(0).as_int(), 1);
  EXPECT_EQ(items->at(1).as_string(), "two");
  EXPECT_TRUE(items->at(2).find("deep")->as_bool());
}

proto::Scenario committee_scenario() {
  proto::Scenario s;
  s.cfg = dr::Config{.n = 256, .k = 8, .beta = 0.25, .message_bits = 1024,
                     .seed = 3};
  s.honest = proto::make_committee();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
  return s;
}

/// Counts deliveries independently of the collector.
struct DeliveryCounter final : sim::NetworkObserver {
  std::uint64_t deliveries = 0;
  void on_deliver(const sim::Message&) override { ++deliveries; }
};

std::uint64_t sum(const Json& values) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    total += static_cast<std::uint64_t>(values.at(i).as_int());
  }
  return total;
}

TEST(RunMetricsCollector, CountsAgreeWithTheRunReport) {
  proto::Scenario s = committee_scenario();
  obs::RunMetricsCollector collector;
  DeliveryCounter counter;
  Json snap;
  std::uint64_t served = 0;
  std::uint64_t nonfaulty_units = 0;
  s.instrument = [&](dr::World& world) {
    collector.attach(world);
    world.add_observer(&counter);
  };
  s.post_run = [&](dr::World& world, const dr::RunReport& report) {
    snap = collector.snapshot(world, report);
    served = world.source().total_bits_served();
    const Json& units = *snap.find("peers")->find("unit_messages");
    for (sim::PeerId p = 0; p < s.cfg.k; ++p) {
      if (!world.is_faulty(p)) {
        nonfaulty_units += static_cast<std::uint64_t>(units.at(p).as_int());
      }
    }
  };
  const dr::RunReport report = proto::run_scenario(s);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(snap.find("schema")->as_string(), "asyncdr-metrics-v2");

  // Per-peer query bits sum to the source's own served-bits counter.
  const Json& peers = *snap.find("peers");
  ASSERT_EQ(peers.find("query_bits")->size(), s.cfg.k);
  EXPECT_EQ(sum(*peers.find("query_bits")), served);
  EXPECT_GT(served, 0u);
  // Nonfaulty per-peer unit messages sum to M.
  EXPECT_EQ(nonfaulty_units, report.message_complexity);
  EXPECT_GT(nonfaulty_units, 0u);

  // Headline measures mirror the report.
  const Json& run = *snap.find("run");
  EXPECT_EQ(static_cast<std::uint64_t>(
                run.find("query_complexity_bits")->as_int()),
            report.query_complexity);
  EXPECT_TRUE(run.find("ok")->as_bool());

  // The live histograms saw traffic; latency counts every delivery.
  const Json& hist = *snap.find("histograms");
  EXPECT_EQ(static_cast<std::uint64_t>(
                hist.find("net_latency")->find("count")->as_int()),
            counter.deliveries);
  EXPECT_GT(counter.deliveries, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(
                hist.find("source_query_bits")->find("count")->as_int()),
            sum(*peers.find("query_calls")));
  EXPECT_GT(hist.find("sim_event_queue_depth")->find("count")->as_int(), 0);
}

TEST(RunMetricsCollector, SnapshotIsAPureFunctionOfConfigAndSeed) {
  const auto snapshot_text = [] {
    proto::Scenario s = committee_scenario();
    obs::RunMetricsCollector collector;
    std::string text;
    s.instrument = [&](dr::World& world) { collector.attach(world); };
    s.post_run = [&](dr::World& world, const dr::RunReport& report) {
      text = collector.snapshot(world, report).dump(2);
    };
    EXPECT_TRUE(proto::run_scenario(s).ok());
    return text;
  };
  const std::string first = snapshot_text();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, snapshot_text());
}

}  // namespace
}  // namespace asyncdr
