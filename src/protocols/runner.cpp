#include "protocols/runner.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/causal.hpp"

namespace asyncdr::proto {

BitVec random_input(std::size_t n, std::uint64_t seed) {
  return Rng(seed).split(0xda7aull).fair_bits(n);
}

std::vector<sim::PeerId> pick_faulty(const dr::Config& cfg, std::size_t count,
                                     std::uint64_t salt) {
  ASYNCDR_EXPECTS(count <= cfg.max_faulty());
  Rng rng = Rng(cfg.seed).split(0xfa017ull + salt);
  return rng.sample_without_replacement(cfg.k, count);
}

dr::RunReport run_scenario(const Scenario& scenario) {
  ASYNCDR_EXPECTS_MSG(scenario.honest != nullptr,
                      "scenario needs an honest-peer factory");
  const dr::Config& cfg = scenario.cfg;
  // value_or would evaluate random_input even when an input is given.
  BitVec input =
      scenario.input ? *scenario.input : random_input(cfg.n, cfg.seed);
  dr::World world(cfg, std::move(input));

  if (scenario.latency) {
    world.network().set_latency_policy(scenario.latency(cfg));
  } else {
    world.network().set_latency_policy(std::make_unique<adv::UniformLatency>(
        world.adversary_rng(0x1a7ull), 0.05, 1.0));
  }

  if (scenario.stressor) {
    world.network().set_delivery_stressor(scenario.stressor(cfg));
  }

  const std::unordered_set<sim::PeerId> byz(scenario.byz_ids.begin(),
                                            scenario.byz_ids.end());
  ASYNCDR_EXPECTS_MSG(byz.empty() || scenario.byzantine != nullptr,
                      "byz_ids set but no byzantine factory");
  for (sim::PeerId id = 0; id < cfg.k; ++id) {
    if (byz.contains(id)) {
      world.set_peer(id, scenario.byzantine(cfg, id));
      world.mark_faulty(id);
    } else {
      world.set_peer(id, scenario.honest(cfg, id));
    }
  }
  if (scenario.recovery.enabled()) {
    world.enable_recovery(
        [factory = scenario.recovery.factory](const dr::Config& c,
                                              sim::PeerId id) {
          return factory(c, id);
        },
        scenario.recovery.options);
    for (const RecoveryPlan::CrashPointKill& kill : scenario.recovery.kills) {
      world.mark_faulty(kill.peer);  // budget-checked up front
      world.kill_at_crash_point(kill.peer, kill.point, kill.nth);
      if (kill.restart_delay >= 0) {
        world.restart_on_crash(kill.peer, kill.restart_delay);
      }
    }
    dr::JournalStore& store = world.journal_store();
    for (const RecoveryPlan::Corruption& c : scenario.recovery.corruptions) {
      world.engine().schedule_at(c.at, [&store, c] {
        switch (c.mode) {
          case RecoveryPlan::Corruption::Mode::kTruncateTail:
            store.truncate_tail(c.peer, c.amount);
            break;
          case RecoveryPlan::Corruption::Mode::kFlipBit:
            store.flip_bit(c.peer, c.amount);
            break;
          case RecoveryPlan::Corruption::Mode::kClear:
            store.clear(c.peer);
            break;
        }
      });
    }
  } else {
    ASYNCDR_EXPECTS_MSG(!scenario.crashes.has_restarts(),
                        "restart instructions need a recovery factory");
  }
  scenario.crashes.apply(world);
  for (const auto& [id, t] : scenario.start_times) world.set_start_time(id, t);

  if (scenario.instrument) scenario.instrument(world);
  dr::RunReport report = world.run(scenario.max_events);
  // Traced runs get the causal analysis for free: the critical path lands
  // in the report (and stall diagnostics gain the critical prefix) before
  // post_run sees either.
  obs::embed_critical_path(world, report);
  if (scenario.post_run) scenario.post_run(world, report);
  return report;
}

PeerFactory make_naive() {
  return [](const dr::Config&, sim::PeerId) {
    return std::make_unique<NaivePeer>();
  };
}

PeerFactory make_crash_one() {
  return [](const dr::Config&, sim::PeerId) {
    return std::make_unique<CrashOnePeer>();
  };
}

PeerFactory make_crash_multi(CrashMultiPeer::Options opts) {
  return [opts](const dr::Config&, sim::PeerId) {
    return std::make_unique<CrashMultiPeer>(opts);
  };
}

PeerFactory make_committee(CommitteePeer::Options opts) {
  return [opts](const dr::Config&, sim::PeerId) {
    return std::make_unique<CommitteePeer>(opts);
  };
}

PeerFactory make_two_cycle(double concentration, double tau_margin) {
  return [concentration, tau_margin](const dr::Config& cfg, sim::PeerId) {
    return std::make_unique<MultiCyclePeer>(
        RandParams::derive(cfg, concentration, tau_margin),
        MultiCyclePeer::Schedule::kTwoCycle);
  };
}

PeerFactory make_multi_cycle(double concentration, double tau_margin) {
  return [concentration, tau_margin](const dr::Config& cfg, sim::PeerId) {
    return std::make_unique<MultiCyclePeer>(
        RandParams::derive(cfg, concentration, tau_margin),
        MultiCyclePeer::Schedule::kMultiCycle);
  };
}

PeerFactory make_two_cycle_with(RandParams params) {
  return [params](const dr::Config&, sim::PeerId) {
    return std::make_unique<MultiCyclePeer>(
        params, MultiCyclePeer::Schedule::kTwoCycle);
  };
}

PeerFactory make_silent_byz() {
  return [](const dr::Config&, sim::PeerId) {
    return std::make_unique<SilentByzPeer>();
  };
}

PeerFactory make_garbage_byz() {
  return [](const dr::Config&, sim::PeerId) {
    return std::make_unique<GarbageByzPeer>();
  };
}

PeerFactory make_committee_liar(CommitteeLiarPeer::Mode mode) {
  return [mode](const dr::Config&, sim::PeerId) {
    return std::make_unique<CommitteeLiarPeer>(mode);
  };
}

PeerFactory make_vote_stuffer(double concentration,
                              std::size_t target_segment) {
  return [concentration, target_segment](const dr::Config& cfg, sim::PeerId) {
    return std::make_unique<VoteStuffPeer>(
        RandParams::derive(cfg, concentration), target_segment);
  };
}

PeerFactory make_equivocator(double concentration) {
  return [concentration](const dr::Config& cfg, sim::PeerId) {
    return std::make_unique<EquivocatorPeer>(
        RandParams::derive(cfg, concentration));
  };
}

PeerFactory make_comb_stuffer(double concentration,
                              std::size_t target_segment) {
  return [concentration, target_segment](const dr::Config& cfg, sim::PeerId) {
    return std::make_unique<CombStuffPeer>(
        RandParams::derive(cfg, concentration), target_segment);
  };
}

PeerFactory make_quorum_rusher(double concentration) {
  return [concentration](const dr::Config& cfg, sim::PeerId) {
    return std::make_unique<QuorumRusherPeer>(
        RandParams::derive(cfg, concentration));
  };
}

LatencyFactory uniform_latency(sim::Time lo, sim::Time hi) {
  return [lo, hi](const dr::Config& cfg) {
    return std::make_unique<adv::UniformLatency>(
        Rng(cfg.seed).split(0x1a7ull), lo, hi);
  };
}

LatencyFactory fixed_latency(sim::Time delay) {
  return [delay](const dr::Config&) {
    return std::make_unique<sim::FixedLatency>(delay);
  };
}

LatencyFactory seniority_latency() {
  return [](const dr::Config& cfg) {
    return std::make_unique<adv::SeniorityLatency>(cfg.k);
  };
}

LatencyFactory sender_delay_latency(std::vector<sim::PeerId> slow_senders,
                                    sim::Time slow, sim::Time fast) {
  return [slow_senders = std::move(slow_senders), slow,
          fast](const dr::Config&) {
    return std::make_unique<adv::SenderDelayLatency>(
        std::unordered_set<sim::PeerId>(slow_senders.begin(),
                                        slow_senders.end()),
        slow, fast);
  };
}

}  // namespace asyncdr::proto
