// Campaign telemetry (obs::TelemetryCollector wired through
// CampaignConfig::telemetry): attaching a collector must be provably
// outcome-neutral across every fault model, lane tier and thread count; the
// merged metrics must be bit-identical for any thread count; and the
// exported trace/metrics JSON must be well-formed and consistent with the
// engine's own work metrics.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "fault/fault_list.h"
#include "fault/journal.h"
#include "fault/mbu.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "json_mini.h"
#include "obs/telemetry.h"
#include "stim/generate.h"

namespace femu {
namespace {

Circuit medium_random_circuit(std::uint64_t seed = 7) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 220;
  return circuits::build_random(spec, seed);
}

CampaignConfig cone_config(LaneWidth lanes, unsigned threads,
                           obs::TelemetryCollector* telemetry = nullptr) {
  CampaignConfig config{.lanes = lanes,
                        .num_threads = threads,
                        .cone_restricted = true,
                        .schedule = CampaignSchedule::kConeAffine};
  config.telemetry = telemetry;
  return config;
}

void expect_same_outcomes(std::span<const FaultOutcome> a,
                          std::span<const FaultOutcome> b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << label << " @" << i;
  }
}

/// Work metrics that must not move when a collector is attached (or when
/// the thread count changes): the deterministic part of the telemetry.
void expect_same_work_metrics(const ParallelFaultSimulator& a,
                              const ParallelFaultSimulator& b,
                              const char* label) {
  EXPECT_EQ(a.last_run_eval_cycles(), b.last_run_eval_cycles()) << label;
  EXPECT_EQ(a.last_run_eval_instrs(), b.last_run_eval_instrs()) << label;
  EXPECT_EQ(a.last_run_eval_slot_bytes(), b.last_run_eval_slot_bytes())
      << label;
  EXPECT_EQ(a.last_run_narrowings(), b.last_run_narrowings()) << label;
  EXPECT_DOUBLE_EQ(a.last_run_lane_occupancy(), b.last_run_lane_occupancy())
      << label;
  EXPECT_EQ(a.last_run_group_widths().g64, b.last_run_group_widths().g64)
      << label;
  EXPECT_EQ(a.last_run_group_widths().g256, b.last_run_group_widths().g256)
      << label;
  EXPECT_EQ(a.last_run_group_widths().g512, b.last_run_group_widths().g512)
      << label;
}

// ---- outcome neutrality ----------------------------------------------------

TEST(TelemetryCampaignTest, AttachingTelemetryIsOutcomeNeutralEverywhere) {
  // All 4 fault models x {64, 512} lanes x {1, 4} threads: classifications
  // AND deterministic work metrics must be bit-identical with and without a
  // collector attached.
  const Circuit c = medium_random_circuit(13);
  const Testbench tb = random_testbench(c.num_inputs(), 36, 17);
  const auto seu = sample_fault_list(c.num_dffs(), tb.num_cycles(), 333, 23);
  const auto mbu = adjacent_pair_fault_list(c.num_dffs(), tb.num_cycles());
  const SetSites sites(c);
  const auto set = sample_set_fault_list(sites, tb.num_cycles(), 300, 29);
  const auto stuck = complete_stuckat_fault_list(sites);

  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k512}) {
    for (const unsigned threads : {1u, 4u}) {
      obs::TelemetryCollector collector;
      ParallelFaultSimulator off(c, tb, cone_config(lanes, threads));
      ParallelFaultSimulator on(c, tb,
                                cone_config(lanes, threads, &collector));

      expect_same_outcomes(off.run(seu).outcomes(), on.run(seu).outcomes(),
                           "seu");
      expect_same_work_metrics(off, on, "seu");
      expect_same_outcomes(off.run_mbu(mbu).outcomes,
                           on.run_mbu(mbu).outcomes, "mbu");
      expect_same_work_metrics(off, on, "mbu");
      expect_same_outcomes(off.run_set(set).outcomes,
                           on.run_set(set).outcomes, "set");
      expect_same_work_metrics(off, on, "set");
      expect_same_outcomes(off.run_stuckat(stuck).outcomes,
                           on.run_stuckat(stuck).outcomes, "stuckat");
      expect_same_work_metrics(off, on, "stuckat");

      // The collector saw every campaign: faults_retired must equal the
      // total lanes graded across the four runs.
      const obs::MetricSnapshot snap = collector.snapshot();
      const auto counter = [&](const char* name) -> std::uint64_t {
        const auto names = collector.registry().counter_names();
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (names[i] == name) return snap.counters[i];
        }
        ADD_FAILURE() << "unknown counter " << name;
        return 0;
      };
      EXPECT_EQ(counter("faults_retired"),
                seu.size() + mbu.size() + set.size() + stuck.size());
    }
  }
}

// ---- merged-metric determinism ---------------------------------------------

TEST(TelemetryCampaignTest, MergedMetricsBitIdenticalOneVsFourThreads) {
  const Circuit c = medium_random_circuit(5);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 11);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 500, 3);

  obs::TelemetryCollector one;
  obs::TelemetryCollector four;
  ParallelFaultSimulator sim1(c, tb, cone_config(LaneWidth::k64, 1, &one));
  ParallelFaultSimulator sim4(c, tb, cone_config(LaneWidth::k64, 4, &four));
  expect_same_outcomes(sim1.run(faults).outcomes(),
                       sim4.run(faults).outcomes(), "1t-vs-4t");

  const obs::MetricSnapshot a = one.snapshot();
  const obs::MetricSnapshot b = four.snapshot();
  const auto counter_names = one.registry().counter_names();
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]) << counter_names[i];
  }
  const auto gauge_names = one.registry().gauge_names();
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i], b.gauges[i]) << gauge_names[i];
  }
  // Histograms of deterministic observations (width, occupancy, narrowing
  // depth) merge bit-identically; wall-clock histograms (*_ns) only promise
  // a deterministic sample count.
  const auto hist_names = one.registry().histogram_names();
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    const obs::HistogramData& ha = a.histograms[i];
    const obs::HistogramData& hb = b.histograms[i];
    EXPECT_EQ(ha.count, hb.count) << hist_names[i];
    if (hist_names[i].ends_with("_ns")) continue;
    EXPECT_EQ(ha.counts, hb.counts) << hist_names[i];
    EXPECT_EQ(ha.sum, hb.sum) << hist_names[i];
    EXPECT_EQ(ha.min, hb.min) << hist_names[i];
    EXPECT_EQ(ha.max, hb.max) << hist_names[i];
  }
}

TEST(TelemetryCampaignTest, B14WorkMetricsIdenticalOneVsFourThreads) {
  // The group plan is computed before sharding, so classifications and the
  // engine's own work metrics must be identical for any worker count — run
  // each thread count twice to catch nondeterminism, on a b14-scale sampled
  // campaign at 512 lanes.
  const Circuit c = circuits::build_by_name("b14");
  const Testbench tb = random_testbench(c.num_inputs(), 48, 2005);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 1500, 2005);

  ParallelFaultSimulator ref(c, tb, cone_config(LaneWidth::k512, 1));
  const CampaignResult ref_result = ref.run(faults);
  for (const unsigned threads : {1u, 4u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      ParallelFaultSimulator sim(c, tb, cone_config(LaneWidth::k512, threads));
      expect_same_outcomes(ref_result.outcomes(), sim.run(faults).outcomes(),
                           "b14-512");
      expect_same_work_metrics(ref, sim, threads == 1 ? "1t" : "4t");
    }
  }
}

// ---- group plan --------------------------------------------------------------

TEST(TelemetryCampaignTest, FixedWidthPlanCountsGroupsAtTheConfiguredTier) {
  // Groups are consecutive lane-width spans: ceil(n / width) of them, all
  // counted at the configured tier, and only the last may be partial.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 32, 5);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  const std::size_t n = faults.size();

  ParallelFaultSimulator sim64(c, tb, cone_config(LaneWidth::k64, 1));
  (void)sim64.run(faults);
  const std::size_t groups64 = (n + 63) / 64;
  EXPECT_EQ(sim64.last_run_group_widths().g64, groups64);
  EXPECT_EQ(sim64.last_run_group_widths().total(), groups64);
  EXPECT_DOUBLE_EQ(sim64.last_run_lane_occupancy(),
                   static_cast<double>(n) / static_cast<double>(groups64 * 64));
  if (n % 64 == 0) {
    EXPECT_DOUBLE_EQ(sim64.last_run_lane_occupancy(), 1.0);
  }

  ParallelFaultSimulator sim512(c, tb, cone_config(LaneWidth::k512, 1));
  (void)sim512.run(faults);
  const std::size_t groups512 = (n + 511) / 512;
  EXPECT_EQ(sim512.last_run_group_widths().g512, groups512);
  EXPECT_EQ(sim512.last_run_group_widths().total(), groups512);
}

// ---- exported JSON ----------------------------------------------------------

TEST(TelemetryCampaignTest, TraceJsonWellFormedWithPerWorkerTracks) {
  const Circuit c = medium_random_circuit(3);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 7);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());

  obs::TelemetryCollector collector;
  ParallelFaultSimulator sim(c, tb, cone_config(LaneWidth::k64, 4,
                                                &collector));
  (void)sim.run(faults);

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const testjson::Value doc = testjson::parse(out.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());

  std::set<double> slice_tids;
  std::set<std::string> campaign_names;
  std::size_t groups = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").str();
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    if (ph != "X") continue;
    slice_tids.insert(e.at("tid").num());
    if (e.at("tid").num() == obs::kCampaignTrack) {
      campaign_names.insert(e.at("name").str());
    }
    if (e.at("name").str() == "group") {
      ++groups;
      const testjson::Value& args = e.at("args");
      EXPECT_EQ(args.at("width").num(), 64.0);
      EXPECT_GE(args.at("live").num(), 1.0);
      EXPECT_LE(args.at("live").num(), 64.0);
    }
  }
  // The construction + run phases all land on the campaign track.
  for (const char* phase :
       {"compile", "golden_trace", "cone_build", "plan", "grade"}) {
    EXPECT_TRUE(campaign_names.contains(phase)) << phase;
  }
  // Every retired group became exactly one slice, on some worker track —
  // WHICH workers retired groups is scheduling-dependent (work stealing),
  // so assert the range, not a specific id.
  EXPECT_EQ(groups, sim.last_run_group_widths().total());
  EXPECT_TRUE(slice_tids.contains(obs::kCampaignTrack));
  bool worker_slices = false;
  for (const double tid : slice_tids) {
    worker_slices = worker_slices ||
                    (tid >= obs::kWorkerBase && tid < obs::kJournalTrack);
  }
  EXPECT_TRUE(worker_slices);

  // Metrics JSON parses and agrees with the engine's own counters.
  std::ostringstream metrics;
  collector.write_metrics_json(metrics);
  const testjson::Value m = testjson::parse(metrics.str());
  EXPECT_EQ(m.at("counters").at("faults_retired").num(),
            static_cast<double>(faults.size()));
  EXPECT_EQ(m.at("counters").at("groups_retired").num(),
            static_cast<double>(sim.last_run_group_widths().total()));
  EXPECT_EQ(m.at("counters").at("eval_instrs").num(),
            static_cast<double>(sim.last_run_eval_instrs()));
  EXPECT_EQ(m.at("gauges").at("peak_group_occupancy_pct").num(), 100.0);
}

// ---- journal flush telemetry ------------------------------------------------

TEST(TelemetryCampaignTest, JournaledCampaignRecordsFlushLatency) {
  const Circuit c = medium_random_circuit(9);
  const Testbench tb = random_testbench(c.num_inputs(), 24, 5);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  const std::string path =
      ::testing::TempDir() + "femu_telemetry_flush.jrnl";
  std::remove(path.c_str());

  obs::TelemetryCollector collector;
  CampaignConfig config = cone_config(LaneWidth::k64, 2, &collector);
  ParallelFaultSimulator sim(c, tb, config);
  const JournaledCampaignReport rep =
      run_journaled_seu_campaign(sim, faults, path, /*resume=*/false);
  EXPECT_EQ(rep.graded, faults.size());

  // One flush span per retired group (plus the completion marker).
  const obs::MetricSnapshot snap = collector.snapshot();
  const auto hist_names = collector.registry().histogram_names();
  bool found = false;
  for (std::size_t i = 0; i < hist_names.size(); ++i) {
    if (hist_names[i] != "journal_flush_ns") continue;
    found = true;
    EXPECT_EQ(snap.histograms[i].count,
              sim.last_run_group_widths().total() + 1);
  }
  EXPECT_TRUE(found);

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const testjson::Value doc = testjson::parse(out.str());
  bool journal_track = false;
  for (const auto& e : doc.at("traceEvents").items()) {
    if (e.at("ph").str() == "X" &&
        e.at("tid").num() == obs::kJournalTrack) {
      EXPECT_EQ(e.at("name").str(), "journal_flush");
      journal_track = true;
    }
  }
  EXPECT_TRUE(journal_track);
  std::remove(path.c_str());
  std::remove((path + ".dict").c_str());
}

// ---- progress reporter -----------------------------------------------------

TEST(TelemetryCampaignTest, ProgressReporterCountsRetirements) {
  obs::TelemetryCollector collector;
  collector.enable_progress();
  ASSERT_NE(collector.progress(), nullptr);

  const Circuit c = medium_random_circuit(21);
  const Testbench tb = random_testbench(c.num_inputs(), 24, 9);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 200, 31);
  ParallelFaultSimulator sim(c, tb, cone_config(LaneWidth::k64, 2,
                                                &collector));
  (void)sim.run(faults);
  EXPECT_EQ(collector.progress()->retired(), faults.size());
}

}  // namespace
}  // namespace femu
