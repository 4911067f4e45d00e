/// \file exp1_mixed.cc
/// Workload `exp1_mixed`: the paper's Exp. 1 in process through
/// `driver::BenchmarkDriver` — progressive engine, 48 mixed workflows of
/// 10 queries, 250k materialized rows of the 500M nominal set, think
/// time 1 s, 1 thread, one session, reuse off — swept over the five time
/// requirements with a fresh engine per TR and one shared
/// `GroundTruthOracle`, as `core::RunBenchmark` does.
///
/// Set-up (timed as `setup_s`, five times per run): dataset build,
/// workflow generation, creating and preparing the five engines.  Timed
/// phase (repeated until the run's seconds are spent): ground truth, the
/// TR-sweep replay, and writing the summary and detailed report, in
/// steps of one workflow (ground truth, then each TR's replay) and one
/// report step; `run_s` sums each step's median time over the reps,
/// scaled to the reference host speed (`HostProbe`).  A traced rep
/// repeats the whole set-up under the tracer before its sweep.  Gates:
/// the detailed-report CSV digest is identical in every rep and equal to
/// a replay at 4 threads; every rep runs the same steps and queries.

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/dataset.h"
#include "driver/benchmark_driver.h"
#include "driver/ground_truth.h"
#include "engines/registry.h"
#include "report/report.h"
#include "workflow/generator.h"

namespace bench_e2e {

namespace {

using idebench::driver::GroundTruthOracle;
using idebench::driver::QueryRecord;

constexpr int64_t kActualRows = 250'000;
constexpr int64_t kNominalRows = 500'000'000;
constexpr int kWorkflows = 48;
constexpr int kInteractions = 16;  // generated, then cut at:
constexpr int64_t kQueriesPerWorkflow = 10;
/// Engine threads of the timed sweep: the exact single-threaded path.
/// Parallel sections wait on every thread, so time the hypervisor steals
/// from any vCPU (up to 20% on the 4-vCPU reference host) stalls them:
/// in one set of ten runs, four of them at 2 threads ran 1.5-2x slower
/// in every rep while CPU per query rose 15%, which no per-run
/// statistic can hide.  The gate replays the sweep at 4 threads.
constexpr int kThreads = 1;
constexpr int kSetups = 5;
const std::vector<double> kTimeRequirements = {0.5, 1.0, 3.0, 5.0, 10.0};

struct Dataset {
  std::shared_ptr<idebench::storage::Catalog> catalog;
  std::vector<idebench::workflow::Workflow> workflows;
  int64_t queries = 0;  // per replay of the workflows
};

Dataset BuildDataset(uint64_t seed) {
  Dataset d;
  {
    ScopedSpan span("datagen", "build");
    idebench::core::DatasetConfig config = idebench::core::MediumDataset();
    config.nominal_rows = kNominalRows;
    config.actual_rows = kActualRows;
    config.seed = kDataSeed;
    d.catalog = Unwrap(idebench::core::BuildFlightsCatalog(config), "datagen");
  }
  {
    ScopedSpan span("workflow", "generate");
    // Every workflow is cut at the same query count, so the sweep's size
    // does not vary with the seed.
    idebench::workflow::GeneratorConfig config;
    config.min_interactions = kInteractions;
    config.max_interactions = kInteractions;
    idebench::workflow::WorkflowGenerator generator(d.catalog->fact_table(),
                                                    config, seed);
    for (int i = 0; i < kWorkflows; ++i) {
      d.workflows.push_back(Unwrap(
          generator.Generate(idebench::workflow::WorkflowType::kMixed,
                             "mixed_" + std::to_string(i)),
          "workflow generation"));
      d.queries +=
          TrimToQueries(*d.catalog, kQueriesPerWorkflow, &d.workflows.back());
    }
  }
  return d;
}

/// One fresh, prepared engine per time requirement.
std::vector<std::unique_ptr<EngineTap>> MakeEngines(const Dataset& d,
                                                    uint64_t seed, int threads,
                                                    EngineCounters* counters) {
  std::vector<std::unique_ptr<EngineTap>> engines;
  ScopedSpan span("engines", "prepare");
  for (size_t i = 0; i < kTimeRequirements.size(); ++i) {
    auto engine = std::make_unique<EngineTap>(
        Unwrap(idebench::engines::CreateEngine("progressive", seed, threads,
                                               /*reuse_cache=*/false,
                                               /*sessions=*/1),
               "engine create"),
        counters, static_cast<int64_t>(i));
    Check(engine->Prepare(d.catalog).status(), "engine prepare");
    engines.push_back(std::move(engine));
  }
  return engines;
}

struct SweepResult {
  std::vector<QueryRecord> records;
  int64_t truth_queries = 0;
  int64_t truth_hits = 0;
};

/// Ground truth, the TR sweep, and the summary and detailed report
/// written into `report_dir`, each workflow of the ground truth and of
/// every TR's replay, and the report, timed as one step of `steps`.
/// With one session, `RunWorkflows` is `RunWorkflow` on each workflow in
/// turn.
SweepResult Sweep(const Dataset& d,
                  const std::vector<std::unique_ptr<EngineTap>>& engines,
                  int threads, const std::string& report_dir,
                  RepSteps* steps) {
  SweepResult out;
  auto oracle = std::make_shared<GroundTruthOracle>(d.catalog, threads);
  for (size_t i = 0; i < kTimeRequirements.size(); ++i) {
    idebench::driver::Settings settings;
    settings.time_requirement =
        idebench::SecondsToMicros(kTimeRequirements[i]);
    settings.think_time = idebench::SecondsToMicros(1.0);
    settings.data_size_label = idebench::core::DataSizeLabel(kNominalRows);
    settings.threads = threads;
    idebench::driver::BenchmarkDriver driver(settings, engines[i].get(),
                                             d.catalog, oracle);
    if (i == 0) {
      ScopedSpan span("driver", "truth");
      for (const auto& workflow : d.workflows) {
        const std::vector<idebench::workflow::Workflow> one = {workflow};
        steps->Step([&] {
          Check(driver.WarmGroundTruth(one), "ground truth");
        });
      }
    }
    ScopedSpan span("driver", "replay");
    for (const auto& workflow : d.workflows) {
      steps->Step([&] {
        Check(driver.RunWorkflow(workflow, &out.records), "replay");
      });
    }
  }
  out.truth_queries = oracle->cache_size();
  out.truth_hits = oracle->cache_hits();

  steps->Step([&] {
    std::vector<idebench::report::SummaryRow> summary;
    {
      ScopedSpan span("report", "summarize");
      summary = idebench::report::SummarizeBy(
          out.records, [](const QueryRecord& r) {
            return r.driver_name + " tr=" +
                   std::to_string(r.time_requirement / 1000) + "ms";
          });
    }
    ScopedSpan span("report", "write");
    Check(idebench::report::WriteDetailedReport(out.records,
                                                report_dir + "/detailed.csv"),
          "detailed report");
    std::ofstream summary_out(report_dir + "/summary.txt");
    summary_out << idebench::report::RenderSummaryTable(summary);
  });
  return out;
}

std::string FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  uint64_t hash = kHashSeed;
  HashInto(buf.str(), &hash);
  return HexDigest(hash);
}

}  // namespace

RunOutput RunExp1Mixed(const RunOptions& options) {
  RunOutput out;
  std::vector<double> setup_s;
  HostProbe probe;
  RepSteps untraced(&probe), traced_steps(&probe);

  Dataset data;
  std::vector<std::unique_ptr<EngineTap>> engines;
  EngineCounters traced, setup_counters;
  for (int i = 0; i < kSetups; ++i) {
    engines.clear();
    data = Dataset();
    const int64_t begin = NowNs();
    data = BuildDataset(options.seed);
    engines = MakeEngines(data, options.seed, kThreads, &setup_counters);
    setup_s.push_back(static_cast<double>(NowNs() - begin) * 1e-9);
  }

  Tracer tracer(1 << 19);
  std::string digest;
  int64_t records_per_rep = 0;
  int reps = 0, traced_reps = 0;
  const int64_t loop_begin = NowNs();
  const auto spent = [&] {
    return static_cast<double>(NowNs() - loop_begin) * 1e-9;
  };
  // A traced run alternates untraced and traced reps so both come from
  // the same stretch of machine weather.
  while (reps < 2 || spent() < options.seconds) {
    const bool trace_rep = options.trace && reps % 2 == 1;
    EngineCounters rep_counters;
    if (trace_rep) {
      SetActiveTracer(&tracer);
      engines.clear();
      data = BuildDataset(options.seed);
    }
    if (reps > 0) {
      engines = MakeEngines(data, options.seed, kThreads, &rep_counters);
    }
    RepSteps& steps = trace_rep ? traced_steps : untraced;
    SweepResult sweep;
    {
      ScopedSpan root("bench", "run");
      sweep = Sweep(data, engines, kThreads, options.work_dir, &steps);
    }
    SetActiveTracer(nullptr);
    // The first rep's engines were created during set-up.
    if (reps == 0) Accumulate(setup_counters, &rep_counters);

    const std::string rep_digest = FileDigest(options.work_dir + "/detailed.csv");
    if (digest.empty()) digest = rep_digest;
    out.Gate(rep_digest == digest, "detailed-report digest repeats across reps");
    records_per_rep = static_cast<int64_t>(sweep.records.size());
    out.attempted += records_per_rep;
    out.values["driver.truth_queries"] = static_cast<double>(sweep.truth_queries);
    out.values["driver.truth_hits"] = static_cast<double>(sweep.truth_hits);

    out.Gate(steps.EndRep(rep_counters),
             "every rep runs the same steps and queries");
    if (trace_rep) {
      Accumulate(rep_counters, &traced);
      ++traced_reps;
    }
    ++reps;
  }

  out.values["peak_rss_mb"] = PeakRssMb();  // before the gate replays

  // Thread-count invariance, off the clock: the same sweep on the
  // morsel-parallel path at 4 threads writes the same report.
  {
    EngineCounters unused_counters;
    const std::string dir = options.work_dir + "/threads4";
    std::filesystem::create_directories(dir);
    auto parallel = MakeEngines(data, options.seed, 4, &unused_counters);
    RepSteps unused_steps(nullptr);
    Sweep(data, parallel, 4, dir, &unused_steps);
    const std::string parallel_digest = FileDigest(dir + "/detailed.csv");
    out.Gate(parallel_digest == digest,
             "detailed-report digest identical at threads 1 and 4");
    out.detail.Set("digest_threads_4", parallel_digest);
  }

  out.values["setup_s"] = Median(setup_s) * probe.scale();
  untraced.Report(records_per_rep, &out);
  out.values["datagen.rows"] = static_cast<double>(kActualRows);
  out.values["workflow.queries"] = static_cast<double>(data.queries);
  out.values["bench.queries"] = static_cast<double>(records_per_rep);
  if (options.trace) {
    ReportTrace(tracer, traced, traced_reps,
                options.work_dir + "/spans-exp1_mixed.csv", &out);
    auto& v = out.values;
    v["trace.traced_run_s"] = traced_steps.raw_run_s();
    v["trace.untraced_run_s"] = untraced.raw_run_s();
    v["trace.overhead"] = v["trace.traced_run_s"] / v["trace.untraced_run_s"];
  }
  out.detail.Set("digest", digest);
  out.detail.Set("reps", static_cast<int64_t>(reps));
  out.detail.Set("untraced_reps", static_cast<int64_t>(untraced.reps()));
  out.detail.Set("traced_reps", static_cast<int64_t>(traced_reps));
  out.detail.Set("records_per_rep", records_per_rep);
  out.detail.Set("setups", static_cast<int64_t>(kSetups));
  return out;
}

}  // namespace bench_e2e
