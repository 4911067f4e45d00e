#ifndef BENCH_E2E_COMMON_H_
#define BENCH_E2E_COMMON_H_

/// \file common.h
/// What the three bench_e2e workloads share: run options, the result
/// record each returns, and small statistics helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "storage/catalog.h"
#include "workflow/workflow.h"
#include "trace.h"

namespace bench_e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured loop
  bool trace = false;     // per-layer run (spans + timed engine calls)
  std::string work_dir;   // where reports, the WAL and spans go
};

/// Everything one workload run produced.  `values` holds end-to-end and
/// per-layer metrics by the names BENCHMARK.json lists; a per-layer
/// metric a workload does not exercise is absent and reported as 0.
struct RunOutput {
  std::vector<std::string> gate_failures;  // empty = correct
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;
  idebench::JsonValue detail = idebench::JsonValue::Object();

  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

RunOutput RunExp1Mixed(const RunOptions& options);
RunOutput RunServeStream(const RunOptions& options);
RunOutput RunIngestReuse(const RunOptions& options);

/// Seed of every generated table.  The dataset is a fixed input, as the
/// paper's flights data is; `--seed` drives the workflows and the
/// engines' seeds.  (A per-seed dataset moved the cost of every query of
/// a run together, by up to 20%.)
constexpr uint64_t kDataSeed = 42;

/// Aborts the run (exit 1, no result line) on a library error: a
/// workload whose set-up fails has nothing to report.
void Check(const idebench::Status& status, const char* what);

template <typename T>
T Unwrap(idebench::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).MoveValueUnsafe();
}

/// Cuts `workflow` after the interaction that brings it to `max_queries`
/// queries, so a workload's size does not vary with the seed.  Returns
/// the queries kept.
int64_t TrimToQueries(const idebench::storage::Catalog& catalog,
                      int64_t max_queries,
                      idebench::workflow::Workflow* workflow);

double Median(std::vector<double> values);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// FNV-1a, folded into `*hash`.
void HashInto(const std::string& bytes, uint64_t* hash);
constexpr uint64_t kHashSeed = 1469598103934665603ULL;
std::string HexDigest(uint64_t hash);

/// Per-layer metrics of a traced run, per traced rep (a traced rep's
/// set-up included): "<layer.name>_s" (span time of every call of that
/// name), "self.<layer>_s" (span time minus enclosed child spans), span
/// counts, and the engine call counts of `counters`.  Writes the spans
/// out as CSV to `path`.
void ReportTrace(const Tracer& tracer, const EngineCounters& counters,
                 double reps, const std::string& path, RunOutput* out);

/// Folds one rep's engine counters into a run-wide total.
void Accumulate(const EngineCounters& rep, EngineCounters* total);

/// Host speed, measured from inside the run.  The reference host shares
/// its cores: the same rep of the same seed runs 1.3-1.7x slower for
/// seconds to minutes at a time, whatever the program does.  A fixed
/// calibration loop (hash lookups in a 256 KiB table over eight
/// independent lanes, with data-dependent branches; none of the
/// library's code) slows with it.  The loop is run between the steps of
/// the timed phase, and times are scaled by kReferenceNs / (the loop's
/// median time in this run): seconds on a host that runs the loop in
/// kReferenceNs.
class HostProbe {
 public:
  static constexpr double kReferenceNs = 100'000.0;

  /// Runs the calibration loop until `budget_ns` is spent (at least once).
  void Sample(int64_t budget_ns);
  int64_t samples() const { return static_cast<int64_t>(loop_ns_.size()); }
  double median_ns() const;
  /// Multiplies a time measured in this run into reference-host time.
  double scale() const { return kReferenceNs / median_ns(); }

 private:
  std::vector<double> loop_ns_;
};

/// The end-to-end metrics of an in-process workload.  Every rep replays
/// identical inputs in the same order, cut into the same short steps
/// (one workflow, one session round).  Each step and each query counts
/// with its median over the run's reps, scaled by `probe` if there is
/// one: `run_s` is the sum of the steps' median wall times.  After each
/// untraced step the probe samples the host for 2% of the step's time.
class RepSteps {
 public:
  /// `probe` may be null: times are then reported as measured.
  explicit RepSteps(HostProbe* probe) : probe_(probe) {}

  /// Runs `step` as the current rep's next step and records its wall and
  /// process CPU time.
  template <typename F>
  void Step(F&& step) {
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t begin = NowNs();
    step();
    const int64_t wall = NowNs() - begin;
    Keep(wall, ProcessCpuNs() - cpu0);
    // Traced reps do not sample: spans around the steps would count it.
    if (probe_ != nullptr && ActiveTracer() == nullptr) {
      probe_->Sample(wall / 50);
    }
  }
  /// Closes the current rep with the per-query latency stamps its tap
  /// recorded.  False when its steps or queries do not line up with the
  /// earlier reps'.
  bool EndRep(const EngineCounters& counters);

  int reps() const { return reps_; }
  /// Sum of the steps' median wall times, in measured seconds.
  double raw_run_s() const;
  /// run_s, server_cpu_ms_per_query (the steps' median CPU times over
  /// `queries`), the latency percentiles of the queries' median
  /// latencies and their sample count, all scaled by the probe.
  void Report(int64_t queries, RunOutput* out) const;

 private:
  void Keep(int64_t wall_ns, int64_t cpu_ns);

  HostProbe* probe_;
  int reps_ = 0;
  size_t step_ = 0;  // next step of the current rep
  bool aligned_ = true;
  // Per step (or query), one value per rep.
  std::vector<std::vector<double>> wall_ns_, cpu_ns_;
  std::vector<std::vector<double>> first_ns_, final_ns_;
};

/// Peak resident set so far (getrusage), in MiB.
double PeakRssMb();

}  // namespace bench_e2e

#endif  // BENCH_E2E_COMMON_H_
