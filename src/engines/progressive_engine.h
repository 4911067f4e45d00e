#ifndef IDEBENCH_ENGINES_PROGRESSIVE_ENGINE_H_
#define IDEBENCH_ENGINES_PROGRESSIVE_ENGINE_H_

/// \file progressive_engine.h
/// A progressive online-sampling engine in the mold of IDEA (paper §5):
///
///  * fully progressive computation — after submitting a query, a result
///    can be polled at *any* time and improves monotonically;
///  * all aggregate types are supported online;
///  * results of earlier queries are reused: a new query whose canonical
///    signature matches a cached one adopts the cached sample state
///    instead of starting from zero (cf. "Revisiting reuse for
///    approximate query processing");
///  * an experimental speculative mode (paper §5.4 / Exp. 3): when two
///    visualizations are linked, think time is spent pre-executing the
///    target's query for every possible single-bin selection in the
///    source, budgeted proportionally to observed bin popularity.  When
///    the user then selects a bin, the speculative partial result gives
///    the real query a head start.

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engines/engine_base.h"
#include "exec/aggregator.h"

namespace idebench::engines {

/// Cost/behavior knobs of the progressive engine.
struct ProgressiveEngineConfig {
  /// Cost per sampled tuple.  Calibrated against the materialized data
  /// scale so the quality-vs-TR gradient spans the observable range of
  /// the Exp. 1 TR sweep (bench/bench_exp1_summary.cc); what carries the
  /// paper's findings is the *ratio* to the online engine's per-tuple
  /// cost (progressive is ~3x faster).
  double sample_us_per_row = 8.0;
  Micros prepare_time_us = 180'000'000;  // fixed warm load (3 min, §5.2)
  double query_overhead_us = 10'000;  // dispatch
  /// Extra overhead on the first query after preparation ("slightly
  /// higher overhead for the first query after a restart", §5.2).
  double restart_overhead_us = 600'000;
  bool enable_reuse = true;
  bool enable_speculation = false;    // Exp. 3 extension; off by default
  /// Cap on enumerated single-bin selections per link.
  int max_speculations_per_link = 64;
  CostFactors factors;
  double confidence_level = 0.95;
  uint64_t seed = 3;
  /// Physical worker threads for the shuffled-walk pipeline (1 = exact
  /// single-threaded path, 0 = hardware concurrency; see exec/parallel.h).
  int execution_threads = 1;
  /// Cross-interaction reuse cache (exec/reuse_cache.h).  Orthogonal to
  /// `enable_reuse`: that models IDEA's *semantic* reuse (an identical
  /// query continues sampling and improves), which changes answers by
  /// design; this cache displaces physical recomputation only and never
  /// changes an answer.
  bool reuse_cache = false;
  /// Concurrent exploration sessions this engine is expected to serve
  /// (session/session.h); sizes the reuse cache's entry cap.
  int expected_sessions = 1;
};

/// Progressive AQP engine with reuse and optional speculation.
class ProgressiveEngine : public EngineBase {
 public:
  explicit ProgressiveEngine(ProgressiveEngineConfig config = {});

  Result<Micros> Prepare(
      std::shared_ptr<const storage::Catalog> catalog) override;
  Result<QueryHandle> Submit(const query::QuerySpec& spec) override;
  Micros RunFor(QueryHandle handle, Micros budget) override;
  bool IsDone(QueryHandle handle) const override;
  Result<query::QueryResult> PollResult(QueryHandle handle) override;
  void Cancel(QueryHandle handle) override;

  void LinkVizs(const std::string& from, const std::string& to) override;
  void DiscardViz(const std::string& viz) override;
  void OnThink(Micros duration) override;
  void WorkflowStart() override;

  const ProgressiveEngineConfig& config() const { return config_; }

  /// Telemetry: number of Submit calls answered from the reuse cache.
  int64_t reuse_hits() const { return reuse_hits_; }
  /// Telemetry: number of Submit calls that adopted speculative state.
  int64_t speculation_hits() const { return speculation_hits_; }

 private:
  /// Shared sample state for one canonical query (live, cached or
  /// speculative).
  struct SampleState {
    query::QuerySpec spec;
    std::unique_ptr<exec::BoundQuery> bound;
    std::unique_ptr<exec::BinnedAggregator> aggregator;
    exec::ReuseCache::Match reuse;  // cached walk prefix to serve from
    int64_t cursor = 0;       // progress along the shuffled walk
    int64_t walk_offset = 0;  // signature-stable start into the permutation
    /// Visible-row watermark the walk is pinned to: set at creation,
    /// refreshed to the current watermark each time a Submit adopts this
    /// state (the continuous-aggregate behavior — a re-submitted query
    /// keeps its sample and extends the walk over newly published
    /// epochs).  The walk never reads past it, so results stay
    /// bit-identical to a run against a table frozen at this watermark
    /// no matter what lands in the open epoch meanwhile.
    int64_t pinned_rows = 0;
    double row_cost_us = 0.0;
    double credit_us = 0.0;
  };

  struct RunningQuery {
    std::shared_ptr<SampleState> state;
    Micros overhead_remaining = 0;
    bool done = false;
    bool faulted = false;  // injected run fault; surfaced via Poll
  };

  Result<std::shared_ptr<SampleState>> MakeState(const query::QuerySpec& spec);

  /// Advances `state` by up to `budget`; returns consumed micros.
  Micros AdvanceState(SampleState* state, Micros budget);

  /// (Re)builds the speculative candidate list for one link.
  void RefreshSpeculations();

  ProgressiveEngineConfig config_;
  std::unordered_map<QueryHandle, std::unique_ptr<RunningQuery>> queries_;
  /// Reuse cache: canonical signature -> sample state.
  std::unordered_map<std::string, std::shared_ptr<SampleState>> cache_;
  /// Last submitted spec per viz name (for speculation).
  std::unordered_map<std::string, query::QuerySpec> last_spec_;
  /// Dashboard links (from, to).
  std::vector<std::pair<std::string, std::string>> links_;
  /// Speculative candidates: signature -> (state, popularity weight).
  struct Speculation {
    std::shared_ptr<SampleState> state;
    double weight = 1.0;
  };
  std::map<std::string, Speculation> speculations_;
  bool first_query_after_prepare_ = true;
  int64_t reuse_hits_ = 0;
  int64_t speculation_hits_ = 0;
};

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_PROGRESSIVE_ENGINE_H_
