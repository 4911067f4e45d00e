#include "engines/blocking_engine.h"

#include <algorithm>
#include <cmath>

#include "chaos/fault_injector.h"
#include "exec/parallel.h"

namespace idebench::engines {

BlockingEngine::BlockingEngine(BlockingEngineConfig config)
    : EngineBase("blocking", config.confidence_level, config.seed),
      config_(config) {}

Result<Micros> BlockingEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  // CSV ingest of every table; dimensions are negligible next to the fact
  // table but are charged for completeness.
  double rows = 0.0;
  for (const auto& table : this->catalog().tables()) {
    if (table.get() == this->catalog().fact_table()) {
      rows += static_cast<double>(nominal_rows());
    } else {
      rows += static_cast<double>(table->num_rows());
    }
  }
  return static_cast<Micros>(rows * config_.load_ns_per_row / 1000.0);
}

Result<QueryHandle> BlockingEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  auto rq = std::make_unique<RunningQuery>();
  int joins_built = 0;
  IDB_ASSIGN_OR_RETURN(rq->query,
                       NewQueryState(spec, /*lazy=*/false, &joins_built));
  rq->reuse = AcquireReuse(spec);

  IDB_ASSIGN_OR_RETURN(std::vector<std::string> dims, RequiredJoins(spec));
  const double mult = ComplexityMultiplier(
      spec, static_cast<int>(dims.size()), config_.factors);
  // Virtual cost per *actual* row so that scanning all actual rows costs
  // scan_ns * nominal rows.
  double scan_ns = config_.scan_ns_per_row;
  if (this->catalog().is_normalized()) {
    scan_ns *= 1.0 - config_.normalized_scan_discount;
  }
  rq->row_cost_us = scan_ns * mult * scale() / 1000.0;
  rq->overhead_remaining =
      static_cast<Micros>(config_.query_overhead_us) +
      static_cast<Micros>(static_cast<double>(joins_built) *
                          static_cast<double>(nominal_rows()) *
                          config_.join_build_ns_per_row / 1000.0);
  // Pin the published watermark: the scan stops at it, so rows staged or
  // published after submission never leak into the answer.
  rq->pinned_rows = visible_rows();

  const QueryHandle handle = NextHandle();
  queries_.emplace(handle, std::move(rq));
  return handle;
}

Micros BlockingEngine::RunFor(QueryHandle handle, Micros budget) {
  auto it = queries_.find(handle);
  if (it == queries_.end() || budget <= 0) return 0;
  RunningQuery& rq = *it->second;
  if (rq.done || rq.faulted) return 0;
  // Chaos site: the physical pipeline hits a transient I/O-style failure
  // mid-run.  The handle wedges (no further progress) and the error
  // surfaces on the next PollResult, mirroring a real engine whose fetch
  // fails after submission.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kEngineRun)) {
    rq.faulted = true;
    return 0;
  }

  Micros consumed = 0;
  // Pay fixed costs first.
  const Micros overhead = std::min(budget, rq.overhead_remaining);
  rq.overhead_remaining -= overhead;
  consumed += overhead;
  if (rq.overhead_remaining > 0) return consumed;

  rq.credit_us += static_cast<double>(budget - consumed);
  const int64_t affordable =
      rq.row_cost_us > 0.0
          ? static_cast<int64_t>(rq.credit_us / rq.row_cost_us)
          : rq.pinned_rows;
  const int64_t remaining = rq.pinned_rows - rq.cursor;
  const int64_t todo = std::min(affordable, remaining);
  if (todo > 0) {
    // Scan positions covered by a cached snapshot are served from it; the
    // remainder runs through the physical pipeline as usual (fused
    // kernels + zone-map block skipping — this is the full-scan path the
    // zone maps exist for; the *virtual* cost model still charges every
    // row, only wall-clock work shrinks).  Nothing is fetchable before
    // the scan is done, so the first slice adopts an equal snapshot
    // whole however far past the slice it reaches, and later slices
    // scan physically only beyond it; the cursor stays virtual.
    exec::BinnedAggregator* agg = rq.query.aggregator.get();
    if (rq.cursor == 0) AdoptReuse(rq.reuse, agg, rq.pinned_rows);
    const int64_t end = rq.cursor + todo;
    const int64_t begin = std::max(rq.cursor, agg->rows_seen());
    if (begin < end) {
      const int64_t served_to = ServeReuse(rq.reuse, agg, begin, end);
      if (served_to < end) {
        exec::ProcessRangeParallel(agg, served_to, end,
                                   config_.execution_threads);
      }
    }
    rq.cursor += todo;
    const double spent = static_cast<double>(todo) * rq.row_cost_us;
    rq.credit_us -= spent;
    consumed += static_cast<Micros>(std::llround(spent));
  }
  if (rq.cursor >= rq.pinned_rows) {
    rq.done = true;
    rq.credit_us = 0.0;
  }
  // Leftover sub-row budget is banked in credit_us, so the whole slice
  // counts as consumed while the query is still running.
  if (!rq.done) return budget;
  return std::min(consumed, budget);
}

bool BlockingEngine::IsDone(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it != queries_.end() && it->second->done;
}

Result<query::QueryResult> BlockingEngine::PollResult(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) {
    return Status::KeyError("unknown query handle");
  }
  const RunningQuery& rq = *it->second;
  if (rq.faulted) {
    return Status::IOError("injected run fault (engine '" + name() + "')");
  }
  if (!rq.done) {
    // Blocking execution: nothing is fetchable until completion.
    query::QueryResult pending;
    pending.available = false;
    pending.progress = rq.pinned_rows > 0
                           ? static_cast<double>(rq.cursor) /
                                 static_cast<double>(rq.pinned_rows)
                           : 0.0;
    return pending;
  }
  query::QueryResult result = rq.query.aggregator->ExactResult();
  result.available = true;
  return result;
}

void BlockingEngine::Cancel(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it != queries_.end()) {
    StoreReuse(std::move(it->second->query));
    queries_.erase(it);
  }
}

}  // namespace idebench::engines
