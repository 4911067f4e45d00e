#include "engines/online_engine.h"

#include <algorithm>
#include <cmath>

#include "chaos/fault_injector.h"
#include "exec/parallel.h"

namespace idebench::engines {

OnlineEngine::OnlineEngine(OnlineEngineConfig config)
    : EngineBase("online", config.confidence_level, config.seed),
      config_(config) {}

bool OnlineEngine::SupportsOnline(const query::QuerySpec& spec) {
  if (spec.aggregates.size() != 1) return false;
  const query::AggregateType type = spec.aggregates[0].type;
  return type == query::AggregateType::kCount ||
         type == query::AggregateType::kSum;
}

Result<Micros> OnlineEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  double rows = 0.0;
  for (const auto& table : this->catalog().tables()) {
    rows += table.get() == this->catalog().fact_table()
                ? static_cast<double>(nominal_rows())
                : static_cast<double>(table->num_rows());
  }
  return static_cast<Micros>(rows * config_.load_ns_per_row / 1000.0);
}

Result<QueryHandle> OnlineEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  auto rq = std::make_unique<RunningQuery>();
  rq->online = SupportsOnline(spec);
  if (!rq->online && !config_.enable_fallback) {
    return Status::NotImplemented(
        "query not supported online and fallback is disabled");
  }

  int joins_built = 0;
  IDB_ASSIGN_OR_RETURN(
      rq->query, NewQueryState(spec, /*lazy=*/rq->online, &joins_built));
  rq->reuse = AcquireReuse(spec);

  IDB_ASSIGN_OR_RETURN(std::vector<std::string> dims, RequiredJoins(spec));
  const double mult = ComplexityMultiplier(
      spec, static_cast<int>(dims.size()), config_.factors);
  if (rq->online) {
    // Wander-join-style sampling: each sampled tuple costs sample_us
    // (times complexity), independent of data scale — absolute sample
    // size is what determines estimate quality.  The walk offset is a
    // stable function of the query's core signature, so equal or refined
    // queries re-walk the same rows — the precondition for reuse.
    rq->row_cost_us = config_.sample_us_per_row * mult;
    rq->walk_offset = WalkOffsetFor(spec);
  } else {
    // Blocking fallback at row-store scan speed over the nominal data;
    // the normalized fact table's narrower rows scan faster.
    double scan_ns = config_.fallback_scan_ns_per_row;
    if (this->catalog().is_normalized()) {
      scan_ns *= 1.0 - config_.normalized_scan_discount;
    }
    rq->row_cost_us = scan_ns * mult * scale() / 1000.0;
    // Fallback joins are materialized and charged like a hash join build.
    rq->overhead_remaining += static_cast<Micros>(
        static_cast<double>(joins_built) * static_cast<double>(nominal_rows()) *
        (2.0 * config_.fallback_scan_ns_per_row) / 1000.0);
  }
  rq->overhead_remaining += static_cast<Micros>(config_.query_overhead_us);
  // Pin the published watermark: the walk/scan never reads past it, so
  // the answer is independent of rows staged or published afterwards.
  rq->pinned_rows = visible_rows();

  const QueryHandle handle = NextHandle();
  queries_.emplace(handle, std::move(rq));
  return handle;
}

void OnlineEngine::PublishSnapshot(RunningQuery* rq) {
  const exec::BinnedAggregator& agg = *rq->query.aggregator;
  query::QueryResult snapshot =
      agg.EstimateFromUniformSample(rq->pinned_rows, z_score());
  snapshot.available = agg.rows_seen() > 0;
  rq->snapshot = std::move(snapshot);
  rq->last_report_us = rq->work_done_us;
}

Micros OnlineEngine::RunFor(QueryHandle handle, Micros budget) {
  auto it = queries_.find(handle);
  if (it == queries_.end() || budget <= 0) return 0;
  RunningQuery& rq = *it->second;
  if (rq.done || rq.faulted) return 0;
  // Chaos site: transient mid-run failure; the handle wedges and the
  // error surfaces on the next PollResult.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kEngineRun)) {
    rq.faulted = true;
    return 0;
  }

  Micros consumed = 0;
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
    // Positions covered by a cached snapshot (walk and scan positions
    // alike — the mode is a function of the core signature) are served
    // from it; the remainder runs through the physical pipeline.
    exec::BinnedAggregator* agg = rq.query.aggregator.get();
    const int64_t end = rq.cursor + todo;
    const int64_t served_to = ServeReuse(rq.reuse, agg, rq.cursor, end);
    if (served_to < end) {
      if (rq.online) {
        // Batched shuffled-walk sampling through the vectorized pipeline.
        exec::ProcessWalkParallel(agg, ShuffledRows(), rq.walk_offset,
                                  served_to, end - served_to,
                                  config_.execution_threads);
      } else {
        exec::ProcessRangeParallel(agg, served_to, end,
                                   config_.execution_threads);
      }
    }
    rq.cursor += todo;
    const double spent = static_cast<double>(todo) * rq.row_cost_us;
    rq.credit_us -= spent;
    consumed += static_cast<Micros>(std::llround(spent));
    rq.work_done_us += static_cast<Micros>(std::llround(spent));
  }

  if (rq.cursor >= rq.pinned_rows) {
    rq.done = true;
    rq.credit_us = 0.0;
    PublishSnapshot(&rq);
  } else if (rq.online && rq.work_done_us - rq.last_report_us >=
                              config_.report_interval_us) {
    // Intermediate results surface only at report-interval boundaries.
    PublishSnapshot(&rq);
  }
  // Leftover sub-row budget is banked in credit_us, so the whole slice
  // counts as consumed while the query is still running.
  if (!rq.done) return budget;
  return std::min(consumed, budget);
}

bool OnlineEngine::IsDone(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it != queries_.end() && it->second->done;
}

Result<query::QueryResult> OnlineEngine::PollResult(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::KeyError("unknown query handle");
  RunningQuery& rq = *it->second;
  if (rq.faulted) {
    return Status::IOError("injected run fault (engine '" + name() + "')");
  }
  if (rq.done) {
    query::QueryResult result = rq.query.aggregator->ExactResult();
    result.available = true;
    return result;
  }
  if (!rq.online) {
    query::QueryResult pending;
    pending.available = false;
    return pending;
  }
  return rq.snapshot;  // may be unavailable before the first interval
}

void OnlineEngine::Cancel(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it != queries_.end()) {
    StoreReuse(std::move(it->second->query));
    queries_.erase(it);
  }
}

}  // namespace idebench::engines
