#include "engines/stratified_engine.h"

#include <algorithm>
#include <cmath>

#include "chaos/fault_injector.h"
#include "exec/parallel.h"

namespace idebench::engines {

StratifiedEngine::StratifiedEngine(StratifiedEngineConfig config)
    : EngineBase("stratified", config.confidence_level, config.seed),
      config_(config) {}

Result<Micros> StratifiedEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  // Reject unsupported layouts *before* attaching: a failed Prepare must
  // leave the engine unprepared (Submit keeps failing cleanly) instead of
  // half-attached with an empty sample.
  if (catalog != nullptr && catalog->fact_table() != nullptr &&
      catalog->is_normalized()) {
    return Status::NotImplemented(
        "the stratified engine only supports de-normalized data");
  }
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  const storage::Table& fact = *this->catalog().fact_table();
  strat_column_ =
      fact.ColumnByName(config_.stratify_by) != nullptr ? config_.stratify_by
                                                        : std::string();
  // Sample the published watermark only: rows staged in an open ingest
  // epoch stay invisible until published (then ExtendSampleFor-
  // PublishedEpochs covers them with per-epoch delta blocks).
  sampled_watermark_ = fact.visible_rows();
  IDB_ASSIGN_OR_RETURN(
      sample_, aqp::BuildStratifiedSample(fact, strat_column_,
                                          config_.sampling_rate,
                                          config_.min_rows_per_stratum, rng(),
                                          /*row_begin=*/0,
                                          /*row_end=*/sampled_watermark_));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  // Preparation = CSV ingest + offline sample construction + warm-up
  // query over the sample (paper §5.2: 27 min at 500 M).
  const double nominal = static_cast<double>(nominal_rows());
  const double load_us = nominal * config_.load_ns_per_row / 1000.0;
  const double build_us =
      nominal *
      (config_.sample_build_scan_ns_per_row +
       config_.sampling_rate * config_.sample_build_write_ns_per_sample) /
      1000.0;
  const double warmup_us = nominal * config_.sampling_rate *
                           config_.sample_scan_ns_per_row / 1000.0;
  return static_cast<Micros>(load_us + build_us + warmup_us);
}

namespace {
/// Stream id base for per-epoch stratified delta-sample shuffles, forked
/// from a fresh Rng(seed); disjoint from the walk-segment stream base in
/// engine_base.cc.
constexpr uint64_t kStratifiedEpochStreamBase = 0x1DEB1000ULL;
}  // namespace

void StratifiedEngine::ExtendSampleForPublishedEpochs() {
  const storage::Table& fact = *catalog().fact_table();
  if (!fact.ingest_enabled()) return;
  const std::vector<int64_t>& epochs = fact.epoch_boundaries();
  for (size_t e = 0; e < epochs.size(); ++e) {
    if (epochs[e] <= sampled_watermark_) continue;
    Rng child = Rng(seed()).Fork(kStratifiedEpochStreamBase + e);
    auto delta = aqp::BuildStratifiedSample(
        fact, strat_column_, config_.sampling_rate,
        config_.min_rows_per_stratum, &child, sampled_watermark_, epochs[e]);
    if (!delta.ok()) continue;
    const aqp::StratifiedSample& block = *delta;
    sample_.rows.insert(sample_.rows.end(), block.rows.begin(),
                        block.rows.end());
    sample_.weights.insert(sample_.weights.end(), block.weights.begin(),
                           block.weights.end());
    sample_.base_rows += block.base_rows;
    sampled_watermark_ = epochs[e];
  }
}

Result<QueryHandle> StratifiedEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  IDB_ASSIGN_OR_RETURN(std::vector<std::string> dims, RequiredJoins(spec));
  if (!dims.empty()) {
    return Status::NotImplemented("stratified engine does not support joins");
  }
  // Cover any epochs published since the last submission before pinning
  // this query's sample extent.
  ExtendSampleForPublishedEpochs();

  auto rq = std::make_unique<RunningQuery>();
  IDB_ASSIGN_OR_RETURN(rq->query, NewQueryState(spec, /*lazy=*/true));
  rq->reuse = AcquireReuse(spec);

  const double mult = ComplexityMultiplier(spec, 0, config_.factors);
  // Scanning the whole sample costs rate * nominal * ns; spread evenly
  // over the actual sample rows.
  const double total_us = static_cast<double>(nominal_rows()) *
                          config_.sampling_rate *
                          config_.sample_scan_ns_per_row * mult / 1000.0;
  rq->row_cost_us =
      sample_.size() > 0 ? total_us / static_cast<double>(sample_.size()) : 0.0;
  rq->overhead_remaining = static_cast<Micros>(config_.query_overhead_us);
  rq->pinned_sample = sample_.size();

  const QueryHandle handle = NextHandle();
  queries_.emplace(handle, std::move(rq));
  return handle;
}

Micros StratifiedEngine::RunFor(QueryHandle handle, Micros budget) {
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
          : rq.pinned_sample;
  const int64_t remaining = rq.pinned_sample - rq.cursor;
  const int64_t todo = std::min(affordable, remaining);
  if (todo > 0) {
    // Sample positions covered by a cached snapshot are served from it
    // (candidates carry their stratum weights).  The sample is laid out
    // stratum by stratum, so per-row weights of the remainder form runs
    // of equal values; feed each run as one weighted batch through the
    // vectorized pipeline.
    exec::BinnedAggregator* agg = rq.query.aggregator.get();
    const int64_t end = rq.cursor + todo;
    const int64_t served_to = ServeReuse(rq.reuse, agg, rq.cursor, end);
    for (int64_t i = served_to; i < end;) {
      const size_t pos = static_cast<size_t>(i);
      const double w = sample_.weights[pos];
      int64_t j = i + 1;
      while (j < end && sample_.weights[static_cast<size_t>(j)] == w) {
        ++j;
      }
      exec::ProcessBatchParallel(agg, &sample_.rows[pos], j - i, w,
                                 config_.execution_threads);
      i = j;
    }
    rq.cursor += todo;
    const double spent = static_cast<double>(todo) * rq.row_cost_us;
    rq.credit_us -= spent;
    consumed += static_cast<Micros>(std::llround(spent));
  }
  if (rq.cursor >= rq.pinned_sample) {
    rq.done = true;
    rq.credit_us = 0.0;
  }
  // Leftover sub-row budget is banked in credit_us, so the whole slice
  // counts as consumed while the query is still running.
  if (!rq.done) return budget;
  return std::min(consumed, budget);
}

bool StratifiedEngine::IsDone(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it != queries_.end() && it->second->done;
}

Result<query::QueryResult> StratifiedEngine::PollResult(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::KeyError("unknown query handle");
  const RunningQuery& rq = *it->second;
  if (rq.faulted) {
    return Status::IOError("injected run fault (engine '" + name() + "')");
  }
  if (!rq.done) {
    // The sample scan is blocking: no intermediate results.
    query::QueryResult pending;
    pending.available = false;
    return pending;
  }
  query::QueryResult result =
      rq.query.aggregator->EstimateFromWeightedSample(z_score());
  result.available = true;
  // Progress in nominal terms: the whole sample covers `sampling_rate` of
  // the data.
  result.progress = config_.sampling_rate;
  return result;
}

void StratifiedEngine::Cancel(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it != queries_.end()) {
    StoreReuse(std::move(it->second->query));
    queries_.erase(it);
  }
}

}  // namespace idebench::engines
