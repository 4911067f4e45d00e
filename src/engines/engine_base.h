#ifndef IDEBENCH_ENGINES_ENGINE_BASE_H_
#define IDEBENCH_ENGINES_ENGINE_BASE_H_

/// \file engine_base.h
/// Shared plumbing for the concrete engines: catalog/handle bookkeeping,
/// join-index caches (materialized and lazy), query binding, and the
/// shuffled row order used by sampling engines.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aqp/sampler.h"
#include "common/random.h"
#include "engines/cost.h"
#include "engines/engine.h"
#include "exec/bound_query.h"
#include "exec/reuse_cache.h"

namespace idebench::engines {

/// Common engine state and helpers.
class EngineBase : public Engine {
 public:
  EngineBase(std::string name, double confidence_level, uint64_t seed);

  const std::string& name() const override { return name_; }

  /// Nominal rows the catalog represents (drives the cost model).
  int64_t nominal_rows() const { return nominal_rows_; }

  /// Physically materialized fact rows *at attach time* (drives the cost
  /// model and walk offsets).  Deliberately frozen under streaming
  /// ingest: per-query walk offsets hash modulo this value, and reuse
  /// replay requires the same core signature to keep the same offset for
  /// the lifetime of the engine.
  int64_t actual_rows() const { return actual_rows_; }

  /// Fact rows visible under the current published watermark — equals
  /// `actual_rows()` until ingest publishes an epoch.  Queries pin this
  /// at submission and never read past their pinned value.
  int64_t visible_rows() const;

  /// Telemetry of the cross-interaction reuse cache (zeros when off).
  metrics::ReuseCacheStats reuse_cache_stats() const override;

  /// A workflow models a fresh user session: cached physical work must
  /// not carry across the boundary.  Engines overriding this must call
  /// the base implementation.
  void WorkflowStart() override;

  /// Discarding a viz drops its cached snapshots.  Engines overriding
  /// this must call the base implementation.
  void DiscardViz(const std::string& viz) override;

  /// Turns the reuse cache on (Settings::reuse_cache).  First call wins:
  /// callers wanting non-default capacity options invoke this before
  /// `Prepare`, which makes the engine's own opt-in a no-op.
  void EnableReuseCache(const exec::ReuseCacheOptions& options = {});

 protected:
  /// Binds the engine to a catalog; called from Prepare implementations.
  Status Attach(std::shared_ptr<const storage::Catalog> catalog);

  /// True once Attach succeeded.
  bool attached() const { return catalog_ != nullptr; }

  /// Fresh query handle.
  QueryHandle NextHandle() { return next_handle_++; }

  /// Scale-up factor nominal/actual (>= 1 in normal configurations).
  double scale() const { return scale_; }

  /// z-score matching the configured confidence level.
  double z_score() const { return z_; }

  Rng* rng() { return &rng_; }

  /// Engine seed — the base for per-epoch derived streams (walk-segment
  /// and stratified-delta shuffles must be pure functions of
  /// (seed, epoch), never of when the engine observed the publish).
  uint64_t seed() const { return seed_; }

  const storage::Catalog& catalog() const { return *catalog_; }

  /// Returns the dimension tables `spec` needs joins for.
  Result<std::vector<std::string>> RequiredJoins(
      const query::QuerySpec& spec) const;

  /// Returns (building and caching if needed) the materialized join index
  /// for `dimension`; sets `*built_now` when this call constructed it (the
  /// caller must charge the build cost).
  ///
  /// Threading: join indexes are built *eagerly and completely* here at
  /// bind time — before any morsel dispatch — and a `JoinIndex`'s flat
  /// fact→dim mapping is immutable after construction, so morsel workers
  /// only ever read frozen arrays.  The cache maps themselves are guarded
  /// by `join_mu_` so concurrent Submit calls cannot race on insertion.
  Result<const exec::JoinIndex*> MaterializedJoin(const std::string& dimension,
                                                  bool* built_now);

  /// Returns (building and caching if needed) the lazy join index; same
  /// threading contract as `MaterializedJoin`.
  Result<const exec::JoinIndex*> LazyJoin(const std::string& dimension);

  /// Binds `spec` using materialized (`lazy == false`) or lazy joins.
  /// `spec` must outlive the returned BoundQuery.  `joins_built_now`
  /// (optional) receives the number of materialized indexes constructed
  /// by this call.
  Result<exec::BoundQuery> BindQuery(const query::QuerySpec& spec, bool lazy,
                                     int* joins_built_now = nullptr);

  /// Shared shuffled row order over the fact table (built lazily); the
  /// basis of without-replacement online sampling.
  const aqp::ShuffledIndex& ShuffledRows();

  // --- Cross-interaction reuse (exec/reuse_cache.h) --------------------
  //
  // Engines opt in from Prepare via `EnableReuseCache`; every query then
  // (1) builds its aggregator with `MakeAggregatorOptions` so candidates
  // are recorded, (2) acquires a match at Submit, (3) routes each feed
  // advance through `ServeReuse` before processing the remainder
  // physically, and (4) stores its snapshot from Cancel.  All helpers are
  // no-ops when the cache is disabled, keeping engine behavior (and
  // results — see the transparency contract in reuse_cache.h) identical
  // either way.

  /// Turns the cache on sized for `expected_sessions` concurrent
  /// dashboards (session/session.h): the global entry cap scales with
  /// the session count so one session's working set cannot evict every
  /// other session's snapshots; the byte budget stays the fixed
  /// process-level bound.  `expected_sessions <= 1` equals
  /// `EnableReuseCache()`.
  void EnableReuseCacheForSessions(int expected_sessions);

  bool reuse_cache_enabled() const { return reuse_cache_ != nullptr; }

  /// Aggregator options for live queries: default execution knobs, with
  /// match recording on when the cache is enabled.
  exec::BinnedAggregatorOptions MakeAggregatorOptions() const;

  /// Best cached entry for `spec` (empty when disabled or no match).
  exec::ReuseCache::Match AcquireReuse(const query::QuerySpec& spec);

  /// Serves feed positions [begin, end) into `agg` from `match`; returns
  /// the position up to which the cache served (begin when nothing was).
  int64_t ServeReuse(const exec::ReuseCache::Match& match,
                     exec::BinnedAggregator* agg, int64_t begin, int64_t end);

  /// Snapshots `agg` under `spec`'s signature (no-op when disabled);
  /// `lazy_joins` selects the join strategy for the entry's binding.
  void StoreReuse(const query::QuerySpec& spec,
                  const exec::BinnedAggregator& agg, bool lazy_joins);

  /// Deterministic start offset into the shuffled walk for `spec`:
  /// stable-hashed from the engine seed and the spec's *core* signature,
  /// so queries that differ only in their predicate sets share one walk —
  /// the precondition for replaying a cached prefix under a refined
  /// filter — and repeated submissions re-walk identical rows.
  int64_t WalkOffsetFor(const query::QuerySpec& spec) const;

 private:
  std::string name_;
  double confidence_level_;
  double z_;
  uint64_t seed_;
  Rng rng_;
  std::shared_ptr<const storage::Catalog> catalog_;
  int64_t nominal_rows_ = 0;
  int64_t actual_rows_ = 0;
  double scale_ = 1.0;
  QueryHandle next_handle_ = 1;
  /// Guards the join caches: binding may run while morsel workers of a
  /// previously bound query are still touching *other* join mappings, and
  /// rehashing the cache map must never invalidate anything mid-build.
  std::mutex join_mu_;
  std::unordered_map<std::string, std::unique_ptr<exec::JoinIndex>>
      materialized_joins_;
  std::unordered_map<std::string, std::unique_ptr<exec::JoinIndex>>
      lazy_joins_;
  std::unique_ptr<aqp::ShuffledIndex> shuffled_;
  std::unique_ptr<exec::ReuseCache> reuse_cache_;
};

/// Canonical signature of a query (bins + aggregates + canonicalized
/// predicate set); used for result reuse and speculative-result matching.
/// Delegates to `query::QuerySpec::Signature`.
std::string QuerySignature(const query::QuerySpec& spec);

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_ENGINE_BASE_H_
