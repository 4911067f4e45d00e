#include "engines/engine_base.h"

#include <algorithm>

#include "aqp/confidence.h"
#include "chaos/fault_injector.h"

namespace idebench::engines {

EngineBase::EngineBase(std::string name, double confidence_level,
                       uint64_t seed)
    : name_(std::move(name)),
      confidence_level_(confidence_level),
      z_(aqp::ZScoreForConfidence(confidence_level)),
      seed_(seed),
      rng_(seed) {}

Status EngineBase::Attach(std::shared_ptr<const storage::Catalog> catalog) {
  // Chaos site: data preparation fails I/O-style before any state is
  // bound, so a later Prepare retry starts clean and can succeed.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kEnginePrepare)) {
    return Status::IOError("injected prepare fault (engine '" + name_ + "')");
  }
  if (catalog == nullptr || catalog->fact_table() == nullptr) {
    return Status::Invalid("engine '" + name_ + "': empty catalog");
  }
  if (attached()) {
    return Status::Invalid("engine '" + name_ + "' already prepared");
  }
  catalog_ = std::move(catalog);
  // Visible (published-watermark) rows only: rows staged in an open
  // ingest epoch are invisible to every reader until published.
  actual_rows_ = catalog_->fact_table()->visible_rows();
  nominal_rows_ = catalog_->nominal_rows();
  scale_ = actual_rows_ > 0 ? static_cast<double>(nominal_rows_) /
                                  static_cast<double>(actual_rows_)
                            : 1.0;
  if (scale_ < 1.0) scale_ = 1.0;
  return Status::OK();
}

Result<std::vector<std::string>> EngineBase::RequiredJoins(
    const query::QuerySpec& spec) const {
  return exec::BoundQuery::RequiredJoins(spec, *catalog_);
}

Result<const exec::JoinIndex*> EngineBase::MaterializedJoin(
    const std::string& dimension, bool* built_now) {
  // Coarse once-per-dimension guard: the index is built completely (and
  // its mapping frozen) before the pointer escapes the lock, so morsel
  // workers can gather from it without further synchronization.
  std::lock_guard<std::mutex> lock(join_mu_);
  if (built_now != nullptr) *built_now = false;
  auto it = materialized_joins_.find(dimension);
  if (it != materialized_joins_.end()) return it->second.get();
  const storage::ForeignKey* fk = catalog_->FindForeignKey(dimension);
  if (fk == nullptr) {
    return Status::KeyError("no foreign key to dimension '" + dimension + "'");
  }
  IDB_ASSIGN_OR_RETURN(exec::JoinIndex index,
                       exec::JoinIndex::BuildMaterialized(*catalog_, *fk));
  auto owned = std::make_unique<exec::JoinIndex>(std::move(index));
  const exec::JoinIndex* ptr = owned.get();
  materialized_joins_.emplace(dimension, std::move(owned));
  if (built_now != nullptr) *built_now = true;
  return ptr;
}

Result<const exec::JoinIndex*> EngineBase::LazyJoin(
    const std::string& dimension) {
  std::lock_guard<std::mutex> lock(join_mu_);
  auto it = lazy_joins_.find(dimension);
  if (it != lazy_joins_.end()) return it->second.get();
  const storage::ForeignKey* fk = catalog_->FindForeignKey(dimension);
  if (fk == nullptr) {
    return Status::KeyError("no foreign key to dimension '" + dimension + "'");
  }
  IDB_ASSIGN_OR_RETURN(exec::JoinIndex index,
                       exec::JoinIndex::BuildLazy(*catalog_, *fk));
  auto owned = std::make_unique<exec::JoinIndex>(std::move(index));
  const exec::JoinIndex* ptr = owned.get();
  lazy_joins_.emplace(dimension, std::move(owned));
  return ptr;
}

Result<exec::BoundQuery> EngineBase::BindQuery(const query::QuerySpec& spec,
                                               bool lazy,
                                               int* joins_built_now) {
  if (joins_built_now != nullptr) *joins_built_now = 0;
  IDB_ASSIGN_OR_RETURN(std::vector<std::string> dims, RequiredJoins(spec));
  std::vector<const exec::JoinIndex*> joins;
  for (const std::string& dim : dims) {
    if (lazy) {
      IDB_ASSIGN_OR_RETURN(const exec::JoinIndex* join, LazyJoin(dim));
      joins.push_back(join);
    } else {
      bool built = false;
      IDB_ASSIGN_OR_RETURN(const exec::JoinIndex* join,
                           MaterializedJoin(dim, &built));
      if (built && joins_built_now != nullptr) ++(*joins_built_now);
      joins.push_back(join);
    }
  }
  return exec::BoundQuery::Bind(spec, *catalog_, joins);
}

int64_t EngineBase::visible_rows() const {
  if (catalog_ == nullptr || catalog_->fact_table() == nullptr) return 0;
  return catalog_->fact_table()->visible_rows();
}

namespace {
/// Stream id base for per-epoch walk-segment shuffles, forked from a
/// fresh Rng(seed): far away from any other fork stream in the codebase.
constexpr uint64_t kWalkEpochStreamBase = 0x1DEB0000ULL;
}  // namespace

const aqp::ShuffledIndex& EngineBase::ShuffledRows() {
  if (shuffled_ == nullptr) {
    // Ingest-enabled tables: the base index covers only the first epoch
    // (the pre-ingest rows); epochs published *before* this engine
    // attached are appended below through the same per-epoch streams a
    // live engine would have used, so the walk is a pure function of the
    // table's epoch history, not of when the engine showed up.
    int64_t base = actual_rows_;
    const storage::Table* t = catalog_->fact_table();
    if (t->ingest_enabled() && !t->epoch_boundaries().empty()) {
      base = std::min(base, t->epoch_boundaries().front());
    }
    shuffled_ = std::make_unique<aqp::ShuffledIndex>(base, &rng_);
  }
  // Streaming ingest: cover any epochs published since the last call,
  // one segment per epoch.  Each segment's shuffle is keyed purely by
  // (engine seed, epoch index) — never by the advancing member rng_ or
  // by when this engine happened to observe the publish — so a live run
  // and a pre-staged run that publish the same epochs build identical
  // indexes no matter how publishes interleave with queries.  Earlier
  // segments are never touched (ShuffledIndex prefix property), keeping
  // in-flight walks and cached replay positions valid.
  const storage::Table* fact = catalog_->fact_table();
  if (fact->ingest_enabled()) {
    const std::vector<int64_t>& epochs = fact->epoch_boundaries();
    for (size_t e = 0; e < epochs.size(); ++e) {
      if (epochs[e] > shuffled_->size()) {
        Rng child = Rng(seed_).Fork(kWalkEpochStreamBase + e);
        shuffled_->ExtendTo(epochs[e], &child);
      }
    }
  }
  return *shuffled_;
}

void EngineBase::EnableReuseCache(const exec::ReuseCacheOptions& options) {
  if (reuse_cache_ == nullptr) {
    reuse_cache_ = std::make_unique<exec::ReuseCache>(options);
  }
}

void EngineBase::EnableReuseCacheForSessions(int expected_sessions) {
  exec::ReuseCacheOptions options;
  if (expected_sessions > 1) {
    options.max_entries_total *= expected_sessions;
  }
  EnableReuseCache(options);
}

void EngineBase::WorkflowStart() {
  if (reuse_cache_ != nullptr) reuse_cache_->Clear();
}

void EngineBase::DiscardViz(const std::string& viz) {
  if (reuse_cache_ != nullptr) reuse_cache_->DropViz(viz);
}

metrics::ReuseCacheStats EngineBase::reuse_cache_stats() const {
  return reuse_cache_ != nullptr ? reuse_cache_->stats()
                                 : metrics::ReuseCacheStats{};
}

exec::BinnedAggregatorOptions EngineBase::MakeAggregatorOptions() const {
  exec::BinnedAggregatorOptions options;
  options.record_matches = reuse_cache_enabled();
  return options;
}

exec::ReuseCache::Match EngineBase::AcquireReuse(
    const query::QuerySpec& spec) {
  if (reuse_cache_ == nullptr) return {};
  return reuse_cache_->Lookup(spec);
}

int64_t EngineBase::ServeReuse(const exec::ReuseCache::Match& match,
                               exec::BinnedAggregator* agg, int64_t begin,
                               int64_t end) {
  if (reuse_cache_ == nullptr) return begin;
  const int64_t served_to = exec::ReuseCache::Serve(match, agg, begin, end);
  if (served_to > begin) reuse_cache_->AddRowsServed(served_to - begin);
  return served_to;
}

void EngineBase::StoreReuse(const query::QuerySpec& spec,
                            const exec::BinnedAggregator& agg,
                            bool lazy_joins) {
  if (reuse_cache_ == nullptr) return;
  reuse_cache_->Store(spec, agg, [this, lazy_joins](const query::QuerySpec& s) {
    return BindQuery(s, lazy_joins);
  });
}

namespace {

/// FNV-1a over a string, finished with a SplitMix64 mix: a stable,
/// platform-independent 64-bit hash (std::hash makes no such promise).
uint64_t StableHash(const std::string& s, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

int64_t EngineBase::WalkOffsetFor(const query::QuerySpec& spec) const {
  if (actual_rows_ <= 0) return 0;
  const uint64_t h = StableHash(spec.CoreSignature(), seed_);
  return static_cast<int64_t>(h % static_cast<uint64_t>(actual_rows_));
}

std::string QuerySignature(const query::QuerySpec& spec) {
  return spec.Signature();
}

}  // namespace idebench::engines
