#include "exec/reuse_cache.h"

#include <algorithm>
#include <vector>

#include "chaos/fault_injector.h"

namespace idebench::exec {

namespace {

/// Chaos site: a would-be hit turns out corrupt.  The contract that keeps
/// this result-transparent: the cache only ever displaces *physical work*,
/// never changes results, so dropping the entry and reporting a miss just
/// forces the caller back onto the full pipeline.
bool PoisonHit() {
  return chaos::FaultInjector::Fire(chaos::FaultSite::kReusePoison);
}

/// Delta maintenance folds new epochs into *matching bin-table*
/// snapshots.  An epoch publish that moves a column's min/max or grows a
/// dictionary re-resolves the spec's bins, and a snapshot resolved under
/// the old tables can no longer be adopted index-wise — its dense arrays
/// are keyed by the old bin layout.  (The recorded candidate list stays
/// valid either way: replay re-bins by value through the new binding.)
bool SameBinTables(const query::QuerySpec& a, const query::QuerySpec& b) {
  if (a.bins.size() != b.bins.size()) return false;
  for (size_t i = 0; i < a.bins.size(); ++i) {
    const query::BinDimension& x = a.bins[i];
    const query::BinDimension& y = b.bins[i];
    if (x.bin_count != y.bin_count || x.lo != y.lo || x.width != y.width) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReuseCache::ReuseCache(ReuseCacheOptions options) : options_(options) {}

ReuseCache::Match ReuseCache::Lookup(const query::QuerySpec& spec) {
  Match match;
  const std::string full_key = spec.Signature();
  auto it = entries_.find(full_key);
  if (it != entries_.end() && it->second->watermark > 0) {
    if (PoisonHit()) {
      Erase(it);
      ++stats_.poisoned;
      ++stats_.misses;
      return match;
    }
    it->second->last_used = ++use_tick_;
    match.entry = it->second;
    if (SameBinTables(spec, *it->second->spec)) {
      ++stats_.equal_hits;
      match.kind = MatchKind::kEqual;
    } else {
      // An epoch publish re-shaped the bin tables since this snapshot
      // was stored: the dense arrays are unusable, but the candidate
      // list still displaces the scan — serve it as a replay hit.
      ++stats_.refinement_hits;
      match.kind = MatchKind::kRefinement;
    }
    return match;
  }

  // Refinement scan: same core signature, cached predicates implied by
  // the new ones.  Deepest watermark wins (most physical work displaced);
  // ties break on the key for determinism.
  const std::string core_key = spec.CoreSignature();
  Entry* best = nullptr;
  for (auto& [key, entry] : entries_) {
    if (entry->core_key != core_key || entry->watermark <= 0) continue;
    if (!expr::Refines(spec.filter, entry->spec->filter)) continue;
    if (best == nullptr || entry->watermark > best->watermark ||
        (entry->watermark == best->watermark &&
         entry->full_key < best->full_key)) {
      best = entry.get();
    }
  }
  if (best == nullptr) {
    ++stats_.misses;
    return match;
  }
  if (PoisonHit()) {
    Erase(entries_.find(best->full_key));
    ++stats_.poisoned;
    ++stats_.misses;
    return match;
  }
  best->last_used = ++use_tick_;
  ++stats_.refinement_hits;
  match.entry = entries_.find(best->full_key)->second;
  match.kind = MatchKind::kRefinement;
  return match;
}

void ReuseCache::Store(const query::QuerySpec& spec,
                       const BinnedAggregator& agg, const Binder& binder) {
  // Nothing to reuse from an empty feed, and nothing to replay from an
  // aggregator that did not record its candidates (or whose recorder
  // overflowed: the candidate list is incomplete).
  if (agg.rows_seen() <= 0 || !agg.options().record_matches ||
      agg.matches_overflowed()) {
    return;
  }

  // Chaos site: an eviction storm (memory-pressure spike) wipes the whole
  // cache just before the store.  Only physical work is displaced, so the
  // storm costs future lookups their hits and nothing else.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kReuseEvictStorm)) {
    stats_.evictions += static_cast<int64_t>(entries_.size());
    entries_.clear();
    total_bytes_ = 0;
  }

  const std::string full_key = spec.Signature();
  auto it = entries_.find(full_key);
  if (it != entries_.end() && it->second->watermark >= agg.rows_seen() &&
      SameBinTables(spec, *it->second->spec)) {
    it->second->last_used = ++use_tick_;
    return;  // the cached snapshot is at least as deep (and same-shaped);
             // a re-shaped entry falls through and is replaced below
  }

  auto entry = std::make_shared<Entry>();
  entry->full_key = full_key;
  entry->core_key = spec.CoreSignature();
  // Entries are owned by the viz that first stored the signature: a
  // deeper snapshot of the same query (possibly stored via another
  // viz's identical submission) must not migrate the entry between LRU
  // buckets.
  entry->viz = it != entries_.end() ? it->second->viz : spec.viz_name;
  entry->spec = std::make_unique<query::QuerySpec>(spec);
  auto bound = binder(*entry->spec);
  if (!bound.ok()) return;  // engine cannot re-bind: skip caching
  entry->bound = std::make_unique<BoundQuery>(std::move(bound).MoveValueUnsafe());

  BinnedAggregatorOptions snapshot_options = agg.options();
  snapshot_options.record_matches = true;  // the candidate list rides along
  entry->snapshot = std::make_unique<BinnedAggregator>(entry->bound.get(),
                                                       snapshot_options);
  entry->snapshot->MergeFrom(agg);
  entry->watermark = agg.rows_seen();
  entry->last_used = ++use_tick_;
  // Candidate list + bin tables, plus a coarse per-entry floor for the
  // binding and bookkeeping.
  entry->approx_bytes = entry->snapshot->ApproxMemoryBytes() + 4096;

  const std::string owner_viz = entry->viz;
  if (it != entries_.end()) Erase(it);
  total_bytes_ += entry->approx_bytes;
  entries_[full_key] = std::move(entry);
  ++stats_.stores;
  EvictOverflow(owner_viz);
}

void ReuseCache::Erase(
    std::unordered_map<std::string, std::shared_ptr<Entry>>::iterator it) {
  total_bytes_ -= it->second->approx_bytes;
  entries_.erase(it);
}

void ReuseCache::EvictOverflow(const std::string& viz) {
  const auto evict_lru = [&](const std::string* viz_filter) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (viz_filter != nullptr && it->second->viz != *viz_filter) continue;
      if (victim == entries_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim != entries_.end()) {
      Erase(victim);
      ++stats_.evictions;
    }
  };

  int64_t viz_count = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->viz == viz) ++viz_count;
  }
  while (viz_count > options_.max_entries_per_viz) {
    evict_lru(&viz);
    --viz_count;
  }
  while (static_cast<int64_t>(entries_.size()) > options_.max_entries_total) {
    evict_lru(nullptr);
  }
  // Byte budget last: entry-count caps bound the scan, this bounds the
  // resident footprint.  Always leave the most recent entry in place
  // (the one just stored is usually about to be hit).
  while (total_bytes_ > options_.max_total_bytes && entries_.size() > 1) {
    evict_lru(nullptr);
  }
}

int64_t ReuseCache::Serve(const Match& match, BinnedAggregator* agg,
                          int64_t begin, int64_t end) {
  if (!match || match.kind == MatchKind::kNone) return begin;
  const Entry& entry = *match.entry;
  const int64_t upto = std::min(end, entry.watermark);
  if (upto <= begin) return begin;

  if (match.kind == MatchKind::kEqual && begin == 0 &&
      agg->rows_seen() == 0 && upto == entry.watermark) {
    // The range covers the whole snapshot: adopt its bin tables (and
    // candidate list) wholesale.
    agg->MergeFrom(*entry.snapshot);
    return upto;
  }
  // Partial or refined coverage: replay the candidate slice through this
  // query's own filter at the original positions and weights.
  agg->ReplayMatches(entry.snapshot->matched_rows(), begin, upto);
  return upto;
}

void ReuseCache::DropViz(const std::string& viz) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->viz == viz) {
      total_bytes_ -= it->second->approx_bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReuseCache::Clear() {
  entries_.clear();
  total_bytes_ = 0;
}

metrics::ReuseCacheStats ReuseCache::stats() const {
  metrics::ReuseCacheStats s = stats_;
  s.entries = static_cast<int64_t>(entries_.size());
  return s;
}

}  // namespace idebench::exec
