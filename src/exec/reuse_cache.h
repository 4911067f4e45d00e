#ifndef IDEBENCH_EXEC_REUSE_CACHE_H_
#define IDEBENCH_EXEC_REUSE_CACHE_H_

/// \file reuse_cache.h
/// Cross-interaction result-reuse cache.
///
/// IDEBench workflows are sequences of *related* interactions: each step
/// tweaks a filter, drills down, or re-bins the previous visualization,
/// so consecutive queries recompute mostly-overlapping aggregates.  This
/// cache lets an engine resume from the physical work of an earlier
/// interaction instead of restarting:
///
///  * Entries snapshot a `BinnedAggregator`'s partial bin tables, keyed
///    by the normalized query signature (`query::QuerySpec::Signature`:
///    bin spec + aggregates + canonicalized predicate set; the table and
///    join chain are implied by the catalog) together with the
///    sampled-row *watermark* — how far along its feed (shuffled walk,
///    scan, or weighted sample) the snapshot got.
///  * A subsumption matcher recognizes when a new interaction's predicate
///    set is *equal to* a cached entry (serve the snapshot and continue
///    sampling past the watermark) or a *refinement* of one (replay only
///    the cached candidate rows through the refined filter instead of
///    rescanning every row — rows the weaker filter rejected cannot pass
///    the stronger one).
///
/// Transparency contract: serving from the cache reproduces, bit for
/// bit, the aggregator state the engine would have built by feeding the
/// same positions sequentially (see `BinnedAggregator::ReplayMatches`).
/// The virtual cost model is never touched — reuse displaces *physical*
/// work (benchmark wall-clock), not simulated time — so results with
/// the cache on and off are identical; `tests/workflow_fuzz_test.cc`
/// holds every engine to that differentially.  Caveat mirroring
/// exec/parallel.h: integer-valued fields (counters, COUNT, MIN/MAX)
/// are bit-identical unconditionally, but with `threads > 1` on feeds
/// spanning multiple morsels, serving shifts the remainder's morsel
/// boundaries, so real-valued sums may regroup in the last ulp relative
/// to a cache-off run (the fuzz fixture stays below one morsel so its
/// exact comparison is valid).
///
/// Snapshots compose with morsel-parallel execution: they are adopted
/// via `MergeFrom` (which also carries the recorded candidate list) and
/// the remainder of a feed may run through `exec/parallel.h` as usual.
///
/// Hand-off, not copy: a reuse hit costs O(bins), not O(candidates).
///
///  * *Move on store.*  `Store` takes ownership of the finished query's
///    `QueryState` — its spec, `BoundQuery` and aggregator — and keeps it
///    as the snapshot: no spec copy, rebind or kernel recompile.  Engines
///    hold the spec behind a `unique_ptr`, so the binding's pointer to it
///    survives the move.  Store freezes the aggregator's open candidate
///    tail into a shared segment.
///  * *Shared segments.*  A candidate list is a chain of immutable
///    segments plus one open tail (`MatchList`).  Adopting a snapshot
///    shares the chain; the adopter appends past the watermark into its
///    own tail, and storing it adds that tail as one more segment.  An
///    entry evicted or cleared while a running query still shares its
///    segments leaves them alive for that query.
///  * *Whole-snapshot adoption.*  `Serve` adopts a snapshot whole only
///    when the range it is asked for covers the watermark, because the
///    progressive, online and stratified engines publish partials after
///    every slice and a partial must never run ahead of the virtual
///    cursor.  The blocking engine exposes nothing before its scan is
///    done, so its first slice calls `Adopt` whatever the slice length
///    (an equal match no deeper than the query's pinned watermark), then
///    scans physically only past the snapshot; the virtual cursor and
///    every charge are unchanged.
///
/// Snapshots survive ingest epochs (delta maintenance): every engine
/// feed is *prefix-invariant* under epoch publishes (walk segments, scans
/// and stratified samples are all append-only), so a snapshot's first
/// `watermark` positions mean exactly the same rows at any later epoch,
/// and a new epoch folds into a matching snapshot by scanning only the
/// delta positions past its watermark.
///
/// Eviction is per-visualization LRU: dashboards hold few live vizs, and
/// a viz's next query overwhelmingly resembles its previous one, so each
/// viz keeps its most recent signatures; a global cap bounds the total.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "metrics/metrics.h"
#include "query/spec.h"

namespace idebench::exec {

/// Capacity knobs.
struct ReuseCacheOptions {
  /// Entries retained per visualization (LRU within the viz).
  int64_t max_entries_per_viz = 4;

  /// Global entry cap (LRU across all vizs).
  int64_t max_entries_total = 64;

  /// Global byte budget over the entries' dominant allocations
  /// (candidate lists + bin tables, estimated); LRU-evicts past it, so
  /// low-selectivity snapshots cannot pin entry-count × candidate-cap
  /// worth of memory.
  int64_t max_total_bytes = 64 << 20;
};

/// One query's execution state, each part at a stable address: the
/// aggregator points at the binding, which points at the spec.  Engines
/// build it per query and hand it to `ReuseCache::Store` when the query
/// ends; cache entries keep it as their snapshot.
struct QueryState {
  std::unique_ptr<query::QuerySpec> spec;
  std::unique_ptr<BoundQuery> bound;
  std::unique_ptr<BinnedAggregator> aggregator;
};

/// Per-engine cross-interaction reuse cache.  Not thread-safe: engines
/// are single-threaded simulators; only the aggregation *inside* a feed
/// is morsel-parallel.
class ReuseCache {
 public:
  /// One cached snapshot: the state the originating query handed over.
  /// The join indexes and catalog it references belong to the engine,
  /// which outlives the cache.
  struct Entry {
    std::string full_key;   // query::QuerySpec::Signature()
    std::string core_key;   // query::QuerySpec::CoreSignature()
    std::string viz;        // owning viz (LRU bucket)
    /// The aggregator holds the state after the first `watermark` feed
    /// positions; its recorder holds the candidate (matched) rows of
    /// that prefix, frozen.
    QueryState state;
    int64_t watermark = 0;
    uint64_t last_used = 0;
    /// Estimated resident size (candidate segments at capacity + bin
    /// tables); the unit of the cache's byte budget.
    int64_t approx_bytes = 0;
  };

  /// How a lookup matched.
  enum class MatchKind : uint8_t {
    kNone = 0,
    kEqual,       // identical canonical predicate set
    kRefinement,  // new predicates refine the cached ones
  };

  /// A pinned lookup result: keeps the entry alive across evictions for
  /// the lifetime of the query that holds it.
  struct Match {
    std::shared_ptr<const Entry> entry;
    MatchKind kind = MatchKind::kNone;

    explicit operator bool() const { return entry != nullptr; }
    int64_t watermark() const { return entry != nullptr ? entry->watermark : 0; }
  };

  explicit ReuseCache(ReuseCacheOptions options = {});

  /// Finds the best usable entry for `spec`: an equal-signature entry if
  /// one exists, otherwise the deepest-watermark entry with the same core
  /// signature whose predicate set `spec`'s filter refines.  Bumps LRU
  /// and hit/miss counters.
  Match Lookup(const query::QuerySpec& spec);

  /// Takes ownership of a finished query's state and keeps its
  /// aggregator (built with `record_matches`, fed in feed-position
  /// order) as the snapshot for the spec's signature.  Skips states that
  /// fed nothing or whose recorder overflowed; replaces an existing
  /// entry only when the new watermark is deeper (or the old entry's bin
  /// tables are re-shaped); evicts per-viz, global and byte-budget LRU
  /// overflow.  A state it does not keep is simply destroyed.
  void Store(QueryState state);

  /// Adopts `match`'s whole snapshot into the empty `agg` when the match
  /// is equal and its watermark is at most `limit`: bin tables merge in
  /// O(bins) and the candidate chain is shared.  Returns the positions
  /// adopted (the watermark), or 0 when nothing was.
  static int64_t Adopt(const Match& match, BinnedAggregator* agg,
                       int64_t limit);

  /// Serves feed positions [begin, end) of `match` into `agg`: adopts the
  /// whole snapshot when the range covers the watermark from zero,
  /// otherwise replays the recorded candidate slice.  Returns the
  /// position up to which the cache served (== begin when the match is
  /// empty or exhausted); the caller feeds the remainder physically.
  static int64_t Serve(const Match& match, BinnedAggregator* agg,
                       int64_t begin, int64_t end);

  /// Adds to the rows-served telemetry (the engine knows how many
  /// positions `Serve` displaced).
  void AddRowsServed(int64_t n) { stats_.rows_served += n; }

  /// Drops every entry owned by `viz` (the dashboard discarded it).
  /// Pinned matches stay alive through their shared_ptrs.
  void DropViz(const std::string& viz);

  /// Drops all entries — a workflow boundary models a fresh user
  /// session, so physical work must not carry across it (it would
  /// distort per-workflow wall-clock accounting; results would be
  /// unchanged either way).  Counters are cumulative and survive.
  void Clear();

  /// Counters plus the current entry count.
  metrics::ReuseCacheStats stats() const;

  size_t size() const { return entries_.size(); }

  /// Estimated resident bytes across all entries.
  int64_t total_bytes() const { return total_bytes_; }

 private:
  void EvictOverflow(const std::string& viz);
  void Erase(std::unordered_map<std::string,
                                std::shared_ptr<Entry>>::iterator it);

  ReuseCacheOptions options_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  uint64_t use_tick_ = 0;
  int64_t total_bytes_ = 0;
  metrics::ReuseCacheStats stats_;
};

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_REUSE_CACHE_H_
