/// \file reuse_cache_test.cc
/// Unit tests of the cross-interaction reuse cache: signature and
/// subsumption matching, snapshot serve/replay bit-exactness (including
/// against the morsel-parallel path), match recording through partial
/// merges, per-viz LRU eviction, the shared candidate-segment chain
/// across store/adopt generations, and the blocking engine's
/// whole-snapshot adoption against a reuse-off twin.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "engines/blocking_engine.h"
#include "exec/parallel.h"
#include "exec/reuse_cache.h"
#include "tests/workflow_harness.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

constexpr int64_t kRows = 3000;

/// A small deterministic table with enough spread for selective filters.
/// With `staged > 0` the table is in ingest mode with that many more rows
/// appended but not published: physically present, invisible to queries.
std::shared_ptr<storage::Catalog> MakeCatalog(int64_t staged = 0) {
  storage::Schema schema({
      {"value", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"amount", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"group", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"code", storage::DataType::kInt64, storage::AttributeKind::kNominal},
  });
  auto table = std::make_shared<storage::Table>("fact", schema);
  const char* groups[] = {"a", "b", "c", "d"};
  Rng rng(21);
  for (int64_t i = 0; i < kRows + staged; ++i) {
    if (i == kRows && staged > 0) table->BeginIngest();
    table->mutable_column(0).AppendDouble(rng.Uniform(0.0, 100.0));
    table->mutable_column(1).AppendDouble(rng.Uniform(-10.0, 10.0));
    table->mutable_column(2).AppendString(groups[rng.UniformInt(0, 3)]);
    table->mutable_column(3).AppendInt(rng.UniformInt(0, 9));
  }
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

QuerySpec BaseSpec(const storage::Catalog& catalog,
                   const std::string& viz = "viz_a") {
  QuerySpec spec;
  spec.viz_name = viz;
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  AggregateSpec count;
  count.type = AggregateType::kCount;
  AggregateSpec avg;
  avg.type = AggregateType::kAvg;
  avg.column = "amount";
  spec.aggregates = {count, avg};
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

expr::Predicate Range(const std::string& column, double lo, double hi) {
  expr::Predicate p;
  p.column = column;
  p.op = expr::CompareOp::kRange;
  p.lo = lo;
  p.hi = hi;
  return p;
}

BinnedAggregatorOptions Recording() {
  BinnedAggregatorOptions options;
  options.record_matches = true;
  return options;
}

/// A fresh query state for `spec`, as an engine builds one per query.
QueryState NewState(const std::shared_ptr<storage::Catalog>& catalog,
                    const QuerySpec& spec,
                    BinnedAggregatorOptions options = Recording()) {
  QueryState state;
  state.spec = std::make_unique<QuerySpec>(spec);
  auto bound = BoundQuery::Bind(*state.spec, *catalog);
  IDB_CHECK(bound.ok());
  state.bound = std::make_unique<BoundQuery>(std::move(bound).MoveValueUnsafe());
  state.aggregator =
      std::make_unique<BinnedAggregator>(state.bound.get(), options);
  return state;
}

/// Stores a copy of `agg` (fed under `spec`) in `cache` and leaves `agg`
/// usable: `Store` takes ownership of a query's state, so the copy gets
/// its own spec, binding and aggregator, which adopts `agg`'s state.
void StoreCopy(ReuseCache* cache,
               const std::shared_ptr<storage::Catalog>& catalog,
               const QuerySpec& spec, const BinnedAggregator& agg) {
  QueryState state = NewState(catalog, spec, agg.options());
  state.aggregator->MergeFrom(agg);
  cache->Store(std::move(state));
}

/// Asserts two candidate lists hold the same rows, position for position.
void ExpectSameMatches(const MatchList& a, const MatchList& b,
                       const std::string& label) {
  const std::vector<MatchedRow> x = a.ToVector();
  const std::vector<MatchedRow> y = b.ToVector();
  ASSERT_EQ(x.size(), y.size()) << label;
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].pos, y[i].pos) << label << ", match " << i;
    EXPECT_EQ(x[i].row, y[i].row) << label << ", match " << i;
    EXPECT_EQ(x[i].weight, y[i].weight) << label << ", match " << i;
  }
}

TEST(ReuseCacheTest, EqualAndRefinementMatching) {
  auto catalog = MakeCatalog();
  ReuseCache cache;

  QuerySpec base = BaseSpec(*catalog);
  base.filter.And(Range("value", 10.0, 90.0));
  auto bound = BoundQuery::Bind(base, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.ProcessRange(0, 1000);
  StoreCopy(&cache, catalog, base, agg);
  ASSERT_EQ(cache.size(), 1u);

  // Identical predicates (in any order) match as equal.
  auto equal = cache.Lookup(base);
  EXPECT_EQ(equal.kind, ReuseCache::MatchKind::kEqual);
  EXPECT_EQ(equal.watermark(), 1000);

  // Adding a predicate refines the cached set.
  QuerySpec refined = base;
  refined.filter.And(Range("amount", -5.0, 5.0));
  auto refinement = cache.Lookup(refined);
  EXPECT_EQ(refinement.kind, ReuseCache::MatchKind::kRefinement);

  // Narrowing the existing range also refines.
  QuerySpec narrowed = BaseSpec(*catalog);
  narrowed.filter.And(Range("value", 20.0, 60.0));
  EXPECT_EQ(cache.Lookup(narrowed).kind, ReuseCache::MatchKind::kRefinement);

  // Widening does not (rows outside the cached range are unknown).
  QuerySpec widened = BaseSpec(*catalog);
  widened.filter.And(Range("value", 0.0, 95.0));
  EXPECT_EQ(cache.Lookup(widened).kind, ReuseCache::MatchKind::kNone);

  // A different bin spec is a different core signature: no match.
  QuerySpec rebinned = base;
  rebinned.bins[0].column = "code";
  ASSERT_TRUE(rebinned.ResolveBins(*catalog).ok());
  EXPECT_EQ(cache.Lookup(rebinned).kind, ReuseCache::MatchKind::kNone);
}

TEST(ReuseCacheTest, EpochGrowthServesSnapshotPrefix) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.ProcessRange(0, 1000);
  ReuseCache cache;
  StoreCopy(&cache, catalog, spec, agg);

  // Delta maintenance: after the table grows past the snapshot, the entry
  // is still an equal hit — Serve caps at the snapshot depth and the
  // engine scans only the delta rows beyond it.
  const ReuseCache::Match match = cache.Lookup(spec);
  EXPECT_EQ(match.kind, ReuseCache::MatchKind::kEqual);
  BinnedAggregator grown(&*bound, Recording());
  EXPECT_EQ(ReuseCache::Serve(match, &grown, 0, kRows), 1000);
  EXPECT_EQ(grown.rows_seen(), 1000);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReuseCacheTest, ReshapedBinTablesDowngradeToReplay) {
  auto catalog = MakeCatalog();
  ReuseCache cache;

  QuerySpec stored = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(stored, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.ProcessRange(0, 1500);
  StoreCopy(&cache, catalog, stored, agg);

  // An epoch publish re-resolves the spec's bins (here: the nominal
  // dictionary grew a value).  Signatures ignore resolved bin tables, so
  // this is still an equal-signature lookup — but index-wise snapshot
  // adoption would mis-bin, so the hit downgrades to candidate replay.
  QuerySpec grown = stored;
  grown.bins[0].bin_count += 1;
  const auto match = cache.Lookup(grown);
  EXPECT_EQ(match.kind, ReuseCache::MatchKind::kRefinement);
  EXPECT_EQ(match.watermark(), 1500);
  EXPECT_EQ(cache.stats().refinement_hits, 1);

  // A fresh store under the new shape replaces the re-shaped entry even
  // though the old snapshot is deeper: depth can't justify keeping bin
  // tables the current resolution no longer produces.
  auto grown_bound = BoundQuery::Bind(grown, *catalog);
  ASSERT_TRUE(grown_bound.ok());
  BinnedAggregator shallow(&*grown_bound, Recording());
  shallow.ProcessRange(0, 1000);
  StoreCopy(&cache, catalog, grown, shallow);
  EXPECT_EQ(cache.size(), 1u);
  const auto after = cache.Lookup(grown);
  EXPECT_EQ(after.kind, ReuseCache::MatchKind::kEqual);
  EXPECT_EQ(after.watermark(), 1000);
}

TEST(ReuseCacheTest, StoreKeepsDeepestWatermark) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator deep(&*bound, Recording());
  deep.ProcessRange(0, 2000);
  StoreCopy(&cache, catalog, spec, deep);
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2000);

  // A shallower snapshot of the same signature must not replace it.
  BinnedAggregator shallow(&*bound, Recording());
  shallow.ProcessRange(0, 500);
  StoreCopy(&cache, catalog, spec, shallow);
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2000);

  // A deeper one does.
  BinnedAggregator deeper(&*bound, Recording());
  deeper.ProcessRange(0, 2500);
  StoreCopy(&cache, catalog, spec, deeper);
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2500);

  // Aggregators without a recorder are not cacheable.
  ReuseCache fresh;
  BinnedAggregator unrecorded(&*bound);
  unrecorded.ProcessRange(0, 100);
  StoreCopy(&fresh, catalog, spec, unrecorded);
  EXPECT_EQ(fresh.size(), 0u);
}

/// Serve must reproduce direct processing bit for bit: full snapshot
/// adoption, partial replay below the watermark, and refined replay.
TEST(ReuseCacheTest, ServeIsBitIdenticalToDirectProcessing) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec base = BaseSpec(*catalog);
  base.filter.And(Range("value", 5.0, 95.0));
  auto bound = BoundQuery::Bind(base, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator source(&*bound, Recording());
  source.ProcessRange(0, 2000);
  StoreCopy(&cache, catalog, base, source);
  auto match = cache.Lookup(base);
  ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);

  // Full adoption + physical continuation == direct feed of [0, 2600).
  {
    BinnedAggregator served(&*bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(match, &served, 0, 2600), 2000);
    served.ProcessRange(2000, 2600);
    BinnedAggregator direct(&*bound, Recording());
    direct.ProcessRange(0, 2600);
    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(), "full adoption");
    testharness::ExpectResultsBitIdentical(
        served.EstimateFromUniformSample(kRows, 1.96),
        direct.EstimateFromUniformSample(kRows, 1.96), "full adoption est");
    // The recorder survives adoption, so the served aggregator can
    // itself be stored at the deeper watermark.
    EXPECT_EQ(served.matched_rows().size(), direct.matched_rows().size());
  }

  // Partial replay below the watermark == direct feed of [0, 700).
  {
    BinnedAggregator served(&*bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(match, &served, 0, 700), 700);
    BinnedAggregator direct(&*bound, Recording());
    direct.ProcessRange(0, 700);
    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(), "partial replay");
  }

  // Refined replay: candidates re-filtered through the stricter query.
  {
    QuerySpec refined = base;
    refined.filter.And(Range("amount", -3.0, 3.0));
    auto refined_bound = BoundQuery::Bind(refined, *catalog);
    ASSERT_TRUE(refined_bound.ok());
    auto refined_match = cache.Lookup(refined);
    ASSERT_EQ(refined_match.kind, ReuseCache::MatchKind::kRefinement);

    BinnedAggregator served(&*refined_bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(refined_match, &served, 0, 2000), 2000);
    BinnedAggregator direct(&*refined_bound, Recording());
    direct.ProcessRange(0, 2000);
    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(), "refined replay");
    // Matches recorded during replay carry the original feed positions.
    const auto served_rows = served.matched_rows().ToVector();
    const auto direct_rows = direct.matched_rows().ToVector();
    ASSERT_EQ(served_rows.size(), direct_rows.size());
    for (size_t i = 0; i < served_rows.size(); ++i) {
      EXPECT_EQ(served_rows[i].pos, direct_rows[i].pos);
      EXPECT_EQ(served_rows[i].row, direct_rows[i].row);
    }
  }

  // Ranges past the watermark serve nothing.
  {
    BinnedAggregator served(&*bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(match, &served, 2000, 2600), 2000);
    EXPECT_EQ(served.rows_seen(), 0);
  }
}

/// Snapshots compose with morsel-parallel continuation: adopting a
/// snapshot then feeding the rest through MorselProcessRange equals the
/// same call sequence without the cache, at any parallelism.
TEST(ReuseCacheTest, ServeComposesWithMorselPathMergeFrom) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("value", 10.0, 80.0));
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator source(&*bound, Recording());
  MorselProcessRange(&source, 0, 1500, /*parallelism=*/4,
                     /*morsel_rows=*/512);
  StoreCopy(&cache, catalog, spec, source);
  auto match = cache.Lookup(spec);
  ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);

  for (int parallelism : {1, 2, 4}) {
    BinnedAggregator served(&*bound, Recording());
    ASSERT_EQ(ReuseCache::Serve(match, &served, 0, kRows), 1500);
    MorselProcessRange(&served, 1500, kRows, parallelism, /*morsel_rows=*/512);

    BinnedAggregator direct(&*bound, Recording());
    MorselProcessRange(&direct, 0, 1500, /*parallelism=*/2,
                       /*morsel_rows=*/512);
    MorselProcessRange(&direct, 1500, kRows, parallelism, /*morsel_rows=*/512);

    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(),
        "morsel continuation, parallelism " + std::to_string(parallelism));
    // Recorder positions survive the partial merges in morsel order.
    const auto served_rows = served.matched_rows().ToVector();
    const auto direct_rows = direct.matched_rows().ToVector();
    ASSERT_EQ(served_rows.size(), direct_rows.size());
    for (size_t i = 0; i < served_rows.size(); ++i) {
      EXPECT_EQ(served_rows[i].pos, direct_rows[i].pos);
    }
  }
}

/// Weighted feeds replay with their recorded weights.
TEST(ReuseCacheTest, WeightedReplayPreservesWeights) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  // Two weight strata, as the stratified engine feeds them.
  std::vector<int64_t> rows(kRows);
  for (int64_t i = 0; i < kRows; ++i) rows[static_cast<size_t>(i)] = i;
  BinnedAggregator source(&*bound, Recording());
  source.ProcessBatch(rows.data(), 1200, 3.5);
  source.ProcessBatch(rows.data() + 1200, 800, 7.25);
  StoreCopy(&cache, catalog, spec, source);

  auto match = cache.Lookup(spec);
  ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);
  BinnedAggregator served(&*bound, Recording());
  // Replay a window straddling the weight boundary.
  EXPECT_EQ(ReuseCache::Serve(match, &served, 0, 1700), 1700);

  BinnedAggregator direct(&*bound, Recording());
  direct.ProcessBatch(rows.data(), 1200, 3.5);
  direct.ProcessBatch(rows.data() + 1200, 500, 7.25);
  EXPECT_EQ(served.rows_seen(), direct.rows_seen());
  testharness::ExpectResultsBitIdentical(
      served.EstimateFromWeightedSample(1.96),
      direct.EstimateFromWeightedSample(1.96), "weighted replay");
}

/// Past the recording cap the candidate list is released and the state
/// becomes non-cacheable — memory stays bounded no matter how weak the
/// filter is.
TEST(ReuseCacheTest, RecorderOverflowDisablesCaching) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(*catalog);  // no filter: every row matches
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions options = Recording();
  options.record_matches_limit = 100;
  BinnedAggregator agg(&*bound, options);
  agg.ProcessRange(0, 500);
  EXPECT_TRUE(agg.matches_overflowed());
  EXPECT_TRUE(agg.matched_rows().empty());
  // Results are unaffected by the recorder overflowing.
  EXPECT_EQ(agg.rows_matched(), 500);

  ReuseCache cache;
  StoreCopy(&cache, catalog, spec, agg);
  EXPECT_EQ(cache.size(), 0u);

  // Overflow propagates through merges (morsel partials).
  BinnedAggregator target(&*bound, options);
  target.MergeFrom(agg);
  EXPECT_TRUE(target.matches_overflowed());

  // Merging matched rows from a non-recording side poisons the
  // recorder too: the candidate list would otherwise silently miss them.
  BinnedAggregator plain(&*bound);
  plain.ProcessRange(0, 50);
  BinnedAggregator recording(&*bound, Recording());
  recording.MergeFrom(plain);
  EXPECT_TRUE(recording.matches_overflowed());
  EXPECT_TRUE(recording.matched_rows().empty());
}

/// The byte budget LRU-evicts heavy snapshots while keeping the most
/// recent entry.
TEST(ReuseCacheTest, ByteBudgetEviction) {
  auto catalog = MakeCatalog();
  ReuseCacheOptions options;
  // Each unfiltered snapshot records 2000 matches (~48 KB + floor).
  options.max_total_bytes = 120 << 10;
  ReuseCache cache(options);

  for (double lo : {1.0, 2.0, 3.0, 4.0}) {
    QuerySpec spec = BaseSpec(*catalog);
    spec.filter.And(Range("amount", -100.0 - lo, 100.0 + lo));  // matches all
    auto bound = BoundQuery::Bind(spec, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.ProcessRange(0, 2000);
    StoreCopy(&cache, catalog, spec, agg);
    EXPECT_LE(cache.total_bytes(), options.max_total_bytes);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GT(cache.stats().evictions, 0);
  // The most recently stored entry survives.
  QuerySpec last = BaseSpec(*catalog);
  last.filter.And(Range("amount", -104.0, 104.0));
  EXPECT_EQ(cache.Lookup(last).kind, ReuseCache::MatchKind::kEqual);
}

TEST(ReuseCacheTest, PerVizLruEviction) {
  auto catalog = MakeCatalog();
  ReuseCacheOptions options;
  options.max_entries_per_viz = 2;
  options.max_entries_total = 3;
  ReuseCache cache(options);

  const auto store_with_filter = [&](const std::string& viz, double lo) {
    QuerySpec spec = BaseSpec(*catalog, viz);
    spec.filter.And(Range("value", lo, 99.0));
    auto bound = BoundQuery::Bind(spec, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.ProcessRange(0, 200);
    StoreCopy(&cache, catalog, spec, agg);
  };

  store_with_filter("viz_a", 1.0);
  store_with_filter("viz_a", 2.0);
  ASSERT_EQ(cache.size(), 2u);
  // Third distinct signature for viz_a evicts that viz's LRU entry.
  store_with_filter("viz_a", 3.0);
  EXPECT_EQ(cache.size(), 2u);
  {
    QuerySpec oldest = BaseSpec(*catalog, "viz_a");
    oldest.filter.And(Range("value", 1.0, 99.0));
    EXPECT_EQ(cache.Lookup(oldest).kind, ReuseCache::MatchKind::kNone);
  }
  // Another viz gets its own budget, but the global cap still holds.
  store_with_filter("viz_b", 1.0);
  EXPECT_EQ(cache.size(), 3u);
  store_with_filter("viz_b", 2.0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_GT(cache.stats().evictions, 0);
}

/// Workflow boundaries clear the cache; discarding a viz drops only its
/// entries.
TEST(ReuseCacheTest, ClearAndDropViz) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  const auto store_for = [&](const std::string& viz) {
    QuerySpec spec = BaseSpec(*catalog, viz);
    auto bound = BoundQuery::Bind(spec, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.ProcessRange(0, 100);
    StoreCopy(&cache, catalog, spec, agg);
  };
  store_for("viz_a");
  {
    QuerySpec other = BaseSpec(*catalog, "viz_b");
    other.filter.And(Range("value", 1.0, 99.0));
    auto bound = BoundQuery::Bind(other, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.ProcessRange(0, 100);
    StoreCopy(&cache, catalog, other, agg);
  }
  ASSERT_EQ(cache.size(), 2u);

  cache.DropViz("viz_a");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(BaseSpec(*catalog, "viz_a")).kind,
            ReuseCache::MatchKind::kNone);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.total_bytes(), 0);
}

TEST(ReuseCacheTest, StatsCountHitsAndMisses) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  EXPECT_EQ(cache.Lookup(spec).kind, ReuseCache::MatchKind::kNone);

  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.ProcessRange(0, 100);
  StoreCopy(&cache, catalog, spec, agg);
  cache.Lookup(spec);

  QuerySpec refined = spec;
  refined.filter.And(Range("value", 0.0, 50.0));
  cache.Lookup(refined);

  const metrics::ReuseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.equal_hits, 1);
  EXPECT_EQ(stats.refinement_hits, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_EQ(stats.entries, 1);
}

// --- Shared candidate segments ----------------------------------------------

/// Three generations of adopt -> extend -> store -> adopt: each adopter
/// shares the stored chain and appends one segment; replaying the chain
/// equals direct processing, position for position.
TEST(MatchChainTest, GenerationsShareSegmentsAndReplayExactly) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("value", 5.0, 95.0));
  constexpr int64_t kStep = 700;

  {
    QueryState first = NewState(catalog, spec);
    first.aggregator->ProcessRange(0, kStep);
    cache.Store(std::move(first));
  }
  for (int64_t gen = 1; gen <= 3; ++gen) {
    const auto match = cache.Lookup(spec);
    ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);
    ASSERT_EQ(match.watermark(), gen * kStep);
    QueryState next = NewState(catalog, spec);
    ASSERT_EQ(ReuseCache::Adopt(match, next.aggregator.get(), kRows),
              gen * kStep);
    // One frozen segment per earlier generation, shared, not copied.
    EXPECT_EQ(next.aggregator->matched_rows().segment_count(),
              static_cast<size_t>(gen));
    next.aggregator->ProcessRange(gen * kStep, (gen + 1) * kStep);
    cache.Store(std::move(next));
  }

  const auto match = cache.Lookup(spec);
  ASSERT_EQ(match.watermark(), 4 * kStep);
  const MatchList& chain = match.entry->state.aggregator->matched_rows();
  EXPECT_EQ(chain.segment_count(), 4u);

  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator direct(&*bound, Recording());
  direct.ProcessRange(0, 4 * kStep);
  ExpectSameMatches(chain, direct.matched_rows(), "stored chain");

  // Replay in slices that straddle every segment boundary.
  BinnedAggregator replayed(&*bound, Recording());
  for (int64_t b = 0; b < 4 * kStep; b += 450) {
    replayed.ReplayMatches(chain, b, std::min(b + 450, 4 * kStep));
  }
  EXPECT_EQ(replayed.rows_seen(), direct.rows_seen());
  EXPECT_EQ(replayed.rows_matched(), direct.rows_matched());
  testharness::ExpectResultsBitIdentical(
      replayed.ExactResult(), direct.ExactResult(), "sliced chain replay");
  ExpectSameMatches(replayed.matched_rows(), direct.matched_rows(),
                    "sliced chain replay");

  // A refinement replays the whole chain through its stricter filter.
  QuerySpec refined = spec;
  refined.filter.And(Range("amount", -4.0, 4.0));
  auto refined_bound = BoundQuery::Bind(refined, *catalog);
  ASSERT_TRUE(refined_bound.ok());
  BinnedAggregator refined_direct(&*refined_bound, Recording());
  refined_direct.ProcessRange(0, 4 * kStep);
  BinnedAggregator refined_replayed(&*refined_bound, Recording());
  refined_replayed.ReplayMatches(chain, 0, 4 * kStep);
  testharness::ExpectResultsBitIdentical(refined_replayed.ExactResult(),
                                         refined_direct.ExactResult(),
                                         "refined chain replay");
  ExpectSameMatches(refined_replayed.matched_rows(),
                    refined_direct.matched_rows(), "refined chain replay");
}

/// A long recording is cut into segments of at most `kSegmentRows` rows
/// with little spare capacity, and reads back as one list.
TEST(MatchChainTest, OpenTailFreezesAtSegmentSize) {
  auto catalog = MakeCatalog();
  const QuerySpec spec = BaseSpec(*catalog);  // no filter: every row matches
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  constexpr int64_t kFed = 40'000;
  std::vector<int64_t> ids(static_cast<size_t>(kFed));
  for (int64_t i = 0; i < kFed; ++i) ids[static_cast<size_t>(i)] = i % kRows;
  BinnedAggregator agg(&*bound, Recording());
  agg.ProcessBatch(ids.data(), kFed);

  const MatchList& list = agg.matched_rows();
  ASSERT_EQ(list.size(), kFed);
  EXPECT_EQ(list.segment_count(),
            static_cast<size_t>(kFed) / MatchList::kSegmentRows);
  EXPECT_LE(list.CapacityBytes(),
            static_cast<int64_t>((kFed + MatchList::kSegmentRows) *
                                 sizeof(MatchedRow)));
  const std::vector<MatchedRow> rows = list.ToVector();
  for (int64_t i = 0; i < kFed; ++i) {
    ASSERT_EQ(rows[static_cast<size_t>(i)].pos, i);
    ASSERT_EQ(rows[static_cast<size_t>(i)].row, i % kRows);
  }
  BinnedAggregator replayed(&*bound, Recording());
  replayed.ReplayMatches(list, 0, kFed);
  testharness::ExpectResultsBitIdentical(replayed.ExactResult(),
                                         agg.ExactResult(), "segmented list");
}

/// The recording cap counts frozen and open rows together; overflowing
/// releases both and leaves the stored snapshot's own chain intact.
TEST(MatchChainTest, OverflowAcrossFrozenAndOpenRowsReleasesBoth) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  const QuerySpec spec = BaseSpec(*catalog);  // no filter: every row matches
  BinnedAggregatorOptions options = Recording();
  options.record_matches_limit = 1000;

  {
    QueryState first = NewState(catalog, spec, options);
    first.aggregator->ProcessRange(0, 600);
    cache.Store(std::move(first));
  }
  const auto match = cache.Lookup(spec);
  QueryState next = NewState(catalog, spec, options);
  ASSERT_EQ(ReuseCache::Adopt(match, next.aggregator.get(), kRows), 600);
  EXPECT_EQ(next.aggregator->matched_rows().size(), 600);
  EXPECT_FALSE(next.aggregator->matches_overflowed());

  // 600 frozen + 500 open > 1000.
  next.aggregator->ProcessRange(600, 1100);
  EXPECT_TRUE(next.aggregator->matches_overflowed());
  EXPECT_TRUE(next.aggregator->matched_rows().empty());
  EXPECT_EQ(next.aggregator->matched_rows().segment_count(), 0u);
  EXPECT_EQ(next.aggregator->matched_rows().CapacityBytes(), 0);
  EXPECT_EQ(next.aggregator->rows_matched(), 1100);  // results unaffected

  cache.Store(std::move(next));  // not replayable: not kept
  EXPECT_EQ(cache.stats().stores, 1);
  EXPECT_EQ(cache.Lookup(spec).watermark(), 600);
  EXPECT_EQ(match.entry->state.aggregator->matched_rows().size(), 600);
}

/// A running query that shares an entry's segments keeps them valid
/// after the cache clears or evicts that entry.
TEST(MatchChainTest, SharedSegmentsOutliveClearAndEviction) {
  auto catalog = MakeCatalog();
  ReuseCacheOptions options;
  options.max_entries_total = 1;
  ReuseCache cache(options);
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("value", 10.0, 90.0));
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  {
    QueryState first = NewState(catalog, spec);
    first.aggregator->ProcessRange(0, 1000);
    cache.Store(std::move(first));
  }
  QueryState running = NewState(catalog, spec);
  {
    const auto match = cache.Lookup(spec);
    ASSERT_EQ(ReuseCache::Adopt(match, running.aggregator.get(), kRows),
              1000);
  }  // the pin is gone: the running query alone holds the segments
  cache.Clear();
  ASSERT_EQ(cache.size(), 0u);
  running.aggregator->ProcessRange(1000, 2000);
  {
    BinnedAggregator direct(&*bound, Recording());
    direct.ProcessRange(0, 2000);
    BinnedAggregator replayed(&*bound, Recording());
    replayed.ReplayMatches(running.aggregator->matched_rows(), 0, 2000);
    testharness::ExpectResultsBitIdentical(
        replayed.ExactResult(), direct.ExactResult(), "after Clear");
    ExpectSameMatches(running.aggregator->matched_rows(),
                      direct.matched_rows(), "after Clear");
  }

  // Eviction: the next adopter shares the re-stored chain, then a store
  // under another signature evicts the entry (global cap 1).
  cache.Store(std::move(running));
  QueryState adopter = NewState(catalog, spec);
  {
    const auto match = cache.Lookup(spec);
    ASSERT_EQ(ReuseCache::Adopt(match, adopter.aggregator.get(), kRows),
              2000);
  }
  EXPECT_EQ(adopter.aggregator->matched_rows().segment_count(), 2u);
  QuerySpec other = BaseSpec(*catalog);
  other.bins[0].column = "code";
  ASSERT_TRUE(other.ResolveBins(*catalog).ok());
  {
    QueryState evictor = NewState(catalog, other);
    evictor.aggregator->ProcessRange(0, 100);
    cache.Store(std::move(evictor));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(cache.Lookup(spec).kind, ReuseCache::MatchKind::kNone);
  adopter.aggregator->ProcessRange(2000, kRows);
  BinnedAggregator direct(&*bound, Recording());
  direct.ProcessRange(0, kRows);
  BinnedAggregator replayed(&*bound, Recording());
  replayed.ReplayMatches(adopter.aggregator->matched_rows(), 0, kRows);
  testharness::ExpectResultsBitIdentical(
      replayed.ExactResult(), direct.ExactResult(), "after eviction");
  testharness::ExpectResultsBitIdentical(adopter.aggregator->ExactResult(),
                                         direct.ExactResult(),
                                         "adopter after eviction");
}

// --- Whole-snapshot adoption on the blocking engine ---------------------------

/// Virtual budget of one scan slice: a little over a hundred rows of
/// kRows, so every query needs many slices and no slice covers a
/// snapshot's watermark.
constexpr Micros kScanSliceUs = 1;

/// A blocking engine whose reuse cache a test can seed with a snapshot
/// fed over rows [0, rows), published or not.
class SeedableBlockingEngine : public engines::BlockingEngine {
 public:
  explicit SeedableBlockingEngine(bool reuse)
      : engines::BlockingEngine(Config(reuse)) {}

  void Seed(const QuerySpec& spec, int64_t rows) {
    auto state = NewQueryState(spec, /*lazy=*/false);
    IDB_CHECK(state.ok());
    std::vector<int64_t> ids(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) ids[static_cast<size_t>(i)] = i;
    state->aggregator->ProcessBatch(ids.data(), rows);
    StoreReuse(std::move(state).MoveValueUnsafe());
  }

 private:
  static engines::BlockingEngineConfig Config(bool reuse) {
    engines::BlockingEngineConfig config;
    config.reuse_cache = reuse;
    return config;
  }
};

/// One query driven the way the session scheduler slices it: its fixed
/// overhead, then up to `slices` scan slices, then Cancel.
struct SlicedRun {
  query::QueryResult result;  // the last poll before Cancel
  double first_slice_progress = 0.0;
  int64_t first_slice_served = 0;  // reuse rows_served by that slice
};

SlicedRun RunSliced(engines::BlockingEngine* engine, const QuerySpec& spec,
                    int slices) {
  SlicedRun run;
  auto handle = engine->Submit(spec);
  IDB_CHECK(handle.ok());
  engine->RunFor(*handle,
                 static_cast<Micros>(engine->config().query_overhead_us));
  for (int i = 0; i < slices && !engine->IsDone(*handle); ++i) {
    const int64_t served = engine->reuse_cache_stats().rows_served;
    engine->RunFor(*handle, kScanSliceUs);
    if (i == 0) {
      run.first_slice_served = engine->reuse_cache_stats().rows_served - served;
      auto polled = engine->PollResult(*handle);
      IDB_CHECK(polled.ok());
      run.first_slice_progress = polled->progress;
    }
  }
  auto result = engine->PollResult(*handle);
  IDB_CHECK(result.ok());
  run.result = *result;
  engine->Cancel(*handle);
  return run;
}

/// Runs the same slice schedule on a reuse-on and a reuse-off engine and
/// asserts every query's last poll is bit-identical; returns the on runs.
std::vector<SlicedRun> RunOnAndOff(
    const std::shared_ptr<storage::Catalog>& catalog, const QuerySpec& spec,
    const std::vector<int>& schedule, SeedableBlockingEngine* on) {
  SeedableBlockingEngine off(/*reuse=*/false);
  IDB_CHECK(off.Prepare(catalog).ok());
  std::vector<SlicedRun> runs;
  for (size_t q = 0; q < schedule.size(); ++q) {
    const SlicedRun a = RunSliced(&off, spec, schedule[q]);
    runs.push_back(RunSliced(on, spec, schedule[q]));
    testharness::ExpectResultsBitIdentical(a.result, runs.back().result,
                                           "query " + std::to_string(q));
    EXPECT_EQ(a.first_slice_progress, runs.back().first_slice_progress)
        << "query " << q;
  }
  return runs;
}

TEST(BlockingAdoptionTest, ReRenderAdoptsWholeSnapshotInFirstSlice) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("value", 5.0, 95.0));
  SeedableBlockingEngine on(/*reuse=*/true);
  ASSERT_TRUE(on.Prepare(catalog).ok());

  const auto runs = RunOnAndOff(catalog, spec, {1000, 1000}, &on);
  ASSERT_TRUE(runs[0].result.available);
  ASSERT_TRUE(runs[1].result.available);
  EXPECT_EQ(runs[1].result.rows_processed, kRows);
  // The re-render's first slice covers a small share of the scan yet
  // adopted the whole snapshot.
  EXPECT_LT(runs[1].first_slice_progress, 0.2);
  EXPECT_EQ(runs[1].first_slice_served, kRows);
  EXPECT_EQ(on.reuse_cache_stats().equal_hits, 1);
}

TEST(BlockingAdoptionTest, CancelledAdopterLeavesAnExactSnapshot) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("amount", -6.0, 6.0));
  SeedableBlockingEngine on(/*reuse=*/true);
  ASSERT_TRUE(on.Prepare(catalog).ok());

  // 1: cancelled by its deadline after 4 slices (snapshot W1).
  // 2: adopts W1, cancelled after 1 slice: its cursor is behind W1.
  // 3: adopts W1, cancelled after 10 slices, past W1 (snapshot W3).
  // 4: adopts W3 and completes: exact.
  const auto runs = RunOnAndOff(catalog, spec, {4, 1, 10, 1000}, &on);
  EXPECT_FALSE(runs[0].result.available);
  EXPECT_FALSE(runs[1].result.available);
  EXPECT_FALSE(runs[2].result.available);
  ASSERT_TRUE(runs[3].result.available);
  EXPECT_TRUE(runs[3].result.exact);
  EXPECT_EQ(runs[3].result.rows_processed, kRows);

  const int64_t w1 = std::llround(runs[0].result.progress * kRows);
  const int64_t w3 = std::llround(runs[2].result.progress * kRows);
  ASSERT_GT(w1, 0);
  ASSERT_GT(w3, w1);
  EXPECT_EQ(runs[1].first_slice_served, w1);
  EXPECT_EQ(runs[2].first_slice_served, w1);
  EXPECT_EQ(runs[3].first_slice_served, w3);
  EXPECT_EQ(on.reuse_cache_stats().equal_hits, 3);
}

TEST(BlockingAdoptionTest, SnapshotDeeperThanPinnedWatermarkIsNotAdopted) {
  constexpr int64_t kStaged = 500;
  auto catalog = MakeCatalog(kStaged);
  ASSERT_EQ(catalog->fact_table()->visible_rows(), kRows);
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("value", 5.0, 95.0));
  SeedableBlockingEngine on(/*reuse=*/true);
  ASSERT_TRUE(on.Prepare(catalog).ok());
  // A snapshot over the staged rows too: deeper than any query pins.
  on.Seed(spec, kRows + kStaged);

  const auto runs = RunOnAndOff(catalog, spec, {1000}, &on);
  ASSERT_TRUE(runs[0].result.available);
  EXPECT_EQ(runs[0].result.rows_processed, kRows);
  EXPECT_EQ(on.reuse_cache_stats().equal_hits, 1);
  // Served by replay, one slice's worth, never adopted whole.
  EXPECT_GT(runs[0].first_slice_served, 0);
  EXPECT_EQ(runs[0].first_slice_served,
            std::llround(runs[0].first_slice_progress * kRows));
  EXPECT_EQ(on.reuse_cache_stats().rows_served, kRows);
}

}  // namespace
}  // namespace idebench::exec
