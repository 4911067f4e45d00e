/// \file reuse_cache_test.cc
/// Unit tests of the cross-interaction reuse cache: signature and
/// subsumption matching, snapshot serve/replay bit-exactness (including
/// against the morsel-parallel path), match recording through partial
/// merges, and per-viz LRU eviction.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
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
std::shared_ptr<storage::Catalog> MakeCatalog() {
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
  for (int64_t i = 0; i < kRows; ++i) {
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

ReuseCache::Binder BinderFor(const std::shared_ptr<storage::Catalog>& catalog) {
  return [catalog](const QuerySpec& spec) {
    return BoundQuery::Bind(spec, *catalog);
  };
}

BinnedAggregatorOptions Recording() {
  BinnedAggregatorOptions options;
  options.record_matches = true;
  return options;
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
  cache.Store(base, agg, BinderFor(catalog));
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
  cache.Store(spec, agg, BinderFor(catalog));

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
  cache.Store(stored, agg, BinderFor(catalog));

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
  cache.Store(grown, shallow, BinderFor(catalog));
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
  cache.Store(spec, deep, BinderFor(catalog));
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2000);

  // A shallower snapshot of the same signature must not replace it.
  BinnedAggregator shallow(&*bound, Recording());
  shallow.ProcessRange(0, 500);
  cache.Store(spec, shallow, BinderFor(catalog));
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2000);

  // A deeper one does.
  BinnedAggregator deeper(&*bound, Recording());
  deeper.ProcessRange(0, 2500);
  cache.Store(spec, deeper, BinderFor(catalog));
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2500);

  // Aggregators without a recorder are not cacheable.
  ReuseCache fresh;
  BinnedAggregator unrecorded(&*bound);
  unrecorded.ProcessRange(0, 100);
  fresh.Store(spec, unrecorded, BinderFor(catalog));
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
  cache.Store(base, source, BinderFor(catalog));
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
    ASSERT_EQ(served.matched_rows().size(), direct.matched_rows().size());
    for (size_t i = 0; i < served.matched_rows().size(); ++i) {
      EXPECT_EQ(served.matched_rows()[i].pos, direct.matched_rows()[i].pos);
      EXPECT_EQ(served.matched_rows()[i].row, direct.matched_rows()[i].row);
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
  cache.Store(spec, source, BinderFor(catalog));
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
    ASSERT_EQ(served.matched_rows().size(), direct.matched_rows().size());
    for (size_t i = 0; i < served.matched_rows().size(); ++i) {
      EXPECT_EQ(served.matched_rows()[i].pos, direct.matched_rows()[i].pos);
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
  cache.Store(spec, source, BinderFor(catalog));

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
  cache.Store(spec, agg, BinderFor(catalog));
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
    cache.Store(spec, agg, BinderFor(catalog));
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
    cache.Store(spec, agg, BinderFor(catalog));
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
    cache.Store(spec, agg, BinderFor(catalog));
  };
  store_for("viz_a");
  {
    QuerySpec other = BaseSpec(*catalog, "viz_b");
    other.filter.And(Range("value", 1.0, 99.0));
    auto bound = BoundQuery::Bind(other, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.ProcessRange(0, 100);
    cache.Store(other, agg, BinderFor(catalog));
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
  cache.Store(spec, agg, BinderFor(catalog));
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

}  // namespace
}  // namespace idebench::exec
