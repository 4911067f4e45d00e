/// \file exec_segment_test.cc
/// Packed segment files (storage/segment.h) as query input: a table
/// written with `WriteSegmentFile` and read back with `SegmentFile::Decode`
/// must answer every query bit-identically to the in-memory source table
/// through the engine-facing `ProcessRangeParallel` path, at 1 thread
/// (sequential contract) and 4 threads (morsel contract).  Covers the
/// encodings whose decoders are easiest to get subtly wrong: bit-packed
/// frame-of-reference columns across the 1..32-bit range with a negative
/// base and an unaligned tail, and a segment holding nothing but NaN.

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/parallel.h"
#include "storage/segment.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

AggregateSpec Agg(AggregateType type, const std::string& column = "") {
  AggregateSpec a;
  a.type = type;
  a.column = column;
  return a;
}

std::shared_ptr<storage::Catalog> CatalogOf(storage::Table table) {
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog
                ->AddTable(std::make_shared<storage::Table>(std::move(table)))
                .ok());
  return catalog;
}

/// Writes `source` to a temp segment file and opens it.
storage::SegmentFile PackAndOpen(const storage::Table& source,
                                 const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  IDB_CHECK(storage::WriteSegmentFile(source, path).ok());
  auto opened = storage::SegmentFile::Open(path);
  IDB_CHECK(opened.ok());
  std::remove(path.c_str());  // the mapping stays valid after unlink
  return std::move(opened).MoveValueUnsafe();
}

/// Exact-equality result comparison (bit-identity is the contract).
void ExpectResultsIdentical(const query::QueryResult& a,
                            const query::QueryResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.bins.size(), b.bins.size()) << label;
  for (const auto& [key, bin] : a.bins) {
    auto it = b.bins.find(key);
    ASSERT_NE(it, b.bins.end()) << label << ": bin " << key << " missing";
    ASSERT_EQ(bin.values.size(), it->second.values.size()) << label;
    for (size_t i = 0; i < bin.values.size(); ++i) {
      EXPECT_EQ(bin.values[i].estimate, it->second.values[i].estimate)
          << label << ": estimate, bin " << key << " agg " << i;
      EXPECT_EQ(bin.values[i].margin, it->second.values[i].margin)
          << label << ": margin, bin " << key << " agg " << i;
    }
  }
}

/// `spec` (bins resolved against the source catalog) aggregated over all
/// of `catalog`'s fact rows at `threads`.
struct Run {
  std::unique_ptr<BoundQuery> bound;
  std::unique_ptr<BinnedAggregator> agg;
};

Run Aggregate(const QuerySpec& spec, const storage::Catalog& catalog,
              int threads) {
  Run run;
  auto bound = BoundQuery::Bind(spec, catalog);
  IDB_CHECK(bound.ok());
  run.bound =
      std::make_unique<BoundQuery>(std::move(bound).MoveValueUnsafe());
  run.agg = std::make_unique<BinnedAggregator>(run.bound.get(),
                                               BinnedAggregatorOptions{});
  ProcessRangeParallel(run.agg.get(), 0, run.bound->num_rows(), threads);
  return run;
}

/// The core differential: the decoded segment file vs the source table,
/// at 1 and 4 threads — always bit-identical.
void RunDifferential(const storage::Catalog& source,
                     const storage::SegmentFile& file,
                     const QuerySpec& spec, const std::string& label) {
  auto decoded = file.Decode();
  ASSERT_TRUE(decoded.ok()) << label << ": " << decoded.status();
  const auto packed = CatalogOf(std::move(decoded).MoveValueUnsafe());
  for (const int threads : {1, 4}) {
    const std::string sub = label + ", threads " + std::to_string(threads);
    const Run flat = Aggregate(spec, source, threads);
    const Run scan = Aggregate(spec, *packed, threads);
    EXPECT_EQ(flat.agg->rows_seen(), scan.agg->rows_seen()) << sub;
    EXPECT_EQ(flat.agg->rows_matched(), scan.agg->rows_matched()) << sub;
    ExpectResultsIdentical(flat.agg->ExactResult(),
                           scan.agg->ExactResult(), sub);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- All-NaN segment --------------------------------------------------------

constexpr int64_t kNaNRows = 2 * storage::kSegmentRows + 4321;

/// `tag` strings everywhere; `nanonly` doubles whose middle segment is
/// entirely NaN and finite elsewhere.
std::shared_ptr<storage::Catalog> NaNCatalog() {
  static const std::shared_ptr<storage::Catalog> catalog = [] {
    storage::Schema schema({
        {"tag", storage::DataType::kString,
         storage::AttributeKind::kNominal},
        {"nanonly", storage::DataType::kDouble,
         storage::AttributeKind::kQuantitative},
    });
    storage::Table t("fact", schema);
    Rng rng(101);
    const char* tags[] = {"alpha", "beta", "gamma"};
    for (int64_t i = 0; i < kNaNRows; ++i) {
      t.mutable_column(0).AppendString(tags[rng.UniformInt(0, 2)]);
      const bool mid = i >= storage::kSegmentRows &&
                       i < 2 * storage::kSegmentRows;
      t.mutable_column(1).AppendDouble(
          mid ? std::numeric_limits<double>::quiet_NaN()
              : rng.Uniform(0.0, 10.0));
    }
    return CatalogOf(std::move(t));
  }();
  return catalog;
}

const storage::SegmentFile& NaNFile() {
  static const storage::SegmentFile* file = new storage::SegmentFile(
      PackAndOpen(*NaNCatalog()->fact_table(), "exec_seg_nan.seg"));
  return *file;
}

QuerySpec NaNSpec(const std::string& bin_column, BinningMode mode,
                  std::vector<AggregateSpec> aggs) {
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = bin_column;
  d.mode = mode;
  d.requested_bins = 16;
  spec.bins = {d};
  spec.aggregates = std::move(aggs);
  IDB_CHECK(spec.ResolveBins(*NaNCatalog()).ok());
  return spec;
}

TEST(SegmentScanTest, AllNaNSegmentAggregateInput) {
  const storage::ZoneEntry& zone =
      NaNFile().view(NaNFile().ColumnIndex("nanonly"), 1).zone;
  EXPECT_EQ(zone.nan_count, storage::kSegmentRows);
  EXPECT_GT(zone.min, zone.max);
  QuerySpec spec = NaNSpec("tag", BinningMode::kNominal,
                           {Agg(AggregateType::kCount),
                            Agg(AggregateType::kSum, "nanonly"),
                            Agg(AggregateType::kAvg, "nanonly")});
  RunDifferential(*NaNCatalog(), NaNFile(), spec,
                  "tag x aggs(all-NaN middle segment)");
}

TEST(SegmentScanTest, AllNaNSegmentAsBinColumn) {
  QuerySpec spec = NaNSpec("nanonly", BinningMode::kFixedCount,
                           {Agg(AggregateType::kCount)});
  RunDifferential(*NaNCatalog(), NaNFile(), spec, "nanonly-bins");
}

// --- Bit-packed widths ------------------------------------------------------

/// Packed predicate columns at every decoder strategy's widths — the
/// byte-aligned ones (1, 2, 4, 8), 12, and past a byte multiple (13, 20)
/// — under a range filter, with an RLE bin column, an unaligned tail
/// (rows % 64 != 0) and a negative frame-of-reference base.
TEST(SegmentScanTest, CompressedFilterPackedWidthSweep) {
  for (const int bits : {1, 2, 4, 8, 12, 13, 20}) {
    storage::Schema schema({
        {"b", storage::DataType::kInt64, storage::AttributeKind::kNominal},
        {"p", storage::DataType::kInt64, storage::AttributeKind::kNominal},
    });
    storage::Table t("fact", schema);
    Rng rng(static_cast<uint64_t>(bits) * 31 + 5);
    const int64_t range = (int64_t{1} << bits) - 1;
    const int64_t base = -(range / 2);
    for (int64_t i = 0; i < storage::kSegmentRows + 123; ++i) {
      t.mutable_column(0).AppendInt(i / 2048);  // sorted runs -> RLE
      t.mutable_column(1).AppendInt(base + rng.UniformInt(0, range));
    }
    const auto catalog = CatalogOf(std::move(t));
    const storage::SegmentFile file =
        PackAndOpen(*catalog->fact_table(),
                    "packed_filter_" + std::to_string(bits) + ".seg");
    EXPECT_EQ(file.view(0, 0).encoding, storage::SegmentEncoding::kRle)
        << bits;
    EXPECT_EQ(file.view(1, 0).encoding,
              storage::SegmentEncoding::kBitPacked)
        << bits;

    QuerySpec spec;
    spec.viz_name = "v";
    BinDimension d;
    d.column = "b";
    d.mode = BinningMode::kNominal;
    d.requested_bins = 64;
    spec.bins = {d};
    spec.aggregates = {Agg(AggregateType::kCount),
                       Agg(AggregateType::kSum, "p")};
    expr::Predicate lt;
    lt.column = "p";
    lt.op = expr::CompareOp::kLt;
    lt.value = static_cast<double>(base + (range + 2) / 2);
    spec.filter.And(lt);
    ASSERT_TRUE(spec.ResolveBins(*catalog).ok()) << bits;
    RunDifferential(*catalog, file, spec,
                    "packed filter width " + std::to_string(bits));
    if (HasFatalFailure()) return;
  }
}

/// Frame-of-reference widths across the supported 1..32 bit range with a
/// negative base, binned and summed over the packed column itself.
TEST(SegmentScanTest, BitPackedWidthSweep) {
  for (const int bits : {1, 3, 8, 13, 24, 31, 32}) {
    storage::Schema schema({
        {"v", storage::DataType::kInt64, storage::AttributeKind::kNominal},
    });
    storage::Table t("fact", schema);
    Rng rng(static_cast<uint64_t>(bits) * 7 + 1);
    const int64_t range = (int64_t{1} << bits) - 1;
    const int64_t base = -(range / 3);
    for (int64_t i = 0; i < storage::kSegmentRows + 777; ++i) {
      t.mutable_column(0).AppendInt(base + rng.UniformInt(0, range));
    }
    const auto catalog = CatalogOf(std::move(t));
    const storage::SegmentFile file = PackAndOpen(
        *catalog->fact_table(), "width_" + std::to_string(bits) + ".seg");
    const storage::SegmentView& view = file.view(0, 0);
    EXPECT_EQ(view.encoding, storage::SegmentEncoding::kBitPacked) << bits;
    EXPECT_EQ(view.bits, bits);

    QuerySpec spec;
    spec.viz_name = "v";
    BinDimension d;
    d.column = "v";
    d.mode = BinningMode::kFixedCount;
    d.requested_bins = 16;
    spec.bins = {d};
    spec.aggregates = {Agg(AggregateType::kCount),
                       Agg(AggregateType::kSum, "v")};
    ASSERT_TRUE(spec.ResolveBins(*catalog).ok()) << bits;
    RunDifferential(*catalog, file, spec, "width " + std::to_string(bits));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace idebench::exec
