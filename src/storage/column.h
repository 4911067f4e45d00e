#ifndef IDEBENCH_STORAGE_COLUMN_H_
#define IDEBENCH_STORAGE_COLUMN_H_

/// \file column.h
/// A single in-memory column: contiguous typed storage plus (for strings)
/// a dictionary.  Columns expose a uniform numeric view used by binning
/// and aggregation: string columns surface their dictionary codes.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/types.h"

namespace idebench::storage {

/// Rows covered by one zone-map entry.  Matches the morsel size of the
/// parallel execution layer (exec/parallel.h), so a full-scan morsel is
/// covered by exactly one zone entry and can be skipped wholesale when
/// the entry's range provably cannot satisfy a query's predicates.
inline constexpr int64_t kZoneMapBlockRows = 64 * 1024;

/// Min/max (numeric view) plus NaN count over one block of
/// `kZoneMapBlockRows` consecutive rows.  Bounds cover the block's
/// *finite* values only — NaN appends bump `nan_count` and never touch
/// them (a NaN-first block must not poison the bounds for later finite
/// rows, or pruning would drop their matches).  A block with no finite
/// values keeps the `min > max` sentinels; every range test on it fails,
/// which pruning soundly reads as "no possible match" (NaN rows match no
/// predicate and bin to no key).
struct ZoneEntry {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  // The storage layer's "null" analog.  No prune check consults it yet
  // (NaN rows can never match, so min/max alone are sound); it is
  // maintained now so future NaN-aware consumers (e.g. COUNT(col)
  // block-level answers, data-quality reports) get full maps without a
  // rescan, and so tests can pin the NaN-vs-bounds invariant directly.
  int64_t nan_count = 0;
};

/// Dictionary for string columns: code <-> string, insertion-ordered.
class Dictionary {
 public:
  /// Returns the code for `value`, inserting it if new.
  int64_t GetOrInsert(const std::string& value);

  /// Returns the code for `value` or -1 when absent.
  int64_t Lookup(const std::string& value) const;

  /// Returns the string for `code`; requires a valid code.
  const std::string& At(int64_t code) const;

  /// Number of distinct values.
  int64_t size() const { return static_cast<int64_t>(values_.size()); }

  /// All distinct values in code order.
  const std::vector<std::string>& values() const { return values_; }

 private:
  std::vector<std::string> values_;
  std::unordered_map<std::string, int64_t> index_;
};

/// An append-only typed column.
class Column {
 public:
  /// Creates an empty column of the given type.
  explicit Column(Field field);

  const Field& field() const { return field_; }
  DataType type() const { return field_.type; }
  const std::string& name() const { return field_.name; }

  /// Number of rows.
  int64_t size() const;

  // --- Appending (type must match) -----------------------------------

  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(const std::string& v);

  /// Appends a value parsed from text according to the column type.
  Status AppendParsed(const std::string& text);

  /// Appends row `row` of `other` (same type required).
  void AppendFrom(const Column& other, int64_t row);

  /// Appends `n` zero rows in bulk: value 0 for int64, 0.0 for double,
  /// dictionary code 0 for strings (the dictionary must be non-empty).
  /// Stats and zone map end up bit-identical to `n` single appends, but
  /// the fold runs once per zone block instead of once per row.
  void AppendPlaceholderZeros(int64_t n);

  /// Reserves capacity for `n` rows.
  void Reserve(int64_t n);

  // --- Reading --------------------------------------------------------

  /// Numeric view of row `i`: raw value for int64/double, dictionary code
  /// for strings.  This is the access path used by all operators.
  double ValueAsDouble(int64_t i) const;

  /// Integer view of row `i` (truncates doubles; code for strings).
  int64_t ValueAsInt(int64_t i) const;

  /// Renders row `i` as text (dictionary-decoded for strings).
  std::string ValueAsString(int64_t i) const;

  /// Raw typed storage (requires matching type).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int64_t>& codes() const { return ints_; }

  /// Contiguous typed accessors for vectorized kernels.  `Int64Data()` is
  /// the raw array for int64 columns and the dictionary-code array for
  /// string columns; `DoubleData()` is the raw array for double columns.
  /// Pointers are invalidated by appends.
  const int64_t* Int64Data() const { return ints_.data(); }
  const double* DoubleData() const { return doubles_.data(); }

  const Dictionary& dictionary() const { return dict_; }
  Dictionary& mutable_dictionary() { return dict_; }

  /// Appends a pre-encoded dictionary code (string columns only; the code
  /// must already exist in the dictionary).
  void AppendCode(int64_t code);

  /// Minimum/maximum over the numeric view; zero for empty columns.
  /// Maintained incrementally on append (O(1) reads, no re-scan); const
  /// reads never mutate state, so they are safe to share across threads.
  double Min() const { return size() == 0 ? 0.0 : cached_min_; }
  double Max() const { return size() == 0 ? 0.0 : cached_max_; }

  // --- Epoch-published stats (streaming ingest) ----------------------
  //
  // Under streaming ingest (Table::BeginIngest), rows staged in the open
  // epoch must not leak into the stats a query planner consults: a reader
  // holding an old watermark would otherwise observe min/max bounds — and
  // dictionary entries — that include rows it cannot see, changing bin
  // layouts relative to a run against the table frozen at that watermark.
  // `PublishStats` snapshots the live stats at an epoch-publish boundary;
  // the `Visible*` accessors serve the last published snapshot, falling
  // back to the live values on tables that never entered ingest mode.

  /// Snapshots live min/max and dictionary size as the published-visible
  /// stats.  Called by `Table::BeginIngest`/`Table::PublishEpoch` only.
  void PublishStats() {
    visible_min_ = Min();
    visible_max_ = Max();
    visible_dict_size_ = dict_.size();
    stats_published_ = true;
  }

  /// Min/max/dictionary size as of the last published epoch; identical to
  /// the live values when stats were never published (no ingest).
  double VisibleMin() const { return stats_published_ ? visible_min_ : Min(); }
  double VisibleMax() const { return stats_published_ ? visible_max_ : Max(); }
  int64_t VisibleDictSize() const {
    return stats_published_ ? visible_dict_size_ : dict_.size();
  }

  /// Per-block zone map over the numeric view: entry `b` covers rows
  /// [b * kZoneMapBlockRows, (b+1) * kZoneMapBlockRows).  Maintained on
  /// *every* append path — including the pre-encoded-dictionary
  /// `AppendCode` path — through the single `UpdateStats` funnel, so the
  /// map can never go stale relative to the data.  Like Min/Max, const
  /// reads never mutate state and are safe to share across threads once
  /// appends have stopped.
  const std::vector<ZoneEntry>& zone_map() const { return zones_; }

 private:
  /// Folds one appended numeric-view value into the whole-column min/max
  /// cache *and* the current zone-map block (same std::min/std::max fold
  /// the old full scans performed, so cached values are identical —
  /// including NaN-ignoring semantics).  Every Append* entry point must
  /// route through here, exactly once per appended row.
  void UpdateStats(double v) {
    if (size() == 1) {
      cached_min_ = v;
      cached_max_ = v;
    } else {
      cached_min_ = std::min(cached_min_, v);
      cached_max_ = std::max(cached_max_, v);
    }
    const int64_t row = size() - 1;  // the row just appended
    if (row % kZoneMapBlockRows == 0) zones_.emplace_back();
    ZoneEntry& z = zones_.back();
    if (v == v) {
      z.min = std::min(z.min, v);
      z.max = std::max(z.max, v);
    } else {
      ++z.nan_count;
    }
  }

  Field field_;
  std::vector<int64_t> ints_;     // int64 values or dictionary codes
  std::vector<double> doubles_;   // double values
  Dictionary dict_;               // string columns only
  double cached_min_ = 0.0;
  double cached_max_ = 0.0;
  std::vector<ZoneEntry> zones_;  // one entry per kZoneMapBlockRows rows
  bool stats_published_ = false;  // ever snapshotted by an epoch publish?
  double visible_min_ = 0.0;      // stats as of the last published epoch
  double visible_max_ = 0.0;
  int64_t visible_dict_size_ = 0;
};

}  // namespace idebench::storage

#endif  // IDEBENCH_STORAGE_COLUMN_H_
