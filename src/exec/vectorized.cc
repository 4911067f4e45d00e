#include "exec/vectorized.h"

#include <cmath>
#include <limits>

namespace idebench::exec {
namespace {

using expr::CompareOp;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();


/// Physical load path a kernel is specialized on.
enum class Ld { kI64, kF64, kI64Join, kF64Join };

/// Loads the numeric-view value of `row` through access path `L`.
/// Returns false on a join miss (inner-join semantics drop the row).
template <Ld L>
inline bool Load(const ColumnAccess& c, int64_t row, double* v) {
  if constexpr (L == Ld::kI64) {
    *v = static_cast<double>(c.i64[row]);
    return true;
  } else if constexpr (L == Ld::kF64) {
    *v = c.f64[row];
    return true;
  } else {
    const int32_t dim = c.join[row];
    if (dim < 0) return false;
    if constexpr (L == Ld::kI64Join) {
      *v = static_cast<double>(c.i64[dim]);
    } else {
      *v = c.f64[dim];
    }
    return true;
  }
}

/// Predicate test, mirroring expr::Predicate::Matches exactly.  `K` is
/// any kernel struct carrying value/lo/hi/set_begin/set_end.
template <CompareOp Op, typename K>
inline bool Test(const K& k, double v) {
  if constexpr (Op == CompareOp::kEq) return v == k.value;
  if constexpr (Op == CompareOp::kNeq) return v != k.value;
  if constexpr (Op == CompareOp::kLt) return v < k.value;
  if constexpr (Op == CompareOp::kLe) return v <= k.value;
  if constexpr (Op == CompareOp::kGt) return v > k.value;
  if constexpr (Op == CompareOp::kGe) return v >= k.value;
  if constexpr (Op == CompareOp::kRange) return v >= k.lo && v < k.hi;
  if constexpr (Op == CompareOp::kIn) {
    for (const double* s = k.set_begin; s != k.set_end; ++s) {
      if (*s == v) return true;
    }
    return false;
  }
}

/// `First` marks the first filter of the chain: the incoming selection
/// is the identity, so the kernel synthesizes it instead of reading it —
/// the caller skips the selection-vector init pass entirely.
template <CompareOp Op, Ld L, bool First = false>
int64_t FilterImpl(const FilterKernel& k, const int64_t* rows, int32_t* sel,
                   int64_t n_sel) {
  int64_t out = 0;
  for (int64_t i = 0; i < n_sel; ++i) {
    const int32_t s = First ? static_cast<int32_t>(i) : sel[i];
    double v = std::numeric_limits<double>::quiet_NaN();
    const bool loaded = Load<L>(k.col, rows[s], &v);
    // Branchless compaction; NaN fails every predicate (scalar parity).
    const bool pass = loaded & (v == v) & Test<Op>(k, v);
    sel[out] = s;
    out += pass;
  }
  return out;
}

/// SIMD-friendly specialization of the two hottest kernels: the int64 and
/// double *fact-column* range filters.  The generic `FilterImpl` keeps a
/// predicate test inside the gather loop, which blocks vectorization of
/// the comparisons; here the gather is split into its own loop writing a
/// contiguous scratch array, so the compare + branchless compaction loop
/// is a pure vertical operation the compiler can turn into SIMD compares
/// (and, with -march=native, the gather loop into hardware gathers).
/// Semantics are identical to FilterImpl<kRange, L>: NaN never matches
/// ((NaN >= lo) is false), bounds are [lo, hi).
template <Ld L, bool First = false>
int64_t RangeFilterDense(const FilterKernel& k, const int64_t* rows,
                         int32_t* sel, int64_t n_sel) {
  static_assert(L == Ld::kI64 || L == Ld::kF64,
                "join loads keep the generic kernel");
  const double lo = k.lo;
  const double hi = k.hi;
  alignas(64) double vals[kVectorBatchSize];
  if constexpr (L == Ld::kI64) {
    const int64_t* data = k.col.i64;
    for (int64_t i = 0; i < n_sel; ++i) {
      vals[i] = static_cast<double>(data[rows[First ? i : sel[i]]]);
    }
  } else {
    const double* data = k.col.f64;
    for (int64_t i = 0; i < n_sel; ++i) {
      vals[i] = data[rows[First ? i : sel[i]]];
    }
  }
  int64_t out = 0;
  for (int64_t i = 0; i < n_sel; ++i) {
    sel[out] = First ? static_cast<int32_t>(i) : sel[i];
    out += (vals[i] >= lo) & (vals[i] < hi);
  }
  return out;
}

/// SIMD-friendly gather-then-compare *fact-column* equality filter,
/// mirroring `RangeFilterDense`: gather into contiguous scratch, then a
/// pure vertical compare + branchless compaction loop the compiler can
/// turn into SIMD compares.  Semantics are identical to FilterImpl<kEq, L>:
/// NaN never matches ((NaN == v) is false), so the explicit NaN guard of
/// the generic kernel is redundant here.
template <Ld L, bool First = false>
int64_t EqFilterDense(const FilterKernel& k, const int64_t* rows,
                      int32_t* sel, int64_t n_sel) {
  static_assert(L == Ld::kI64 || L == Ld::kF64,
                "join loads keep the generic kernel");
  const double value = k.value;
  alignas(64) double vals[kVectorBatchSize];
  if constexpr (L == Ld::kI64) {
    const int64_t* data = k.col.i64;
    for (int64_t i = 0; i < n_sel; ++i) {
      vals[i] = static_cast<double>(data[rows[First ? i : sel[i]]]);
    }
  } else {
    const double* data = k.col.f64;
    for (int64_t i = 0; i < n_sel; ++i) {
      vals[i] = data[rows[First ? i : sel[i]]];
    }
  }
  int64_t out = 0;
  for (int64_t i = 0; i < n_sel; ++i) {
    sel[out] = First ? static_cast<int32_t>(i) : sel[i];
    out += vals[i] == value;
  }
  return out;
}

/// SIMD-friendly gather-then-compare *fact-column* IN-set filter: gather
/// into contiguous scratch, then one vertical equality sweep per set
/// element OR-ing into a pass mask, then branchless compaction.  Turning the
/// per-row set loop of the generic kernel inside-out makes every inner
/// loop a vertical operation over contiguous arrays.  Semantics are
/// identical to FilterImpl<kIn, L>: NaN matches nothing, an empty set
/// selects nothing, duplicates in the set are harmless.
template <Ld L, bool First = false>
int64_t InFilterDense(const FilterKernel& k, const int64_t* rows,
                      int32_t* sel, int64_t n_sel) {
  static_assert(L == Ld::kI64 || L == Ld::kF64,
                "join loads keep the generic kernel");
  alignas(64) double vals[kVectorBatchSize];
  alignas(64) uint8_t pass[kVectorBatchSize];
  if constexpr (L == Ld::kI64) {
    const int64_t* data = k.col.i64;
    for (int64_t i = 0; i < n_sel; ++i) {
      vals[i] = static_cast<double>(data[rows[First ? i : sel[i]]]);
    }
  } else {
    const double* data = k.col.f64;
    for (int64_t i = 0; i < n_sel; ++i) {
      vals[i] = data[rows[First ? i : sel[i]]];
    }
  }
  for (int64_t i = 0; i < n_sel; ++i) pass[i] = 0;
  for (const double* s = k.set_begin; s != k.set_end; ++s) {
    const double v = *s;
    for (int64_t i = 0; i < n_sel; ++i) {
      pass[i] |= static_cast<uint8_t>(vals[i] == v);
    }
  }
  int64_t out = 0;
  for (int64_t i = 0; i < n_sel; ++i) {
    sel[out] = First ? static_cast<int32_t>(i) : sel[i];
    out += pass[i];
  }
  return out;
}

template <CompareOp Op, bool First>
FilterKernel::Fn PickFilterForOp(Ld load) {
  switch (load) {
    case Ld::kI64:
      return &FilterImpl<Op, Ld::kI64, First>;
    case Ld::kF64:
      return &FilterImpl<Op, Ld::kF64, First>;
    case Ld::kI64Join:
      return &FilterImpl<Op, Ld::kI64Join, First>;
    case Ld::kF64Join:
      return &FilterImpl<Op, Ld::kF64Join, First>;
  }
  return nullptr;
}

template <bool First>
FilterKernel::Fn PickFilterImpl(CompareOp op, Ld load) {
  switch (op) {
    case CompareOp::kEq:
      // Fact-column equality takes the gather-then-compare kernel.
      if (load == Ld::kI64) return &EqFilterDense<Ld::kI64, First>;
      if (load == Ld::kF64) return &EqFilterDense<Ld::kF64, First>;
      return PickFilterForOp<CompareOp::kEq, First>(load);
    case CompareOp::kNeq:
      return PickFilterForOp<CompareOp::kNeq, First>(load);
    case CompareOp::kLt:
      return PickFilterForOp<CompareOp::kLt, First>(load);
    case CompareOp::kLe:
      return PickFilterForOp<CompareOp::kLe, First>(load);
    case CompareOp::kGt:
      return PickFilterForOp<CompareOp::kGt, First>(load);
    case CompareOp::kGe:
      return PickFilterForOp<CompareOp::kGe, First>(load);
    case CompareOp::kRange:
      // Fact-column range filters take the gather-then-compare kernel.
      if (load == Ld::kI64) return &RangeFilterDense<Ld::kI64, First>;
      if (load == Ld::kF64) return &RangeFilterDense<Ld::kF64, First>;
      return PickFilterForOp<CompareOp::kRange, First>(load);
    case CompareOp::kIn:
      // Fact-column IN-sets take the gather-then-compare kernel.
      if (load == Ld::kI64) return &InFilterDense<Ld::kI64, First>;
      if (load == Ld::kF64) return &InFilterDense<Ld::kF64, First>;
      return PickFilterForOp<CompareOp::kIn, First>(load);
  }
  return nullptr;
}

FilterKernel::Fn PickFilter(CompareOp op, Ld load, bool first) {
  return first ? PickFilterImpl<true>(op, load)
               : PickFilterImpl<false>(op, load);
}

template <Ld L>
void AggImpl(const AggKernel& k, const int64_t* rows, const int32_t* sel,
             int64_t n_sel, double* out) {
  for (int64_t i = 0; i < n_sel; ++i) {
    double v;
    out[i] = Load<L>(k.col, rows[sel[i]], &v)
                 ? v
                 : std::numeric_limits<double>::quiet_NaN();
  }
}

AggKernel::Fn PickAgg(Ld load) {
  switch (load) {
    case Ld::kI64:
      return &AggImpl<Ld::kI64>;
    case Ld::kF64:
      return &AggImpl<Ld::kF64>;
    case Ld::kI64Join:
      return &AggImpl<Ld::kI64Join>;
    case Ld::kF64Join:
      return &AggImpl<Ld::kF64Join>;
  }
  return nullptr;
}

/// Resolves the access path of `binding`; returns false when it cannot be
/// vectorized.
bool CompileAccess(const ColumnBinding& binding, ColumnAccess* access,
                   Ld* load) {
  if (binding.column == nullptr) return false;
  const bool is_double =
      binding.column->type() == storage::DataType::kDouble;
  if (is_double) {
    access->f64 = binding.column->DoubleData();
  } else {
    access->i64 = binding.column->Int64Data();
  }
  if (binding.join != nullptr) {
    access->join = binding.join->mapping_data();
    *load = is_double ? Ld::kF64Join : Ld::kI64Join;
  } else {
    *load = is_double ? Ld::kF64 : Ld::kI64;
  }
  return true;
}

bool SameAccess(const ColumnAccess& a, const ColumnAccess& b) {
  return a.i64 == b.i64 && a.f64 == b.f64 && a.join == b.join;
}

// --- Fused bin kernels -----------------------------------------------------

/// Fused quantitative bin keys: a gather phase loads each selected row's
/// value once into the contiguous lane `out_vals` (NaN sentinel on join
/// miss), then a *vertical* key phase evaluates the scalar path's
/// floor-division.  The range check moves onto the quotient itself —
/// `t >= 0` iff `floor(t) >= 0`, and (bin_count being an exactly
/// representable integer) `t < bin_count` iff `floor(t) < bin_count` —
/// after which truncation *is* floor (t is non-negative), so the key
/// phase is two compares, one select in the double domain (the cast is
/// always of a value in [-1, bin_count) — never UB) and one truncating
/// cast: no libm floor call, no per-row branch, fully vectorizable.
/// `UseInv` replaces the division with an exact reciprocal multiply,
/// chosen at compile time only when width is a power of two, where
/// `v * (1/width)` rounds identically to `v / width` for every v.
template <Ld L, bool UseInv>
void FusedBinQuantImpl(const BinKernel& k, const int64_t* rows,
                       const int32_t* sel, int64_t n_sel, int64_t* out,
                       double* out_vals) {
  if constexpr (L == Ld::kI64) {
    const int64_t* data = k.col.i64;
    for (int64_t i = 0; i < n_sel; ++i) {
      out_vals[i] = static_cast<double>(data[rows[sel[i]]]);
    }
  } else if constexpr (L == Ld::kF64) {
    const double* data = k.col.f64;
    for (int64_t i = 0; i < n_sel; ++i) out_vals[i] = data[rows[sel[i]]];
  } else {
    for (int64_t i = 0; i < n_sel; ++i) {
      double v;
      out_vals[i] = Load<L>(k.col, rows[sel[i]], &v) ? v : kNaN;
    }
  }
  const double lo = k.lo;
  const double width = k.width;
  const double inv = k.inv_width;
  const double dbc = static_cast<double>(k.bin_count);
#if defined(__AVX512DQ__)
  // vcvttpd2qq converts packed double -> int64 directly; no staging.
  for (int64_t i = 0; i < n_sel; ++i) {
    const double t =
        UseInv ? (out_vals[i] - lo) * inv : (out_vals[i] - lo) / width;
    // NaN fails both compares -> -1, matching the scalar NaN/miss path.
    const double ts = (t >= 0.0) & (t < dbc) ? t : -1.0;
    out[i] = static_cast<int64_t>(ts);
  }
#else
  // Staging through int32 lets the cast vectorize (cvttpd2dq exists from
  // SSE2 on; packed double->int64 needs AVX-512).  Bin indices are far
  // below 2^21 (`query::kBinKeyStride`), so the narrow cast is lossless.
  alignas(64) int32_t stage[kVectorBatchSize];
  for (int64_t i = 0; i < n_sel; ++i) {
    const double t =
        UseInv ? (out_vals[i] - lo) * inv : (out_vals[i] - lo) / width;
    // NaN fails both compares -> -1, matching the scalar NaN/miss path.
    const double ts = (t >= 0.0) & (t < dbc) ? t : -1.0;
    stage[i] = static_cast<int32_t>(ts);
  }
  for (int64_t i = 0; i < n_sel; ++i) out[i] = stage[i];
#endif
}

/// Fused nominal (truncation) bin keys: same gather phase, then a
/// vertical key phase whose truncating cast *is* the scalar path's
/// `(int64_t)(v - lo)`.  Guarding with `d > -1` (not `d >= 0`)
/// reproduces its boundary behavior exactly — v - lo in (-1, 0)
/// truncates to bin 0.
template <Ld L>
void FusedBinNominalImpl(const BinKernel& k, const int64_t* rows,
                         const int32_t* sel, int64_t n_sel, int64_t* out,
                         double* out_vals) {
  if constexpr (L == Ld::kI64) {
    const int64_t* data = k.col.i64;
    for (int64_t i = 0; i < n_sel; ++i) {
      out_vals[i] = static_cast<double>(data[rows[sel[i]]]);
    }
  } else if constexpr (L == Ld::kF64) {
    const double* data = k.col.f64;
    for (int64_t i = 0; i < n_sel; ++i) out_vals[i] = data[rows[sel[i]]];
  } else {
    for (int64_t i = 0; i < n_sel; ++i) {
      double v;
      out_vals[i] = Load<L>(k.col, rows[sel[i]], &v) ? v : kNaN;
    }
  }
  const double lo = k.lo;
  const double dbc = static_cast<double>(k.bin_count);
#if defined(__AVX512DQ__)
  for (int64_t i = 0; i < n_sel; ++i) {
    const double d = out_vals[i] - lo;
    const double ds = (d > -1.0) & (d < dbc) ? d : -1.0;
    out[i] = static_cast<int64_t>(ds);
  }
#else
  alignas(64) int32_t stage[kVectorBatchSize];
  for (int64_t i = 0; i < n_sel; ++i) {
    const double d = out_vals[i] - lo;
    const double ds = (d > -1.0) & (d < dbc) ? d : -1.0;
    stage[i] = static_cast<int32_t>(ds);
  }
  for (int64_t i = 0; i < n_sel; ++i) out[i] = stage[i];
#endif
}

/// Pre-binned dictionary dimension, *direct* form (no aggregate shares
/// the column, so the double value lane is not needed): per-row string
/// binning is one int gather through the compile-time code -> bin LUT.
/// Codes are dense in [0, dict size), so the LUT load can never go out
/// of bounds.
void FusedBinLutDirect(const BinKernel& k, const int64_t* rows,
                       const int32_t* sel, int64_t n_sel, int64_t* out,
                       double* /*out_vals*/) {
  const int64_t* codes = k.col.i64;
  const int32_t* lut = k.lut;
  for (int64_t i = 0; i < n_sel; ++i) out[i] = lut[codes[rows[sel[i]]]];
}

void FusedBinLutDirectJoin(const BinKernel& k, const int64_t* rows,
                           const int32_t* sel, int64_t n_sel, int64_t* out,
                           double* /*out_vals*/) {
  const int64_t* codes = k.col.i64;
  const int32_t* join = k.col.join;
  const int32_t* lut = k.lut;
  for (int64_t i = 0; i < n_sel; ++i) {
    const int32_t dim = join[rows[sel[i]]];
    out[i] = dim < 0 ? -1 : lut[codes[dim]];
  }
}

/// Pre-binned dictionary dimension, value-lane form (an aggregate reads
/// the same column): gathers the code lane like the numeric kernels,
/// then LUT-binned through an exact double -> int64 round trip (every
/// representable dictionary code survives it bit-exactly).
template <Ld L>
void FusedBinLutValsImpl(const BinKernel& k, const int64_t* rows,
                         const int32_t* sel, int64_t n_sel, int64_t* out,
                         double* out_vals) {
  if constexpr (L == Ld::kI64) {
    const int64_t* data = k.col.i64;
    for (int64_t i = 0; i < n_sel; ++i) {
      out_vals[i] = static_cast<double>(data[rows[sel[i]]]);
    }
  } else {
    for (int64_t i = 0; i < n_sel; ++i) {
      double v;
      out_vals[i] = Load<L>(k.col, rows[sel[i]], &v) ? v : kNaN;
    }
  }
  const int32_t* lut = k.lut;
  for (int64_t i = 0; i < n_sel; ++i) {
    const double v = out_vals[i];
    out[i] = (v == v) ? lut[static_cast<int64_t>(v)] : -1;
  }
}

template <Ld L>
BinKernel::Fn PickFusedQuant(bool use_inv) {
  return use_inv ? &FusedBinQuantImpl<L, true> : &FusedBinQuantImpl<L, false>;
}

/// True when 1/width is exactly representable, i.e. multiplying by the
/// reciprocal rounds identically to dividing (width a power of two).
bool ExactReciprocal(double width) {
  if (!(width > 0.0) || !std::isfinite(width)) return false;
  int exp = 0;
  const double mant = std::frexp(width, &exp);
  const double inv = 1.0 / width;
  return mant == 0.5 && std::isfinite(inv);
}

}  // namespace

void VectorizedQuery::CompileFused(const BoundQuery& query) {
  const query::QuerySpec& spec = query.spec();
  for (size_t d = 0; d < spec.bins.size(); ++d) {
    const query::BinDimension& dim = spec.bins[d];
    const ColumnBinding& binding = query.bin_bindings()[d];
    const bool is_string =
        binding.column->type() == storage::DataType::kString;
    const bool is_double =
        binding.column->type() == storage::DataType::kDouble;
    const bool joined = binding.join != nullptr;
    BinKernel& b = bin_kernels_[d];  // access path + params set by Compile

    if (is_string && dim.mode == query::BinningMode::kNominal) {
      // Pre-bin every dictionary code once at compile time.  Codes
      // outside the resolved bin range (values that joined the
      // dictionary after the bin config froze, or a refined lo) map to
      // -1 like any out-of-range value.
      const storage::Dictionary& dict = binding.column->dictionary();
      auto lut = std::make_shared<std::vector<int32_t>>(
          static_cast<size_t>(dict.size()), -1);
      for (int64_t c = 0; c < dict.size(); ++c) {
        const int64_t idx =
            static_cast<int64_t>(static_cast<double>(c) - b.lo);
        (*lut)[static_cast<size_t>(c)] =
            (idx >= 0 && idx < b.bin_count) ? static_cast<int32_t>(idx) : -1;
      }
      b.lut = lut->data();
      b.lut_owner = std::move(lut);
      bool shared = false;
      for (size_t a = 0; a < agg_shared_dim_.size(); ++a) {
        if (agg_shared_dim_[a] == static_cast<int8_t>(d)) shared = true;
      }
      if (shared) {
        b.fn = joined ? &FusedBinLutValsImpl<Ld::kI64Join>
                      : &FusedBinLutValsImpl<Ld::kI64>;
      } else {
        b.fn = joined ? &FusedBinLutDirectJoin : &FusedBinLutDirect;
      }
    } else if (dim.mode == query::BinningMode::kNominal) {
      if (joined) {
        b.fn = is_double ? &FusedBinNominalImpl<Ld::kF64Join>
                         : &FusedBinNominalImpl<Ld::kI64Join>;
      } else {
        b.fn = is_double ? &FusedBinNominalImpl<Ld::kF64>
                         : &FusedBinNominalImpl<Ld::kI64>;
      }
    } else {
      const bool use_inv = ExactReciprocal(b.width);
      if (use_inv) b.inv_width = 1.0 / b.width;
      if (joined) {
        b.fn = is_double ? PickFusedQuant<Ld::kF64Join>(use_inv)
                         : PickFusedQuant<Ld::kI64Join>(use_inv);
      } else {
        b.fn = is_double ? PickFusedQuant<Ld::kF64>(use_inv)
                         : PickFusedQuant<Ld::kI64>(use_inv);
      }
    }
  }
}

void VectorizedQuery::CompilePrune(const BoundQuery& query) {
  const query::QuerySpec& spec = query.spec();
  // Only fact columns prune: a block of fact rows says nothing about the
  // dimension-table values reached through its join column.
  const auto& predicates = spec.filter.predicates();
  for (size_t p = 0; p < predicates.size(); ++p) {
    const ColumnBinding& binding = query.filter_bindings()[p];
    if (binding.join != nullptr) continue;
    PruneCheck c;
    c.kind = PruneCheck::Kind::kCompare;
    c.op = predicates[p].op;
    c.col = binding.column;
    c.value = filters_[p].value;
    c.lo = filters_[p].lo;
    c.hi = filters_[p].hi;
    c.set_begin = filters_[p].set_begin;
    c.set_end = filters_[p].set_end;
    prune_checks_.push_back(c);
  }
  for (size_t d = 0; d < spec.bins.size(); ++d) {
    const ColumnBinding& binding = query.bin_bindings()[d];
    if (binding.join != nullptr) continue;
    const query::BinDimension& dim = spec.bins[d];
    PruneCheck c;
    c.col = binding.column;
    c.lo = bin_kernels_[d].lo;
    c.bin_count = bin_kernels_[d].bin_count;
    if (dim.mode == query::BinningMode::kNominal) {
      c.kind = PruneCheck::Kind::kBinNominal;
    } else {
      if (!(bin_kernels_[d].width > 0.0)) continue;
      c.kind = PruneCheck::Kind::kBinQuant;
      c.width = bin_kernels_[d].width;
    }
    prune_checks_.push_back(c);
  }
}

bool VectorizedQuery::PruneCheck::BlockCanMatch(
    const storage::ZoneEntry& z) const {
  // All tests are written so that a block with no finite values
  // (min = +inf > max = -inf) is excluded — its rows are all NaN and NaN
  // rows can never match — and so that NaN operands make the test return
  // "can match" (never prune on garbage).
  switch (kind) {
    case Kind::kCompare:
      switch (op) {
        case expr::CompareOp::kEq:
          return value >= z.min && value <= z.max;
        case expr::CompareOp::kNeq:
          // Excluded only when every finite value in the block equals
          // `value` exactly.
          return z.min < z.max || (z.min == z.max && z.min != value);
        case expr::CompareOp::kLt:
          return z.min < value;
        case expr::CompareOp::kLe:
          return z.min <= value;
        case expr::CompareOp::kGt:
          return z.max > value;
        case expr::CompareOp::kGe:
          return z.max >= value;
        case expr::CompareOp::kRange:
          return z.max >= lo && z.min < hi;
        case expr::CompareOp::kIn:
          for (const double* s = set_begin; s != set_end; ++s) {
            if (*s >= z.min && *s <= z.max) return true;
          }
          return false;  // empty sets match nothing (kernel parity)
      }
      return true;
    case Kind::kBinQuant: {
      // floor((v - lo) / width) is monotone non-decreasing in v (IEEE
      // subtraction and division by a positive constant are monotone, as
      // is floor), so evaluating the *kernel's own expression* at the
      // block bounds brackets every row's bin index — boundary rounding
      // included.
      const double bin_of_max = std::floor((z.max - lo) / width);
      const double bin_of_min = std::floor((z.min - lo) / width);
      return bin_of_max >= 0.0 &&
             bin_of_min < static_cast<double>(bin_count);
    }
    case Kind::kBinNominal: {
      // trunc(v - lo) is likewise monotone; `> -1` mirrors the kernel's
      // post-truncation `idx >= 0` (v - lo in (-1, 0) truncates to 0).
      const double t_max = std::trunc(z.max - lo);
      const double t_min = std::trunc(z.min - lo);
      return t_max > -1.0 && t_min < static_cast<double>(bin_count);
    }
  }
  return true;
}

bool VectorizedQuery::RangeCanMatch(int64_t begin, int64_t end) const {
  if (begin >= end) return true;
  for (const PruneCheck& c : prune_checks_) {
    const std::vector<storage::ZoneEntry>& zones = c.col->zone_map();
    const int64_t b0 = begin / storage::kZoneMapBlockRows;
    const int64_t b1 = (end - 1) / storage::kZoneMapBlockRows;
    bool any_block_matches = false;
    for (int64_t b = b0; b <= b1; ++b) {
      if (b >= static_cast<int64_t>(zones.size()) ||
          c.BlockCanMatch(zones[static_cast<size_t>(b)])) {
        any_block_matches = true;
        break;
      }
    }
    if (!any_block_matches) return false;
  }
  return true;
}

VectorizedQuery VectorizedQuery::Compile(const BoundQuery& query) {
  VectorizedQuery vq;
  const query::QuerySpec& spec = query.spec();
  if (spec.bins.empty() || spec.bins.size() > 2) return vq;

  // Bin-key kernel parameters; CompileFused picks the kernels once the
  // gather dedup below is known.
  for (size_t d = 0; d < spec.bins.size(); ++d) {
    const query::BinDimension& dim = spec.bins[d];
    if (!dim.resolved || dim.bin_count <= 0) return vq;
    BinKernel k;
    Ld load;
    if (!CompileAccess(query.bin_bindings()[d], &k.col, &load)) return vq;
    k.lo = dim.lo;
    k.width = dim.width;
    k.bin_count = dim.bin_count;
    vq.bin_kernels_.push_back(k);
  }
  vq.two_d_ = spec.bins.size() == 2;
  vq.bins1_ = vq.two_d_ ? spec.bins[1].bin_count : 1;
  vq.key_space_ = spec.bins[0].bin_count * vq.bins1_;

  // Filter kernels, one per conjunct.
  const auto& predicates = spec.filter.predicates();
  for (size_t p = 0; p < predicates.size(); ++p) {
    const expr::Predicate& pred = predicates[p];
    FilterKernel k;
    Ld load;
    if (!CompileAccess(query.filter_bindings()[p], &k.col, &load)) return vq;
    k.fn = PickFilter(pred.op, load, /*first=*/p == 0);
    if (k.fn == nullptr) return vq;
    k.value = pred.value;
    k.lo = pred.lo;
    k.hi = pred.hi;
    k.set_begin = pred.set_values.data();
    k.set_end = pred.set_values.data() + pred.set_values.size();
    vq.filters_.push_back(k);
  }

  // Aggregate gather kernels.
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    AggKernel k;
    if (query.agg_bindings()[a].column == nullptr) {
      k.is_count = true;  // COUNT contributes 1 per row
    } else {
      Ld load;
      if (!CompileAccess(query.agg_bindings()[a], &k.col, &load)) return vq;
      k.fn = PickAgg(load);
      if (k.fn == nullptr) return vq;
    }
    vq.agg_kernels_.push_back(k);
  }

  // Gather dedup: aggregates whose input column *is* a binned dimension
  // read the values the bin kernels already loaded.
  vq.agg_shared_dim_.assign(vq.agg_kernels_.size(), -1);
  for (size_t a = 0; a < vq.agg_kernels_.size(); ++a) {
    if (vq.agg_kernels_[a].is_count) continue;
    for (size_t d = 0; d < vq.bin_kernels_.size(); ++d) {
      if (SameAccess(vq.agg_kernels_[a].col, vq.bin_kernels_[d].col)) {
        vq.agg_shared_dim_[a] = static_cast<int8_t>(d);
        if (d == 0) vq.stash_vals0_ = true;
        if (d == 1) vq.stash_vals1_ = true;
        break;
      }
    }
  }

  vq.ok_ = true;
  vq.CompileFused(query);
  vq.CompilePrune(query);
  return vq;
}

int64_t VectorizedQuery::FilterAndBin(RowBatch* batch) const {
  const int64_t n = batch->n;
  int64_t n_sel = n;
  // The first filter kernel synthesizes the identity selection itself;
  // only filter-less queries need the explicit init for the bin kernels.
  if (filters_.empty()) {
    for (int64_t i = 0; i < n; ++i) batch->sel[i] = static_cast<int32_t>(i);
  }
  for (const FilterKernel& k : filters_) {
    if (n_sel == 0) break;
    n_sel = k.fn(k, batch->rows, batch->sel.data(), n_sel);
  }
  if (n_sel == 0) {
    batch->n_sel = 0;
    return 0;
  }

  const BinKernel& b0 = bin_kernels_[0];
  b0.fn(b0, batch->rows, batch->sel.data(), n_sel, batch->keys.data(),
        batch->bin_vals.data());
  if (two_d_) {
    const BinKernel& b1 = bin_kernels_[1];
    b1.fn(b1, batch->rows, batch->sel.data(), n_sel, batch->keys2.data(),
          batch->bin_vals2.data());
  }

  // Drop rows with any out-of-range dimension and pack dense keys
  // (branchless compaction: out <= i, so in-place writes are safe).  The
  // stashed dimension value lanes compact alongside when an aggregate
  // reuses them.
  int64_t out = 0;
  if (!two_d_) {
    for (int64_t i = 0; i < n_sel; ++i) {
      const int64_t i0 = batch->keys[i];
      batch->sel[out] = batch->sel[i];
      batch->keys[out] = i0;
      if (stash_vals0_) batch->bin_vals[out] = batch->bin_vals[i];
      out += i0 >= 0;
    }
  } else {
    for (int64_t i = 0; i < n_sel; ++i) {
      const int64_t i0 = batch->keys[i];
      const int64_t i1 = batch->keys2[i];
      batch->sel[out] = batch->sel[i];
      batch->keys[out] = i0 * bins1_ + i1;
      if (stash_vals0_) batch->bin_vals[out] = batch->bin_vals[i];
      if (stash_vals1_) batch->bin_vals2[out] = batch->bin_vals2[i];
      out += (i0 >= 0) & (i1 >= 0);
    }
  }
  batch->n_sel = out;
  return out;
}

const double* VectorizedQuery::GatherAggValues(size_t a,
                                               RowBatch* batch) const {
  const int8_t shared = agg_shared_dim_[a];
  if (shared == 0) return batch->bin_vals.data();
  if (shared == 1) return batch->bin_vals2.data();
  const AggKernel& k = agg_kernels_[a];
  k.fn(k, batch->rows, batch->sel.data(), batch->n_sel, batch->values.data());
  return batch->values.data();
}

}  // namespace idebench::exec
