#ifndef BENCH_E2E_TRACE_H_
#define BENCH_E2E_TRACE_H_

/// \file trace.h
/// Out-of-process-style measurement for bench_e2e: a span recorder that
/// the benchmark wraps around its own calls into the library, and an
/// `engines::Engine` decorator that times every call the serving layers
/// make into the engine.  Nothing here reaches inside `src/`; every
/// number is taken at a public function boundary.
///
/// Spans are `{trace id, span, parent, layer, name, t_begin, t_end}`.
/// They live in a buffer preallocated before the run (recording is one
/// atomic increment plus two clock reads) and are written out once the
/// run ends.  A span's parent is the innermost span open on the same
/// thread, so a layer's self time is its spans' duration minus the
/// child spans they enclose.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engines/engine.h"

namespace bench_e2e {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// CPU nanoseconds consumed so far by the calling process.
int64_t ProcessCpuNs();

struct Span {
  int64_t trace_id = 0;
  int32_t parent = -1;
  const char* layer = "";
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Per (layer, name) totals of closed spans.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// The process-wide span buffer.  Begin/End are thread-safe; readers
/// (Totals, WriteCsv) run after every recording thread has joined.
class Tracer {
 public:
  explicit Tracer(size_t capacity);

  /// Opens a span under the calling thread's innermost open span;
  /// returns its id, or -1 when the buffer is full (counted as dropped).
  int Begin(const char* layer, const char* name, int64_t trace_id);
  void End(int id);

  /// Totals keyed by "layer.name", plus self time per layer keyed by
  /// the bare layer name.
  std::map<std::string, SpanTotals> Totals() const;
  std::map<std::string, int64_t> SelfNsByLayer() const;

  /// Spans recorded so far, and spans refused because the buffer was full.
  int64_t recorded() const;
  int64_t dropped() const { return dropped_.load(); }

  /// Writes every recorded span as CSV.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> dropped_{0};
};

/// The active tracer, or null when tracing is off.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// RAII span on the active tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, int64_t trace_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Counters of one engine layer, summed over every engine a run
/// creates; call times are spans.  Written by the thread driving the
/// engine and read after it has joined.
struct EngineCounters {
  int64_t run_for_calls = 0;
  int64_t virtual_us = 0;  // virtual time RunFor reported consumed
  int64_t poll_calls = 0;
  /// Per query, wall ns from Submit to the first PollResult with an
  /// available answer, and from Submit to Cancel (the session layer's
  /// terminal call).
  std::vector<int64_t> first_ns;
  std::vector<int64_t> final_ns;
};

/// Forwards every virtual call to the wrapped engine.  It counts calls,
/// takes the per-query latency stamps (Submit, first available poll,
/// Cancel), and, while a tracer is active, records a span around each
/// `Submit`, `RunFor`, `PollResult` and `Cancel`.
class EngineTap : public idebench::engines::Engine {
 public:
  EngineTap(std::unique_ptr<idebench::engines::Engine> inner,
            EngineCounters* counters, int64_t ordinal);

  const std::string& name() const override { return inner_->name(); }
  idebench::Result<idebench::Micros> Prepare(
      std::shared_ptr<const idebench::storage::Catalog> catalog) override {
    return inner_->Prepare(std::move(catalog));
  }
  idebench::Result<idebench::engines::QueryHandle> Submit(
      const idebench::query::QuerySpec& spec) override;
  idebench::Micros RunFor(idebench::engines::QueryHandle handle,
                          idebench::Micros budget) override;
  bool IsDone(idebench::engines::QueryHandle handle) const override {
    return inner_->IsDone(handle);
  }
  idebench::Result<idebench::query::QueryResult> PollResult(
      idebench::engines::QueryHandle handle) override;
  void Cancel(idebench::engines::QueryHandle handle) override;
  void LinkVizs(const std::string& from, const std::string& to) override {
    inner_->LinkVizs(from, to);
  }
  void DiscardViz(const std::string& viz) override { inner_->DiscardViz(viz); }
  void OnThink(idebench::Micros duration) override { inner_->OnThink(duration); }
  void WorkflowStart() override { inner_->WorkflowStart(); }
  void WorkflowEnd() override { inner_->WorkflowEnd(); }
  idebench::metrics::ReuseCacheStats reuse_cache_stats() const override {
    return inner_->reuse_cache_stats();
  }

 private:
  struct Stamps {
    int64_t submit_ns = 0;
    int64_t first_ns = -1;
  };

  int64_t TraceId(idebench::engines::QueryHandle handle) const {
    return (ordinal_ << 32) | handle;
  }

  std::unique_ptr<idebench::engines::Engine> inner_;
  EngineCounters* counters_;
  int64_t ordinal_;
  std::unordered_map<idebench::engines::QueryHandle, Stamps> stamps_;
};

}  // namespace bench_e2e

#endif  // BENCH_E2E_TRACE_H_
