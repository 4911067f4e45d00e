#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace bench_e2e {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

/// Ids of the spans the calling thread has open, innermost last.
thread_local std::vector<int> t_open;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Tracer::Tracer(size_t capacity) : spans_(capacity) {}

int Tracer::Begin(const char* layer, const char* name, int64_t trace_id) {
  const int64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= static_cast<int64_t>(spans_.size())) {
    next_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& span = spans_[static_cast<size_t>(slot)];
  span.trace_id = trace_id;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.layer = layer;
  span.name = name;
  span.end_ns = 0;
  const int id = static_cast<int>(slot);
  t_open.push_back(id);
  span.begin_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(id)].end_ns = now;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

int64_t Tracer::recorded() const {
  return std::min<int64_t>(next_.load(), static_cast<int64_t>(spans_.size()));
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  const int64_t n = recorded();
  std::vector<int64_t> child_ns(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    const Span& s = spans_[static_cast<size_t>(i)];
    if (s.parent >= 0 && s.end_ns > 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (int64_t i = 0; i < n; ++i) {
    const Span& s = spans_[static_cast<size_t>(i)];
    if (s.end_ns == 0) continue;  // never closed
    SpanTotals& t = totals[std::string(s.layer) + "." + s.name];
    const int64_t dur = s.end_ns - s.begin_ns;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[static_cast<size_t>(i)];
  }
  return totals;
}

std::map<std::string, int64_t> Tracer::SelfNsByLayer() const {
  std::map<std::string, int64_t> by_layer;
  for (const auto& [key, t] : Totals()) {
    by_layer[key.substr(0, key.find('.'))] += t.self_ns;
  }
  return by_layer;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  out << "trace_id,span,parent,layer,name,t_begin_ns,t_end_ns\n";
  const int64_t n = recorded();
  for (int64_t i = 0; i < n; ++i) {
    const Span& s = spans_[static_cast<size_t>(i)];
    out << s.trace_id << ',' << i << ',' << s.parent << ',' << s.layer << ','
        << s.name << ',' << s.begin_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }

void SetActiveTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

ScopedSpan::ScopedSpan(const char* layer, const char* name, int64_t trace_id)
    : tracer_(ActiveTracer()) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(layer, name, trace_id);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) tracer_->End(id_);
}

// --- EngineTap ---------------------------------------------------------------

EngineTap::EngineTap(std::unique_ptr<idebench::engines::Engine> inner,
                     EngineCounters* counters, int64_t ordinal)
    : inner_(std::move(inner)), counters_(counters), ordinal_(ordinal) {}

idebench::Result<idebench::engines::QueryHandle> EngineTap::Submit(
    const idebench::query::QuerySpec& spec) {
  const int64_t begin = NowNs();
  idebench::Result<idebench::engines::QueryHandle> handle = [&] {
    ScopedSpan span("engines", "submit", TraceId(0));
    return inner_->Submit(spec);
  }();
  if (handle.ok()) stamps_[*handle] = Stamps{begin, -1};
  return handle;
}

idebench::Micros EngineTap::RunFor(idebench::engines::QueryHandle handle,
                                   idebench::Micros budget) {
  ScopedSpan span("engines", "run_for", TraceId(handle));
  ++counters_->run_for_calls;
  const idebench::Micros used = inner_->RunFor(handle, budget);
  counters_->virtual_us += used;
  return used;
}

idebench::Result<idebench::query::QueryResult> EngineTap::PollResult(
    idebench::engines::QueryHandle handle) {
  idebench::Result<idebench::query::QueryResult> result = [&] {
    ScopedSpan span("engines", "poll", TraceId(handle));
    return inner_->PollResult(handle);
  }();
  ++counters_->poll_calls;
  if (result.ok() && result->available) {
    auto it = stamps_.find(handle);
    if (it != stamps_.end() && it->second.first_ns < 0) {
      it->second.first_ns = NowNs();
    }
  }
  return result;
}

void EngineTap::Cancel(idebench::engines::QueryHandle handle) {
  {
    ScopedSpan span("engines", "cancel", TraceId(handle));
    inner_->Cancel(handle);
  }
  auto it = stamps_.find(handle);
  if (it == stamps_.end()) return;
  const int64_t now = NowNs();
  const int64_t first = it->second.first_ns >= 0 ? it->second.first_ns : now;
  counters_->first_ns.push_back(first - it->second.submit_ns);
  counters_->final_ns.push_back(now - it->second.submit_ns);
  stamps_.erase(it);
}

}  // namespace bench_e2e
