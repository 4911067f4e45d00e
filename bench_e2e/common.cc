#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "workflow/resolve.h"

namespace bench_e2e {

void Check(const idebench::Status& status, const char* what) {
  if (status.ok()) return;
  std::cerr << "bench_e2e: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

int64_t TrimToQueries(const idebench::storage::Catalog& catalog,
                      int64_t max_queries,
                      idebench::workflow::Workflow* workflow) {
  int64_t queries = 0;
  size_t keep = 0;
  Check(idebench::workflow::ForEachInteraction(
            catalog, *workflow,
            [&](const idebench::workflow::Interaction&, int64_t id,
                std::vector<idebench::query::QuerySpec>& specs) {
              if (queries < max_queries) {
                queries += static_cast<int64_t>(specs.size());
                keep = static_cast<size_t>(id) + 1;
              }
              return idebench::Status::OK();
            }),
        "workflow dry run");
  workflow->interactions.resize(keep);
  return queries;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5));
  return values[rank];
}

void HashInto(const std::string& bytes, uint64_t* hash) {
  for (const char c : bytes) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 1099511628211ULL;
  }
}

std::string HexDigest(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

void ReportTrace(const Tracer& tracer, const EngineCounters& counters,
                 double reps, const std::string& path, RunOutput* out) {
  if (reps <= 0) return;
  auto& v = out->values;
  for (const auto& [key, t] : tracer.Totals()) {
    v[key + "_s"] = static_cast<double>(t.total_ns) * 1e-9 / reps;
  }
  for (const auto& [layer, ns] : tracer.SelfNsByLayer()) {
    v["self." + layer + "_s"] = static_cast<double>(ns) * 1e-9 / reps;
  }
  v["engines.run_for_calls"] =
      static_cast<double>(counters.run_for_calls) / reps;
  v["engines.poll_calls"] = static_cast<double>(counters.poll_calls) / reps;
  v["engines.virtual_s"] = static_cast<double>(counters.virtual_us) * 1e-6 / reps;
  v["engines.wall_per_virtual"] =
      counters.virtual_us > 0
          ? v["engines.run_for_s"] * reps * 1e6 /
                static_cast<double>(counters.virtual_us)
          : 0.0;
  out->values["trace.spans"] = static_cast<double>(tracer.recorded());
  out->values["trace.dropped_spans"] = static_cast<double>(tracer.dropped());
  if (!tracer.WriteCsv(path)) {
    std::cerr << "bench_e2e: could not write spans to " << path << "\n";
  }
  out->detail.Set("spans_csv", path);
}

void Accumulate(const EngineCounters& rep, EngineCounters* total) {
  total->run_for_calls += rep.run_for_calls;
  total->virtual_us += rep.virtual_us;
  total->poll_calls += rep.poll_calls;
  total->first_ns.insert(total->first_ns.end(), rep.first_ns.begin(),
                         rep.first_ns.end());
  total->final_ns.insert(total->final_ns.end(), rep.final_ns.begin(),
                         rep.final_ns.end());
}

void HostProbe::Sample(int64_t budget_ns) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1 << 16);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  static volatile uint64_t sink = 0;
  const auto loop = [&] {
    uint64_t lane[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int64_t count = 0;
    for (int i = 0; i < 6000; ++i) {
      for (uint64_t& h : lane) {
        h = (h ^ table[h & 0xffff]) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
        count += (h & 7) < 3 ? 1 : -2;
      }
    }
    sink = sink + lane[0] + lane[7] + static_cast<uint64_t>(count);
  };
  // The untimed first pass brings the table back into cache, so the
  // program's own footprint does not reach the timed loops.
  loop();
  const int64_t end = NowNs() + budget_ns;
  do {
    const int64_t begin = NowNs();
    loop();
    loop_ns_.push_back(static_cast<double>(NowNs() - begin));
  } while (NowNs() < end);
}

double HostProbe::median_ns() const { return Median(loop_ns_); }

void RepSteps::Keep(int64_t wall_ns, int64_t cpu_ns) {
  if (reps_ == 0) {
    wall_ns_.emplace_back();
    cpu_ns_.emplace_back();
  } else if (step_ >= wall_ns_.size()) {
    aligned_ = false;
    return;
  }
  wall_ns_[step_].push_back(static_cast<double>(wall_ns));
  cpu_ns_[step_].push_back(static_cast<double>(cpu_ns));
  ++step_;
}

bool RepSteps::EndRep(const EngineCounters& counters) {
  if (reps_ == 0) {
    first_ns_.resize(counters.first_ns.size());
    final_ns_.resize(counters.final_ns.size());
  }
  if (step_ != wall_ns_.size() ||
      counters.first_ns.size() != first_ns_.size()) {
    aligned_ = false;
  } else {
    for (size_t q = 0; q < first_ns_.size(); ++q) {
      first_ns_[q].push_back(static_cast<double>(counters.first_ns[q]));
      final_ns_[q].push_back(static_cast<double>(counters.final_ns[q]));
    }
  }
  ++reps_;
  step_ = 0;
  return aligned_;
}

namespace {

/// Sum over steps of the median over reps.
double SumOfMedians(const std::vector<std::vector<double>>& per_step) {
  double sum = 0;
  for (const auto& reps : per_step) sum += Median(reps);
  return sum;
}

std::vector<double> MediansMs(const std::vector<std::vector<double>>& per_query,
                              double scale) {
  std::vector<double> ms;
  ms.reserve(per_query.size());
  for (const auto& reps : per_query) ms.push_back(Median(reps) * 1e-6 * scale);
  return ms;
}

}  // namespace

double RepSteps::raw_run_s() const { return SumOfMedians(wall_ns_) * 1e-9; }

void RepSteps::Report(int64_t queries, RunOutput* out) const {
  const double scale = probe_ != nullptr ? probe_->scale() : 1.0;
  const std::vector<double> first = MediansMs(first_ns_, scale);
  const std::vector<double> fin = MediansMs(final_ns_, scale);
  auto& v = out->values;
  v["run_s"] = raw_run_s() * scale;
  v["server_cpu_ms_per_query"] =
      SumOfMedians(cpu_ns_) * 1e-6 * scale / static_cast<double>(queries);
  v["first_update_p50_ms"] = Percentile(first, 0.50);
  v["first_update_p90_ms"] = Percentile(first, 0.90);
  v["final_p50_ms"] = Percentile(fin, 0.50);
  v["final_p90_ms"] = Percentile(fin, 0.90);
  v["bench.latency_samples"] = static_cast<double>(fin.size());
  auto& d = out->detail;
  d.Set("steps_per_rep", static_cast<int64_t>(wall_ns_.size()));
  if (probe_ != nullptr) {
    d.Set("measured_run_s", raw_run_s());
    d.Set("probe_median_ns", probe_->median_ns());
    d.Set("probe_samples", probe_->samples());
    d.Set("host_scale", scale);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace bench_e2e
