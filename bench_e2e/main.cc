/// \file main.cc
/// bench_e2e: end-to-end benchmark of the IDEBench reproduction.
///
/// Usage:
///   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
///             --work-dir DIR --metrics BENCHMARK.json
///             [--git-sha SHA] [--source-digest HEX]
///
/// Workloads: exp1_mixed, serve_stream, ingest_reuse (see README.md in
/// this directory).  The last stdout line is one JSON object
/// {correct, attempted, failed, metrics}: the end-to-end metrics with
/// `--trace 0`, the per-layer metrics with `--trace 1`, as the file
/// given by `--metrics` lists them.  The line before
/// it carries provenance and run detail.  Exit 1 without a result line
/// on bad arguments, a set-up error, or a non-Release build.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace bench_e2e {
namespace {

/// The metric list of one mode, by name and unit, from BENCHMARK.json:
/// "end_to_end" with trace off, "per_layer" with trace on.
idebench::Result<idebench::JsonValue> MetricList(const std::string& path,
                                                 bool trace) {
  std::ifstream in(path);
  if (!in) return idebench::Status::IOError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  auto spec = idebench::JsonValue::Parse(text.str());
  if (!spec.ok()) return spec.status();
  const idebench::JsonValue& list =
      spec->Get(trace ? "per_layer" : "end_to_end");
  if (!list.is_array() || list.size() == 0) {
    return idebench::Status::Invalid(path + " lists no metrics");
  }
  return list;
}

idebench::JsonValue Provenance(const RunOptions& options,
                               const std::string& git_sha,
                               const std::string& source_digest) {
  idebench::JsonValue p = idebench::JsonValue::Object();
  p.Set("workload", options.workload);
  p.Set("seed", options.seed);
  p.Set("seconds", options.seconds);
  p.Set("trace", options.trace);
  p.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  p.Set("build_type", BENCH_E2E_BUILD_TYPE);
  p.Set("compiler", "gcc " __VERSION__);
  p.Set("git_sha", git_sha);
  p.Set("source_digest", source_digest);
  return p;
}

int Usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload exp1_mixed|serve_stream|"
               "ingest_reuse --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--metrics BENCHMARK.json [--git-sha SHA] [--source-digest HEX]\n";
  return 1;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string git_sha = "unknown", source_digest = "unknown", metrics_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--metrics") {
      metrics_path = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!have_seed || options.work_dir.empty() || metrics_path.empty() ||
      options.seconds <= 0) {
    return Usage("--seed, --seconds, --work-dir and --metrics are required");
  }
  if (std::string(BENCH_E2E_BUILD_TYPE) != "Release") {
    std::cerr << "bench_e2e: refusing to report numbers from a "
              << BENCH_E2E_BUILD_TYPE << " build; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 1;
  }
  const idebench::JsonValue metric_list =
      Unwrap(MetricList(metrics_path, options.trace), "metric list");
  std::filesystem::create_directories(options.work_dir);

  RunOutput out;
  if (options.workload == "exp1_mixed") {
    out = RunExp1Mixed(options);
  } else if (options.workload == "serve_stream") {
    out = RunServeStream(options);
  } else if (options.workload == "ingest_reuse") {
    out = RunIngestReuse(options);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  out.values["bench.attempted"] = static_cast<double>(out.attempted);
  out.values["bench.failed"] = static_cast<double>(out.failed);
  out.values["bench.failed_share"] =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0;

  idebench::JsonValue metrics = idebench::JsonValue::Object();
  for (size_t i = 0; i < metric_list.size(); ++i) {
    const std::string name = metric_list.at(i).GetString("name", "");
    auto it = out.values.find(name);
    if (it == out.values.end() && !options.trace) {
      std::cerr << "bench_e2e: workload did not measure " << name << "\n";
      return 1;
    }
    idebench::JsonValue m = idebench::JsonValue::Object();
    m.Set("value", it == out.values.end() ? 0.0 : it->second);
    m.Set("unit", metric_list.at(i).GetString("unit", ""));
    metrics.Set(name, std::move(m));
  }

  idebench::JsonValue gates = idebench::JsonValue::Array();
  for (const std::string& g : out.gate_failures) gates.Append(g);
  idebench::JsonValue info = idebench::JsonValue::Object();
  info.Set("provenance", Provenance(options, git_sha, source_digest));
  info.Set("gate_failures", std::move(gates));
  info.Set("detail", out.detail);
  for (const std::string& g : out.gate_failures) {
    std::cerr << "bench_e2e: GATE FAILED: " << g << "\n";
  }

  idebench::JsonValue result = idebench::JsonValue::Object();
  result.Set("correct", out.gate_failures.empty());
  result.Set("attempted", std::max<int64_t>(out.attempted, 1));
  result.Set("failed", out.failed);
  result.Set("metrics", std::move(metrics));

  std::ofstream(options.work_dir + "/result-" + options.workload + ".json")
      << info.DumpPretty() << "\n"
      << result.DumpPretty() << "\n";
  std::cout << info.Dump() << "\n" << result.Dump() << "\n" << std::flush;
  return 0;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) { return bench_e2e::Main(argc, argv); }
