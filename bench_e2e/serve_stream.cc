/// \file serve_stream.cc
/// Workload `serve_stream`: a wall-paced `net::Server` hosted in process
/// on its own thread, loaded over loopback by open-loop users.
///
/// Server: progressive engine, 1 thread, quantum 50 ms, TR 3 s, over a
/// synthesized seed table (no scaling step).  Load: 4 `net::Client`
/// connections driven from this thread, 4 users each; every user is
/// independent and sends its next mixed-workflow interaction every
/// second whether or not earlier answers arrived, playing a few short
/// workflows in turn, each on a fresh session.  Latencies run
/// from each interaction's *scheduled* send time, so a stalled server or
/// a late generator shows up in them.
///
/// Gates: usable connections and a clean serve loop, exactly one
/// terminal update per admitted query, no protocol errors, every
/// completed final equal to the oracle's exact answer (both through
/// `QueryResultToJson`, compared after the window so the check costs the
/// served latencies nothing), scheduler overshoot 0.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "datagen/flights_seed.h"
#include "driver/ground_truth.h"
#include "engines/registry.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "workflow/generator.h"
#include "workflow/resolve.h"

namespace bench_e2e {

namespace {

using idebench::JsonValue;
using idebench::Micros;

constexpr int64_t kRows = 50'000;
constexpr int64_t kNominalRows = 1'000'000;
constexpr int kConnections = 4;
constexpr int kUsersPerConnection = 4;
constexpr int kUsers = kConnections * kUsersPerConnection;
constexpr int64_t kThinkNs = 1'000'000'000;  // one interaction per second
constexpr Micros kTimeRequirement = 3'000'000;
constexpr Micros kQuantum = 50'000;
/// Ratekeeper band around the peak live-query count of this load
/// (README.md): degradation engages, refusal never does.
constexpr int kSoftLiveLimit = 8;
constexpr int kHardLiveLimit = 64;
/// Workflows each user plays in a window; more, shorter workflows sample
/// more of the generator's mix per seed (at 6 per user, server CPU per
/// query spread 0.2 across seeds; at 12, about 0.05).
constexpr int kWorkflowsPerUser = 12;
/// Set-up takes about 60 ms, so its median needs many samples.
constexpr int kSetups = 15;
/// How long after the last send the run waits for terminal updates.
constexpr int64_t kDrainLimitNs = 10'000'000'000;

struct Setup {
  std::shared_ptr<idebench::storage::Catalog> catalog;
  std::vector<idebench::workflow::Workflow> workflows;
  std::unique_ptr<idebench::engines::Engine> engine;
};

Setup MakeSetup(uint64_t seed, int interactions, EngineCounters* counters) {
  Setup s;
  {
    ScopedSpan span("datagen", "build");
    idebench::datagen::FlightsSeedConfig config;
    config.rows = kRows;
    config.seed = kDataSeed;
    auto table = std::make_shared<idebench::storage::Table>(
        Unwrap(idebench::datagen::GenerateFlightsSeed(config), "datagen"));
    s.catalog = std::make_shared<idebench::storage::Catalog>();
    Check(s.catalog->AddTable(table), "catalog");
    s.catalog->set_nominal_rows(kNominalRows);
  }
  {
    ScopedSpan span("workflow", "generate");
    idebench::workflow::GeneratorConfig config;
    config.min_interactions = interactions;
    config.max_interactions = interactions + 2;
    idebench::workflow::WorkflowGenerator generator(s.catalog->fact_table(),
                                                    config, seed);
    for (int w = 0; w < kUsers * kWorkflowsPerUser; ++w) {
      s.workflows.push_back(Unwrap(
          generator.Generate(idebench::workflow::WorkflowType::kMixed,
                             "workflow_" + std::to_string(w)),
          "workflow generation"));
    }
  }
  ScopedSpan span("engines", "prepare");
  s.engine = std::make_unique<EngineTap>(
      Unwrap(idebench::engines::CreateEngine("progressive", seed, /*threads=*/1,
                                             /*reuse_cache=*/false, kUsers),
             "engine create"),
      counters, 0);
  Check(s.engine->Prepare(s.catalog).status(), "engine prepare");
  return s;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One open-loop user on one connection: plays its workflows in turn on
/// a fixed schedule, each on a fresh session (a new dashboard), with a
/// mirror of each dashboard graph so the specs of its queries are known
/// to the correctness gate.
struct User {
  int conn = 0;
  std::vector<int64_t> sessions;  // one per workflow
  std::vector<const idebench::workflow::Workflow*> workflows;
  std::vector<idebench::workflow::VizGraph> mirrors;
  size_t current = 0;  // workflow being played
  size_t next = 0;     // its next interaction
  int64_t due_ns = 0;

  const idebench::workflow::Interaction* NextInteraction() {
    while (current < workflows.size() &&
           next >= workflows[current]->interactions.size()) {
      ++current;
      next = 0;
    }
    return current < workflows.size() ? &workflows[current]->interactions[next]
                                      : nullptr;
  }
};

struct Pending {
  int64_t due_ns = 0;
  bool seen_update = false;
  idebench::query::QuerySpec spec;
};

/// A completed final, kept for the oracle check after the window.
struct CompletedFinal {
  idebench::query::QuerySpec spec;
  std::string result;  // QueryResultToJson dump of the final update
};

struct WindowResult {
  double server_cpu_s = 0;
  double serve_wall_s = 0;
  int64_t attempted = 0;  // interactions sent + queries admitted
  /// Refused or unanswered interactions + failed or missing terminals.
  int64_t failed = 0;
  int64_t admitted = 0;
  std::vector<double> first_ms, final_ms, lag_ms;
  int64_t bytes_received = 0;
  idebench::net::ServerStats server;
  idebench::net::RatekeeperStats ratekeeper;
  idebench::session::SchedulerStats scheduler;
  std::vector<CompletedFinal> completed;
};

/// Relative tolerance on SUM/AVG estimates of a completed final: the
/// progressive engine sums its shuffled walk, the oracle its morsel
/// scan, so the two round differently in the last bits (README.md).
constexpr double kEstimateTolerance = 1e-9;

/// True when two `QueryResultToJson` dumps agree on every flag, row
/// count, bin key and margin exactly, and on every estimate within
/// `kEstimateTolerance`; tracks the largest relative estimate error.
bool SameAnswer(const std::string& exact, const std::string& got,
                double* max_rel_error) {
  const JsonValue a = Unwrap(JsonValue::Parse(exact), "parse oracle answer");
  const JsonValue b = Unwrap(JsonValue::Parse(got), "parse final answer");
  for (const char* key : {"available", "exact", "progress", "rows"}) {
    if (!(a.Get(key) == b.Get(key))) return false;
  }
  const JsonValue& ab = a.Get("bins");
  const JsonValue& bb = b.Get("bins");
  if (ab.size() != bb.size()) return false;
  for (size_t i = 0; i < ab.size(); ++i) {
    const JsonValue& av = ab.at(i).at(1);
    const JsonValue& bv = bb.at(i).at(1);
    if (!(ab.at(i).at(0) == bb.at(i).at(0)) || av.size() != bv.size()) {
      return false;
    }
    for (size_t k = 0; k < av.size(); ++k) {
      if (!(av.at(k).at(1) == bv.at(k).at(1))) return false;  // margin
      const double x = av.at(k).at(0).AsDouble();
      const double y = bv.at(k).at(0).AsDouble();
      const double scale = std::max(std::abs(x), std::abs(y));
      const double rel = scale > 0 ? std::abs(x - y) / scale : 0.0;
      *max_rel_error = std::max(*max_rel_error, rel);
      if (rel > kEstimateTolerance) return false;
    }
  }
  return true;
}

/// Serves one open-loop window of `window_ns` and drains it.
WindowResult ServeWindow(Setup* setup, int64_t window_ns, RunOutput* out) {
  WindowResult r;
  idebench::net::ServerOptions options;
  options.port = 0;
  options.wall_pacing = true;
  options.engine_label = "progressive";
  options.max_connections = kConnections + 2;
  options.scheduler.time_requirement = kTimeRequirement;
  options.scheduler.quantum = kQuantum;
  options.ratekeeper.soft_live_limit = kSoftLiveLimit;
  options.ratekeeper.hard_live_limit = kHardLiveLimit;
  auto server = Unwrap(idebench::net::Server::Create(
                           options, setup->engine.get(), setup->catalog),
                       "server create");

  idebench::Status serve_status;
  int64_t server_cpu_ns = 0, serve_wall_ns = 0;
  std::thread serve_thread([&] {
    const int64_t cpu0 = ThreadCpuNs();
    const int64_t wall0 = NowNs();
    {
      ScopedSpan span("net", "serve");
      serve_status = server->Serve();
    }
    server_cpu_ns = ThreadCpuNs() - cpu0;
    serve_wall_ns = NowNs() - wall0;
  });
  // Stops and joins the server on every path out of this function.
  struct Joiner {
    idebench::net::Server* server;
    std::thread* thread;
    ~Joiner() {
      server->RequestStop();
      if (thread->joinable()) thread->join();
    }
  } joiner{server.get(), &serve_thread};

  std::vector<std::unique_ptr<idebench::net::Client>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(Unwrap(
        idebench::net::Client::Connect("127.0.0.1", server->port(),
                                       "tenant" + std::to_string(c)),
        "connect"));
  }
  std::vector<User> users(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    users[u].conn = u % kConnections;
    for (int w = 0; w < kWorkflowsPerUser; ++w) {
      users[u].sessions.push_back(
          Unwrap(clients[static_cast<size_t>(users[u].conn)]->OpenSession(),
                 "open session"));
      users[u].workflows.push_back(
          &setup->workflows[static_cast<size_t>(w * kUsers + u)]);
      users[u].mirrors.emplace_back();
    }
  }

  // Users start staggered across the first second.
  const int64_t t0 = NowNs() + 20'000'000;
  const int64_t window_end = t0 + window_ns;
  for (int u = 0; u < kUsers; ++u) {
    users[u].due_ns = t0 + kThinkNs * u / kUsers;
  }

  struct Request {
    int user = 0;
    size_t workflow = 0;
    size_t interaction = 0;
    int64_t due_ns = 0;
  };
  std::map<int64_t, Request> requests;  // request id -> what was sent
  std::map<int64_t, Pending> pending;                   // admitted, live
  std::map<int64_t, int> finals_seen;
  int64_t next_request = 0, protocol_errors = 0, unknown_updates = 0;
  int64_t outstanding_requests = 0;
  bool connection_failed = false;
  const bool traced = ActiveTracer() != nullptr;

  const auto handle = [&](int conn, const JsonValue& msg) {
    const std::string type = idebench::net::MessageType(msg);
    if (type == "submitted" || type == "rejected") {
      auto it = requests.find(msg.GetInt("request", -1));
      if (it == requests.end() || users[it->second.user].conn != conn) {
        ++protocol_errors;
        return;
      }
      User& user = users[static_cast<size_t>(it->second.user)];
      const int64_t due = it->second.due_ns;
      --outstanding_requests;
      if (type == "rejected") {
        ++r.failed;
        return;
      }
      // Replay the admitted interaction, as the server decoded it, on the
      // mirror graph: its specs line up with the submitted queries.
      const Request& req = it->second;
      const auto ix = Unwrap(
          idebench::workflow::Interaction::FromJson(
              user.workflows[req.workflow]->interactions[req.interaction]
                  .ToJson()),
          "interaction round trip");
      std::vector<idebench::query::QuerySpec> specs;
      Check(idebench::workflow::ApplyInteraction(
                *setup->catalog, ix, &user.mirrors[req.workflow], &specs),
            "mirror interaction");
      const JsonValue& queries = msg.Get("queries");
      if (queries.size() != specs.size()) {
        ++protocol_errors;
        return;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        const JsonValue& q = queries.at(i);
        if (q.GetBool("unsupported", false)) continue;
        ++r.admitted;
        pending[q.GetInt("query", -1)] = Pending{due, false, specs[i]};
      }
    } else if (type == "update") {
      const int64_t begin = NowNs();
      auto update = [&] {
        ScopedSpan span("net", "decode");
        return idebench::net::UpdateFromJson(msg);
      }();
      if (traced) {
        r.bytes_received += static_cast<int64_t>(
            msg.Dump().size() + idebench::net::kFrameHeaderBytes);
      }
      if (!update.ok()) {
        ++protocol_errors;
        return;
      }
      auto it = pending.find(update->query_id);
      if (it == pending.end()) {
        if (finals_seen.count(update->query_id) != 0) {
          ++finals_seen[update->query_id];  // an update after the terminal
        } else {
          ++unknown_updates;
        }
        return;
      }
      const double latency_ms =
          static_cast<double>(begin - it->second.due_ns) * 1e-6;
      if (!it->second.seen_update) {
        it->second.seen_update = true;
        r.first_ms.push_back(latency_ms);
      }
      if (update->final_update) {
        r.final_ms.push_back(latency_ms);
        ++finals_seen[update->query_id];
        if (update->failed) ++r.failed;
        if (update->completed) {
          r.completed.push_back(
              {std::move(it->second.spec), msg.Get("result").Dump()});
        }
        pending.erase(it);
      }
    } else if (type == "error") {
      ++protocol_errors;
    }
  };

  while (!connection_failed) {
    const int64_t now = NowNs();
    bool sending = false;
    for (int u = 0; u < kUsers; ++u) {
      User& user = users[u];
      const idebench::workflow::Interaction* ix = user.NextInteraction();
      if (user.due_ns >= window_end || ix == nullptr) continue;
      sending = true;
      if (user.due_ns > now) continue;
      const int64_t request = next_request++;
      JsonValue msg = JsonValue::Object();
      msg.Set("type", "interaction");
      msg.Set("session", user.sessions[user.current]);
      msg.Set("request", request);
      msg.Set("interaction", ix->ToJson());
      requests[request] = Request{u, user.current, user.next, user.due_ns};
      r.lag_ms.push_back(static_cast<double>(NowNs() - user.due_ns) * 1e-6);
      ++r.attempted;
      ++outstanding_requests;
      ++user.next;
      user.due_ns += kThinkNs;
      if (!clients[static_cast<size_t>(user.conn)]->Send(msg).ok()) {
        connection_failed = true;
        break;
      }
    }
    if (connection_failed) break;
    if (!sending && pending.empty() && outstanding_requests == 0) break;
    if (now > window_end + kDrainLimitNs) break;
    for (int c = 0; c < kConnections && !connection_failed; ++c) {
      JsonValue msg;
      // Blocks at most ~1 ms when the connection is idle.
      auto got = clients[static_cast<size_t>(c)]->Next(&msg, 1'000);
      while (got.ok() && *got) {
        handle(c, msg);
        got = clients[static_cast<size_t>(c)]->Next(&msg, 0);
      }
      // A dropped or corrupt connection ends the window; the gates below
      // report it and count what it left unanswered.
      if (!got.ok()) connection_failed = true;
    }
  }

  for (const User& user : users) {
    for (const int64_t session : user.sessions) {
      (void)clients[static_cast<size_t>(user.conn)]->CloseSession(session);
    }
  }
  server->RequestStop();
  serve_thread.join();
  r.server_cpu_s = static_cast<double>(server_cpu_ns) * 1e-9;
  r.serve_wall_s = static_cast<double>(serve_wall_ns) * 1e-9;
  r.server = server->stats();
  r.ratekeeper = server->ratekeeper().stats();
  r.scheduler = server->manager().stats();

  // Gates.  A query still pending never got its terminal update; an
  // interaction still outstanding was never answered.
  r.failed += static_cast<int64_t>(pending.size()) + outstanding_requests;
  r.attempted += r.admitted;
  out->Gate(!connection_failed, "client connections stayed usable");
  out->Gate(serve_status.ok(), "serve loop ended cleanly: " +
                                   serve_status.ToString());
  out->Gate(pending.empty() && outstanding_requests == 0,
            "every interaction was answered and every admitted query got "
            "a terminal update");
  int64_t duplicate_finals = 0;
  for (const auto& [id, n] : finals_seen) duplicate_finals += n - 1;
  out->Gate(duplicate_finals == 0, "no update after a query's terminal update");
  out->Gate(protocol_errors == 0 && r.server.protocol_errors == 0,
            "zero protocol errors");
  out->Gate(unknown_updates == 0, "no update for an unknown query");
  out->Gate(r.scheduler.max_deadline_overshoot == 0,
            "scheduler deadline overshoot is 0");
  return r;
}

/// Compares every completed final of `w` with the oracle's exact answer.
void CheckFinals(const Setup& setup, const WindowResult& w, RunOutput* out) {
  idebench::driver::GroundTruthOracle oracle(setup.catalog, 1);
  int64_t mismatches = 0, bitwise_differences = 0;
  double max_rel_error = 0.0;
  for (const CompletedFinal& f : w.completed) {
    const std::string exact =
        idebench::net::QueryResultToJson(*Unwrap(oracle.Get(f.spec), "oracle"))
            .Dump();
    if (exact == f.result) continue;
    ++bitwise_differences;
    if (!SameAnswer(exact, f.result, &max_rel_error)) ++mismatches;
  }
  const auto checked = static_cast<int64_t>(w.completed.size());
  out->Gate(mismatches == 0, "completed finals equal the oracle's answers (" +
                                 std::to_string(mismatches) + " of " +
                                 std::to_string(checked) + " differ)");
  out->detail.Set("completed_finals_checked", checked);
  out->detail.Set("completed_finals_not_byte_equal", bitwise_differences);
  out->detail.Set("completed_finals_max_rel_error", max_rel_error);
}

}  // namespace

RunOutput RunServeStream(const RunOptions& options) {
  RunOutput out;
  // A traced run serves two half windows: untraced, then traced.
  const double window_s = options.trace ? options.seconds / 2 : options.seconds;
  const auto window_ns = static_cast<int64_t>(window_s * 1e9);
  // Enough interactions for every user to stay busy all window.
  const int interactions =
      static_cast<int>(window_s) / kWorkflowsPerUser + 1;
  std::vector<double> setup_s;
  EngineCounters untraced, traced;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup();
    const int64_t begin = NowNs();
    setup = MakeSetup(options.seed, interactions, &untraced);
    setup_s.push_back(static_cast<double>(NowNs() - begin) * 1e-9);
  }

  const WindowResult plain = ServeWindow(&setup, window_ns, &out);
  out.values["peak_rss_mb"] = PeakRssMb();
  CheckFinals(setup, plain, &out);
  out.attempted += plain.attempted;
  out.failed += plain.failed;

  auto& v = out.values;
  v["setup_s"] = Median(setup_s);
  // The window's length is fixed by its pacing; the time the server
  // thread spent busy serving it is not.
  v["run_s"] = plain.server_cpu_s;
  v["first_update_p50_ms"] = Percentile(plain.first_ms, 0.50);
  v["first_update_p90_ms"] = Percentile(plain.first_ms, 0.90);
  v["final_p50_ms"] = Percentile(plain.final_ms, 0.50);
  v["final_p90_ms"] = Percentile(plain.final_ms, 0.90);
  v["server_cpu_ms_per_query"] =
      plain.server_cpu_s * 1e3 /
      static_cast<double>(std::max<int64_t>(plain.admitted, 1));
  v["bench.latency_samples"] = static_cast<double>(plain.final_ms.size());
  v["bench.queries"] = static_cast<double>(plain.admitted);
  v["bench.generator_lag_p90_ms"] = Percentile(plain.lag_ms, 0.90);
  v["datagen.rows"] = static_cast<double>(kRows);
  out.detail.Set("interactions_sent", plain.attempted - plain.admitted);
  out.detail.Set("queries_admitted", plain.admitted);
  out.detail.Set("first_update_samples",
                 static_cast<int64_t>(plain.first_ms.size()));
  out.detail.Set("final_samples", static_cast<int64_t>(plain.final_ms.size()));
  out.detail.Set("server_busy_share", plain.server_cpu_s / plain.serve_wall_s);
  out.detail.Set("rk_peak_live", plain.ratekeeper.peak_live);
  out.detail.Set("rk_degraded", plain.ratekeeper.degraded);
  out.detail.Set("rk_rejected", plain.ratekeeper.rejected);

  if (options.trace) {
    Tracer tracer(1 << 20);
    SetActiveTracer(&tracer);
    Setup fresh = MakeSetup(options.seed, interactions, &traced);
    const WindowResult w = ServeWindow(&fresh, window_ns, &out);
    SetActiveTracer(nullptr);
    CheckFinals(fresh, w, &out);
    out.attempted += w.attempted;
    out.failed += w.failed;
    ReportTrace(tracer, traced, 1, options.work_dir + "/spans-serve_stream.csv",
                &out);
    const double engine_s = v["engines.run_for_s"] + v["engines.poll_s"] +
                            v["engines.cancel_s"] + v["engines.submit_s"];
    v["session.updates_pushed"] = static_cast<double>(w.scheduler.updates_pushed);
    v["session.partials_pushed"] =
        static_cast<double>(w.scheduler.partial_updates);
    v["session.max_overshoot_us"] =
        static_cast<double>(w.scheduler.max_deadline_overshoot);
    v["net.updates_sent"] = static_cast<double>(w.server.updates_sent);
    v["net.partials_dropped"] = static_cast<double>(w.server.partials_dropped);
    v["net.partials_coalesced"] =
        static_cast<double>(w.server.partials_coalesced);
    v["net.delivered_share"] =
        w.scheduler.updates_pushed > 0
            ? static_cast<double>(w.server.updates_sent) /
                  static_cast<double>(w.scheduler.updates_pushed)
            : 0.0;
    v["net.frames_sent"] = static_cast<double>(w.server.frames_sent);
    v["net.server_cpu_s"] = w.server_cpu_s;
    v["net.server_self_cpu_s"] = w.server_cpu_s - engine_s;
    v["net.server_busy_share"] = w.server_cpu_s / w.serve_wall_s;
    v["net.rk_degraded"] = static_cast<double>(w.ratekeeper.degraded);
    v["net.rk_rejected"] = static_cast<double>(w.ratekeeper.rejected);
    v["net.rk_peak_live"] = static_cast<double>(w.ratekeeper.peak_live);
    v["net.max_backlog_ms"] = static_cast<double>(w.server.max_backlog) * 1e-3;
    v["net.bytes_received"] = static_cast<double>(w.bytes_received);
    v["trace.traced_run_s"] = w.server_cpu_s;
    v["trace.untraced_run_s"] = plain.server_cpu_s;
    v["trace.overhead"] = w.server_cpu_s / plain.server_cpu_s;
    // The wall-paced window is fixed-length, so the traced rep's own
    // timings replace the untraced ones where both exist.
    v["bench.latency_samples"] = static_cast<double>(w.final_ms.size());
    v["bench.generator_lag_p90_ms"] = Percentile(w.lag_ms, 0.90);
  }
  return out;
}

}  // namespace bench_e2e
