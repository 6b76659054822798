// serve_repeat_refine: an in-process mars_serve daemon (ServeDaemon over
// PlacementService) on a loopback port, driven by closed-loop clients that
// replay a small pool of frames with a large simulated-annealing refine
// budget. Coalescing and the parse cache absorb parse and decode, and
// refinement carries the load.
//
// The traced phase enables the service's metrics-registry timers, scrapes
// them, and times the layers' public functions from outside: simulate and
// simulated_annealing / partition_placement on the pool, and — on a seeded
// set of distinct graphs, the traffic that pays for them on every request —
// RequestReader::next, CompGraph::coarsen, sample_greedy_batch and
// response_to_line.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "baselines/local_search.h"
#include "baselines/partitioner.h"
#include "harness.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace mars::perfbench {

namespace {

using serve::PlaceRequest;
using serve::PlaceResponse;
using serve::PlaceStatus;

constexpr int kAgentGpus = 4;
constexpr int kCoarsenBudget = 192;  // ServiceConfig::default_coarsen
constexpr size_t kMaxBatch = 8;      // ServerConfig::max_batch
constexpr int kSetupRepeats = 9;
constexpr int kMaxShedRetries = 4;
constexpr size_t kSoloChecks = 6;
constexpr int kRefineTrials = 512;
constexpr size_t kWindows = 5;
/// Distinct graphs replayed through the parse/coarsen/decode layers.
constexpr size_t kDistinctReplay = 128;

/// One request as the client keeps it: the wire frame and the node count
/// its answer must cover.
struct Request {
  std::string frame;
  int nodes = 0;
};

/// The client's view of one answered request.
struct Answer {
  bool ok = false;
  double latency_ms = 0;
  double done_s = 0;  // completion, seconds into the closed loop
  PlaceResponse response;
};

Request make_request(std::string id, CompGraph graph, int gpus,
                     int refine_trials) {
  PlaceRequest r;
  r.id = std::move(id);
  r.gpus = gpus;
  r.options.refine_trials = refine_trials;
  r.options.use_cache = false;
  r.graph = std::move(graph);
  return {serve::request_to_string(r), r.graph.num_nodes()};
}

PlaceRequest parse_frame(const std::string& frame) {
  std::istringstream in(frame);
  serve::RequestReader reader(in);
  std::optional<serve::ReadOutcome> out = reader.next();
  MARS_CHECK_MSG(out && out->ok, "generated frame does not parse");
  return std::move(out->request);
}

/// The pool: four random DAGs of fixed shapes (so every seed asks for about
/// the same annealing work; the seed varies structure and costs), the
/// default RNN seq2seq graph, and a machine shape the agent was not trained
/// for (served by the fallback placers).
std::vector<Request> repeat_pool(uint64_t seed) {
  constexpr std::pair<int, int> kShapes[] = {{4, 20}, {5, 24}, {3, 30},
                                             {6, 16}};
  std::vector<Request> pool;
  Rng rng(seed ^ 0x7e9ea7ull);
  for (const auto& [width, depth] : kShapes)
    pool.push_back(make_request("p" + std::to_string(pool.size()),
                                build_random_dag(width, depth, rng.next_u64()),
                                kAgentGpus, kRefineTrials));
  pool.push_back(make_request("p_rnn", build_rnn_seq2seq(), kAgentGpus,
                              kRefineTrials));
  pool.push_back(make_request("p_2gpu",
                              build_random_dag(4, 20, rng.next_u64()), 2,
                              kRefineTrials));
  return pool;
}

/// A distinct graph per (seed, index): random DAGs from 19 to 323 nodes,
/// and one in ten each an RNN or Transformer graph with a varied config,
/// fused to 224..320 nodes. Kinds and DAG shapes cycle with the index.
CompGraph distinct_graph(uint64_t seed, size_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + index * 0xbf58476d1ce4e5b9ull + 1);
  const size_t kind = index % 10;
  const int model_nodes = 224 + 8 * static_cast<int>(index / 10 % 13);
  if (kind < 8) {
    const int width = 2 + static_cast<int>(index % 7);
    const int depth = 8 + static_cast<int>(index * 13 % 33);
    return build_random_dag(width, depth, rng.next_u64());
  }
  if (kind == 8) {
    RnnSeq2SeqConfig c;
    c.batch = 16 + 16 * static_cast<int64_t>(rng.uniform_int(16));
    c.hidden = 256 + 128 * static_cast<int64_t>(rng.uniform_int(5));
    c.seq_len = 12 + 3 * static_cast<int64_t>(rng.uniform_int(7));
    return build_rnn_seq2seq(c).coarsen(model_nodes);
  }
  TransformerConfig c;
  c.layers = 1 + static_cast<int64_t>(rng.uniform_int(2));
  c.batch = 8 + 8 * static_cast<int64_t>(rng.uniform_int(16));
  c.seq_len = 32 + 16 * static_cast<int64_t>(rng.uniform_int(5));
  return build_transformer(c).coarsen(model_nodes);
}

/// The daemon under test plus the thread running its event loop.
struct Rig {
  obs::MetricsRegistry registry;
  std::unique_ptr<serve::PlacementService> service;
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::thread loop;

  Rig(uint64_t seed, const std::string& warm_frame) {
    serve::ServiceConfig sc;
    sc.agent_gpus = kAgentGpus;
    sc.default_coarsen = kCoarsenBudget;
    sc.cache_capacity = 0;
    sc.seed = seed;
    sc.metrics = &registry;
    service = std::make_unique<serve::PlacementService>(sc);
    serve::ServerConfig cfg;
    cfg.threads = Threads::kDaemonWorkers;
    cfg.max_batch = static_cast<int>(kMaxBatch);
    cfg.max_queue = 1 << 16;
    daemon = std::make_unique<serve::ServeDaemon>(*service, cfg);
    loop = std::thread([this] { daemon->serve(); });
    serve::PlaceClient client("127.0.0.1", daemon->port());
    MARS_CHECK(client.place_frame(warm_frame).status == PlaceStatus::kOk);
  }
  ~Rig() {
    daemon->shutdown();
    loop.join();
  }
  double hist_mean(const char* name) {
    obs::Histogram& h = registry.histogram(name, "", {});
    return h.count() ? h.sum() / static_cast<double>(h.count()) : 0.0;
  }
  double counter(const char* name) {
    return static_cast<double>(registry.counter(name, "").load());
  }
};

/// Builds kSetupRepeats rigs, timing each; returns the last one.
std::unique_ptr<Rig> set_up(uint64_t seed, std::vector<double>* setups) {
  // A small request without refinement, so set-up includes a worker's
  // first agent lease but no annealing.
  const std::string warm_frame =
      make_request("warm", build_random_dag(3, 10, 7), kAgentGpus, 0).frame;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const Clock::time_point t0 = Clock::now();
    rig = std::make_unique<Rig>(seed, warm_frame);
    setups->push_back(seconds_since(t0));
  }
  return rig;
}

/// kClosedLoopClients PlaceClients, each sending its next request from the
/// pool as soon as the previous one is answered, for `seconds`.
struct ClosedLoop {
  std::vector<std::pair<size_t, Answer>> answers;  // (pool index, answer)
  double elapsed_s = 0;
  int64_t sheds = 0;  // shed responses seen, retried or not
};

ClosedLoop closed_loop(int port, const std::vector<Request>& pool,
                       double seconds, uint64_t seed) {
  const unsigned clients = Threads::kClosedLoopClients;
  std::vector<ClosedLoop> per(clients);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ClientConfig cc;
      cc.max_shed_retries = kMaxShedRetries;
      serve::PlaceClient client("127.0.0.1", port, cc);
      Rng rng(seed ^ (0x5eedull * (c + 1)));
      while (seconds_since(t0) < seconds) {
        const size_t k = rng.uniform_int(pool.size());
        const Clock::time_point sent = Clock::now();
        Answer a;
        try {
          a.response = client.place_frame(pool[k].frame);
          a.ok = a.response.status == PlaceStatus::kOk;
        } catch (const std::exception&) {
          a.ok = false;
        }
        a.latency_ms = seconds_since(sent) * 1e3;
        a.done_s = seconds_since(t0);
        per[c].answers.emplace_back(k, std::move(a));
      }
      per[c].sheds = client.counters().sheds;
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoop out;
  out.elapsed_s = seconds_since(t0);
  for (ClosedLoop& p : per) {
    out.sheds += p.sheds;
    for (auto& a : p.answers) out.answers.push_back(std::move(a));
  }
  return out;
}

bool same_answer(const PlaceResponse& a, const PlaceResponse& b) {
  return a.status == b.status && a.placer == b.placer &&
         a.placement == b.placement && a.step_time_s == b.step_time_s;
}

/// One serving phase: a fresh daemon, the closed loop, failure accounting
/// and the batched-versus-solo check.
struct Phase {
  ClosedLoop loop;
  std::vector<double> setups;
  std::vector<double> latencies;  // ok answers
  std::vector<double> done_s;     // their completion times
  std::vector<double> wait_ms;    // client latency minus service time
  int64_t ok = 0;
  int64_t failed = 0;
  double rss = 0;

  double throughput() const { return static_cast<double>(ok) / loop.elapsed_s; }

  /// p50, tail and completion rate as the medians over kWindows equal
  /// stretches of the run, so one disturbed stretch cannot set them.
  Summary windowed(double* rate) const {
    std::vector<std::vector<double>> parts(kWindows);
    const double span = loop.elapsed_s / kWindows;
    for (size_t i = 0; i < latencies.size(); ++i)
      parts[std::min(kWindows - 1, static_cast<size_t>(done_s[i] / span))]
          .push_back(latencies[i]);
    Summary out;
    out.count = latencies.size();
    std::vector<double> p50s, tails, rates;
    for (const std::vector<double>& part : parts) {
      const Summary s = summarize(part);
      p50s.push_back(s.p50);
      tails.push_back(s.tail);
      rates.push_back(static_cast<double>(part.size()) / span);
      out.tail_label = "median window " + s.tail_label;
    }
    out.p50 = median(p50s);
    out.tail = median(tails);
    *rate = median(rates);
    return out;
  }
  void report(const char* name) const {
    note("%s: attempted %zu, ok %lld, failed %lld, shed responses %lld", name,
         loop.answers.size(), static_cast<long long>(ok),
         static_cast<long long>(failed), static_cast<long long>(loop.sheds));
  }
};

/// Per-layer numbers from the service's own registry.
void scrape(Rig& rig, const Phase& phase, Result& result) {
  const double client_requests = static_cast<double>(phase.loop.answers.size());
  const double service_requests = rig.counter("mars_serve_requests_total");
  result.set("serve.handle_ms", rig.hist_mean("mars_serve_request_latency_ms"),
             "ms");
  result.set("serve.decode_ms", rig.hist_mean("mars_serve_decode_ms"), "ms");
  result.set("serve.refine_ms", rig.hist_mean("mars_serve_refine_ms"), "ms");
  result.set("serve.batch_size", rig.hist_mean("mars_serve_batch_size"),
             "count");
  result.set("serve.coalesced_ratio",
             rig.counter("mars_serve_coalesced_total") / client_requests,
             "ratio");
  result.set("serve.fallback_ratio",
             service_requests
                 ? rig.counter("mars_serve_fallbacks_total") / service_requests
                 : 0.0,
             "ratio");
  result.set("serve.work_ratio", service_requests / client_requests, "ratio");
  result.set("serve.wait_ms", median(phase.wait_ms), "ms");
  note("service ran handle for %.0f of %.0f client requests; %.0f "
       "coalesced, %.0f shed", service_requests, client_requests,
       rig.counter("mars_serve_coalesced_total"),
       rig.counter("mars_serve_shed_total"));
}

Phase run_phase(const Options& o, const std::vector<Request>& pool,
                bool traced, Result& result) {
  Phase phase;
  std::unique_ptr<Rig> rig = set_up(o.seed, &phase.setups);
  rig->registry.set_enabled(traced);
  phase.loop = closed_loop(rig->daemon->port(), pool, o.seconds, o.seed);
  for (const auto& [k, answer] : phase.loop.answers) {
    if (!answer.ok || answer.response.placement.size() !=
                          static_cast<size_t>(pool[k].nodes)) {
      ++phase.failed;
      continue;
    }
    ++phase.ok;
    phase.latencies.push_back(answer.latency_ms);
    phase.done_s.push_back(answer.done_s);
    phase.wait_ms.push_back(answer.latency_ms - answer.response.latency_ms);
  }
  phase.rss = peak_rss_mb();
  if (traced) scrape(*rig, phase, result);

  // Batched equals solo: one answer per pool frame, preferring one that was
  // served inside a batch, re-served through solo PlacementService::handle.
  std::vector<const Answer*> pick(pool.size(), nullptr);
  for (const auto& [k, answer] : phase.loop.answers)
    if (answer.ok && (!pick[k] || (answer.response.batch_size > 1 &&
                                   pick[k]->response.batch_size == 1)))
      pick[k] = &answer;
  size_t checked = 0, matched = 0, batched = 0;
  for (size_t k = 0; k < pool.size() && checked < kSoloChecks; ++k) {
    if (!pick[k]) continue;
    ++checked;
    matched += same_answer(rig->service->handle(parse_frame(pool[k].frame)),
                           pick[k]->response);
    batched += pick[k]->response.batch_size > 1;
  }
  note("batched vs solo handle: %zu/%zu identical (%zu served in batches)",
       matched, checked, batched);
  result.check(checked > 0 && matched == checked,
               "batched responses equal solo PlacementService::handle");
  return phase;
}

/// Times the pool's simulation, refinement and fallback partitioning.
void replay_pool_layers(const Options& o, const std::vector<Request>& pool,
                        const ClosedLoop& loop, Result& result) {
  LayerClock simulate, refine, partition;
  for (size_t k = 0; k < pool.size(); ++k) {
    const PlaceRequest req = parse_frame(pool[k].frame);
    const MachineSpec machine = MachineSpec::with_gpus(req.gpus);
    const ExecutionSimulator sim(req.graph, machine);
    for (const auto& [idx, answer] : loop.answers) {
      if (idx != k || !answer.ok) continue;
      for (int r = 0; r < 20; ++r)
        timed(simulate,
              [&] { return sim.simulate(answer.response.placement); });
      break;
    }
    if (machine.num_devices() == kAgentGpus + 1) {
      // The service's refinement: noise-free single-step trials on the
      // decode view.
      const CompGraph work = req.graph.num_nodes() > kCoarsenBudget
                                 ? req.graph.coarsen(kCoarsenBudget)
                                 : req.graph;
      const ExecutionSimulator work_sim(work, machine);
      TrialConfig trial;
      trial.warmup_steps = 0;
      trial.measured_steps = 1;
      trial.noise_sigma = 0;
      trial.reinit_overhead_s = 0;
      const TrialRunner runner(work_sim, trial);
      SearchConfig search;
      search.max_trials = req.options.refine_trials;
      timed(refine,
            [&] { return simulated_annealing(runner, search, o.seed + k); });
    } else {
      for (int r = 0; r < 3; ++r)
        timed(partition, [&] {
          return partition_placement(req.graph, machine, sim.cost_model(),
                                     PartitionerConfig{}, o.seed);
        });
    }
  }
  result.set("sim.simulate_us", simulate.mean_us(), "us");
  result.set("baselines.refine_ms", refine.mean_ms(), "ms");
  result.set("baselines.partition_ms", partition.mean_ms(), "ms");
}

/// Times the per-request layers distinct traffic pays and repeated traffic
/// skips: parse, coarsen and batched decode of distinct graphs, and
/// response serialization.
void replay_distinct_layers(const Options& o, const ClosedLoop& loop,
                            Result& result) {
  LayerClock parse, coarsen, decode, serialize;
  std::vector<CompGraph> works;
  size_t above_budget = 0;
  for (size_t i = 0; i < kDistinctReplay; ++i) {
    const std::string frame =
        make_request("d" + std::to_string(i), distinct_graph(o.seed, i),
                     kAgentGpus, 0)
            .frame;
    std::istringstream in(frame);
    serve::RequestReader reader(in);
    std::optional<serve::ReadOutcome> out =
        timed(parse, [&] { return reader.next(); });
    result.check(out && out->ok, "distinct frame parses");
    if (!out || !out->ok) return;
    const CompGraph& g = out->request.graph;
    if (g.num_nodes() > kCoarsenBudget) {
      ++above_budget;
      std::vector<int> groups;
      works.push_back(
          timed(coarsen, [&] { return g.coarsen(kCoarsenBudget, &groups); }));
    } else {
      works.push_back(g);
    }
  }
  Rng rng(o.seed);
  auto agent = make_mars_agent(MarsConfig::fast(), kAgentGpus + 1, rng);
  for (size_t i = 0; i + kMaxBatch <= works.size(); i += kMaxBatch) {
    std::vector<const CompGraph*> graphs;
    for (size_t k = i; k < i + kMaxBatch; ++k) graphs.push_back(&works[k]);
    timed(decode, [&] { return agent->sample_greedy_batch(graphs); });
  }
  for (const auto& [k, answer] : loop.answers)
    timed(serialize, [&] { return serve::response_to_line(answer.response); });
  result.set("serve.parse_ms", parse.mean_ms(), "ms");
  result.set("graph.coarsen_ms", coarsen.mean_ms(), "ms");
  result.set("core.decode_batch_ms", decode.mean_ms(), "ms");
  result.set("serve.serialize_us", serialize.mean_us(), "us");
  note("distinct replay: %lld parses, %lld coarsens (%zu graphs above the "
       "%d-node budget), %lld batched decodes of %zu, %lld serializations",
       static_cast<long long>(parse.calls),
       static_cast<long long>(coarsen.calls), above_budget, kCoarsenBudget,
       static_cast<long long>(decode.calls), kMaxBatch,
       static_cast<long long>(serialize.calls));
}

}  // namespace

Result run_serve_repeat(const Options& options) {
  Result result;
  const std::vector<Request> pool = repeat_pool(options.seed);
  std::string sizes;
  for (const Request& r : pool) sizes += " " + std::to_string(r.nodes);
  note("pool of %zu frames (nodes:%s), refine_trials %d, %u closed-loop "
       "clients", pool.size(), sizes.c_str(), kRefineTrials,
       Threads::kClosedLoopClients);

  const Phase plain = run_phase(options, pool, false, result);
  plain.report("untraced");
  double throughput = 0;
  const Summary lat = plain.windowed(&throughput);
  note("throughput_qps %.2f (whole run %.2f); latency p50 %.2f ms, %s %.2f "
       "ms, n=%zu", throughput, plain.throughput(), lat.p50,
       lat.tail_label.c_str(), lat.tail, lat.count);
  result.attempted = static_cast<int64_t>(plain.loop.answers.size());
  result.failed = plain.failed;
  result.check(plain.failed == 0,
               "every serve response is ok and covers every node");
  if (!options.trace) {
    result.set("setup_s", median(plain.setups), "s");
    result.set("peak_rss_mb", plain.rss, "MB");
    result.set("latency_p50_ms", lat.p50, "ms");
    result.set("latency_tail_ms", lat.tail, "ms");
    result.set("throughput_per_s", throughput, "1/s");
    return result;
  }

  const Phase traced = run_phase(options, pool, true, result);
  traced.report("traced");
  std::vector<const PlaceResponse*> reference(pool.size(), nullptr);
  for (const auto& [k, answer] : plain.loop.answers)
    if (answer.ok && !reference[k]) reference[k] = &answer.response;
  bool same = true;
  for (const auto& [k, answer] : traced.loop.answers)
    if (reference[k]) same = same && same_answer(*reference[k], answer.response);
  result.check(same, "traced phase serves the same placements");
  note("tracing overhead: p50 %+.3f ms, throughput %+.2f/s",
       median(traced.latencies) - lat.p50,
       traced.throughput() - plain.throughput());
  replay_pool_layers(options, pool, traced.loop, result);
  replay_distinct_layers(options, traced.loop, result);
  return result;
}

}  // namespace mars::perfbench
