// train_mars_gnmt: Mars (DGI pre-training, then PPO) on GNMT coarsened to
// its fast-profile budget, through the public make_mars_agent /
// DgiPretrainer / optimize_placement API.
//
// The traced run builds the same agent from forwarding wrappers — a
// PlacementPolicy around the agent, a NodeEncoder and a Placer handed to
// the public EncoderPlacerAgent constructor, and a TrialExecBackend around
// TrialRunner::measure — so every layer is timed from outside the library.
// Backward and Adam run inside PpoTrainer::update where no wrapper reaches;
// they are timed by replaying evaluate + backward + Adam::step on the last
// update batch of stored samples after training.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "core/mars.h"
#include "harness.h"
#include "sim/simulator.h"
#include "tensor/arena.h"
#include "workloads/workloads.h"

namespace mars::perfbench {

namespace {

/// bench/common.cpp's fast-profile coarsen budget for GNMT (184 nodes).
constexpr int kGnmtBudget = 192;
/// Wall-clock seconds of one sample-and-update cycle (two rounds), used
/// only to turn --seconds into a fixed round budget.
constexpr double kCycleSecondsEstimate = 2.5;
/// Minibatch backward + Adam steps replayed for the per-layer times.
constexpr int kReplaySteps = 12;
constexpr int kSetupRepeats = 15;

struct TrainLayers {
  LayerClock sample, reeval, encode, place_sample, place_reeval, measure,
      backward, adam_step;
};

class TimedEncoder : public NodeEncoder {
 public:
  TimedEncoder(std::unique_ptr<NodeEncoder> inner, TrainLayers& layers)
      : inner_(std::move(inner)), layers_(&layers) {
    adopt("inner", *inner_);
  }
  void attach_graph(const CompGraph& graph) override {
    inner_->attach_graph(graph);
    num_nodes_ = inner_->num_nodes();
  }
  Tensor encode() const override {
    return timed(layers_->encode, [&] { return inner_->encode(); });
  }
  std::vector<Tensor> encode_batch(
      const std::vector<const CompGraph*>& graphs) override {
    return inner_->encode_batch(graphs);
  }
  int64_t out_dim() const override { return inner_->out_dim(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<NodeEncoder> inner_;
  TrainLayers* layers_;
};

class TimedPlacer : public Placer {
 public:
  TimedPlacer(std::unique_ptr<Placer> inner, TrainLayers& layers)
      : Placer(inner->num_devices()),
        inner_(std::move(inner)),
        layers_(&layers) {
    adopt("inner", *inner_);
  }
  Result place(const Tensor& reps, const std::vector<int>* given,
               Rng* rng) override {
    // Training only samples (rng) or re-evaluates (given).
    LayerClock& clock = given ? layers_->place_reeval : layers_->place_sample;
    return timed(clock, [&] { return inner_->place(reps, given, rng); });
  }
  std::vector<std::vector<int>> place_greedy_batch(
      const std::vector<Tensor>& reps) override {
    return inner_->place_greedy_batch(reps);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Placer> inner_;
  TrainLayers* layers_;
};

/// Times sample/evaluate and keeps the most recent samples for the
/// backward/Adam replay.
class TimedPolicy : public PlacementPolicy {
 public:
  TimedPolicy(PlacementPolicy& inner, TrainLayers& layers, size_t keep)
      : inner_(&inner), layers_(&layers), keep_(keep) {
    adopt("inner", inner);
  }
  void attach_graph(const CompGraph& graph) override {
    inner_->attach_graph(graph);
  }
  ActionSample sample(Rng& rng) override {
    ActionSample s = timed(layers_->sample, [&] { return inner_->sample(rng); });
    recent_.push_back(s);
    if (recent_.size() > keep_) recent_.pop_front();
    return s;
  }
  ActionSample sample_greedy() override { return inner_->sample_greedy(); }
  ActionEval evaluate(const ActionSample& sample) override {
    return timed(layers_->reeval, [&] { return inner_->evaluate(sample); });
  }
  int num_devices() const override { return inner_->num_devices(); }
  std::string describe() const override { return inner_->describe(); }
  const std::deque<ActionSample>& recent() const { return recent_; }

 private:
  PlacementPolicy* inner_;
  TrainLayers* layers_;
  size_t keep_;
  std::deque<ActionSample> recent_;
};

/// Runs each cache-miss trial exactly as TrialEnv's inline path does.
class TimedBackend : public TrialExecBackend {
 public:
  explicit TimedBackend(TrainLayers& layers) : layers_(&layers) {}
  void run_trials(const TrialRunner& runner, uint64_t /*env_round*/,
                  std::span<const TrialSpec> specs,
                  std::span<TrialResult> results) override {
    for (size_t k = 0; k < specs.size(); ++k) {
      Rng rng(specs[k].seed);
      results[k] = timed(layers_->measure, [&] {
        return runner.measure(*specs[k].placement, rng);
      });
    }
  }

 private:
  TrainLayers* layers_;
};

struct Problem {
  CompGraph graph;
  MachineSpec machine = MachineSpec::default_4gpu();
  std::unique_ptr<ExecutionSimulator> sim;
  std::unique_ptr<TrialRunner> runner;
};

std::unique_ptr<Problem> build_problem() {
  auto p = std::make_unique<Problem>();
  p->graph = build_gnmt().coarsen(kGnmtBudget);
  p->sim = std::make_unique<ExecutionSimulator>(p->graph, p->machine);
  p->runner = std::make_unique<TrialRunner>(*p->sim);
  return p;
}

MarsConfig train_config(double seconds) {
  MarsConfig c = MarsConfig::fast();
  const int cycles = std::max(
      2, static_cast<int>(std::lround(seconds / kCycleSecondsEstimate)));
  const int rounds_per_cycle =
      c.optimize.ppo.update_batch / c.optimize.ppo.placements_per_policy;
  c.optimize.max_rounds = cycles * rounds_per_cycle;
  c.optimize.env.threads = Threads::kTrial;
  return c;
}

struct TrainRun {
  double pretrain_s = 0;
  double ppo_s = 0;
  OptimizeResult opt;
};

TrainRun train_untraced(const Problem& problem, const MarsConfig& config,
                        uint64_t seed) {
  TrainRun run;
  Rng rng(seed);
  auto agent = make_mars_agent(config, problem.machine.num_devices(), rng);
  agent->attach_graph(problem.graph);
  Clock::time_point t0 = Clock::now();
  DgiPretrainer pretrainer(dynamic_cast<GcnEncoder&>(agent->encoder()), rng);
  pretrainer.pretrain(config.dgi, rng);
  run.pretrain_s = seconds_since(t0);
  t0 = Clock::now();
  run.opt = optimize_placement(*agent, *problem.runner, config.optimize,
                               rng.next_u64());
  run.ppo_s = seconds_since(t0);
  return run;
}

struct TracedRun : TrainRun {
  TrainLayers layers;
  uint64_t arena_misses = 0;
};

/// The same training as train_untraced (identical RNG consumption: encoder,
/// then placer, then DGI, then the PPO seed), built from timing wrappers;
/// then the backward/Adam replay.
TracedRun train_traced(const Problem& problem, const MarsConfig& config,
                       uint64_t seed) {
  TracedRun run;
  TrainLayers& layers = run.layers;
  Rng rng(seed);
  auto gcn = std::make_unique<GcnEncoder>(config.encoder_hidden,
                                          config.encoder_layers, rng);
  GcnEncoder& gcn_ref = *gcn;
  SegSeq2SeqConfig pc;
  pc.rep_dim = gcn->out_dim();
  pc.hidden = config.placer_hidden;
  pc.attn_dim = config.attn_dim;
  pc.segment_size = config.segment_size;
  pc.num_devices = problem.machine.num_devices();
  auto placer = std::make_unique<SegmentSeq2SeqPlacer>(pc, rng);
  EncoderPlacerAgent agent(
      std::make_unique<TimedEncoder>(std::move(gcn), layers),
      std::make_unique<TimedPlacer>(std::move(placer), layers), "mars");
  const PpoConfig& ppo = config.optimize.ppo;
  TimedPolicy policy(agent, layers, static_cast<size_t>(ppo.update_batch));
  policy.attach_graph(problem.graph);

  Clock::time_point t0 = Clock::now();
  DgiPretrainer pretrainer(gcn_ref, rng);
  pretrainer.pretrain(config.dgi, rng);
  run.pretrain_s = seconds_since(t0);

  TimedBackend backend(layers);
  OptimizeConfig optimize = config.optimize;
  optimize.env.backend = &backend;
  const uint64_t misses0 = Workspace::global_stats().misses;
  t0 = Clock::now();
  run.opt =
      optimize_placement(policy, *problem.runner, optimize, rng.next_u64());
  run.ppo_s = seconds_since(t0);
  run.arena_misses = Workspace::global_stats().misses - misses0;

  // Replay: minibatches of update_batch / minibatches stored samples, each
  // evaluated, reduced to a PPO-shaped loss, then backward and one Adam
  // step. Only backward and the step are timed; the replay's evaluate calls
  // must not count towards the training's encode/reeval clocks.
  const TrainLayers before_replay = layers;
  Adam adam(policy.parameters(), ppo.adam);
  const std::deque<ActionSample>& samples = policy.recent();
  const int per_minibatch = std::max(1, ppo.update_batch / ppo.minibatches);
  size_t next = 0;
  for (int step = 0; step < kReplaySteps && !samples.empty(); ++step) {
    adam.zero_grad();
    Tensor total;
    for (int j = 0; j < per_minibatch; ++j) {
      ActionEval eval = agent.evaluate(samples[next++ % samples.size()]);
      Tensor loss = sub(neg(mean_all(eval.logp_terms)),
                        scale(eval.entropy, ppo.entropy_coef));
      total = j == 0 ? loss : add(total, loss);
    }
    total = scale(total, 1.0f / static_cast<float>(per_minibatch));
    timed(layers.backward, [&] { total.backward(); });
    timed(layers.adam_step, [&] { adam.step(); });
  }
  const LayerClock backward = layers.backward, adam_step = layers.adam_step;
  layers = before_replay;
  layers.backward = backward;
  layers.adam_step = adam_step;
  return run;
}

/// Wall-clock of each round, from the cumulative agent seconds.
std::vector<double> round_walls(const OptimizeResult& opt) {
  std::vector<double> walls;
  double prev = 0;
  for (const RoundStats& s : opt.history) {
    walls.push_back(s.agent_seconds - prev);
    prev = s.agent_seconds;
  }
  return walls;
}

bool same_training(const OptimizeResult& a, const OptimizeResult& b) {
  if (a.best_placement != b.best_placement ||
      a.best_step_time != b.best_step_time || a.trials != b.trials ||
      a.cache_hits != b.cache_hits || a.history.size() != b.history.size())
    return false;
  for (size_t i = 0; i < a.history.size(); ++i) {
    const RoundStats& x = a.history[i];
    const RoundStats& y = b.history[i];
    if (x.mean_valid_step_time != y.mean_valid_step_time ||
        x.valid_samples != y.valid_samples ||
        x.best_step_time_so_far != y.best_step_time_so_far)
      return false;
  }
  return true;
}

}  // namespace

Result run_train(const Options& options) {
  Result result;
  const MarsConfig config = train_config(options.seconds);
  const PpoConfig& ppo = config.optimize.ppo;

  // Set-up: workload graph, simulator, trial runner, agent, graph attach.
  std::vector<double> setups;
  std::unique_ptr<Problem> problem;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    problem = build_problem();
    Rng rng(options.seed);
    auto agent = make_mars_agent(config, problem->machine.num_devices(), rng);
    agent->attach_graph(problem->graph);
    setups.push_back(seconds_since(t0));
  }
  note("GNMT coarsened to %d nodes; %d PPO rounds x %d placements, update "
       "every %d samples", problem->graph.num_nodes(),
       config.optimize.max_rounds, ppo.placements_per_policy,
       ppo.update_batch);

  const TrainRun plain = train_untraced(*problem, config, options.seed);
  const OptimizeResult& opt = plain.opt;
  const double rss = peak_rss_mb();
  const int samples = opt.rounds_run * ppo.placements_per_policy;
  result.attempted = samples;

  std::vector<double> cycles;
  const std::vector<double> walls = round_walls(opt);
  const int rounds_per_cycle = ppo.update_batch / ppo.placements_per_policy;
  for (size_t i = 0; i + rounds_per_cycle <= walls.size();
       i += rounds_per_cycle) {
    double c = 0;
    for (int k = 0; k < rounds_per_cycle; ++k) c += walls[i + k];
    cycles.push_back(c * 1e3);
  }
  const Summary cycle = summarize(cycles);
  // Placements sampled and learned from per second, at the median cycle:
  // one disturbed cycle cannot set it.
  const double throughput = ppo.update_batch / (cycle.p50 / 1e3);
  note("train_wall_s %.3f (pretrain_s %.3f + PPO %.3f); train_samples_per_s "
       "%.3f (whole PPO phase %.3f); cycle (%d rounds) p50 %.1f ms, %s %.1f "
       "ms, n=%zu",
       plain.pretrain_s + plain.ppo_s, plain.pretrain_s, plain.ppo_s,
       throughput, samples / plain.ppo_s, rounds_per_cycle, cycle.p50,
       cycle.tail_label.c_str(), cycle.tail, cycle.count);
  note("best_step_time_s %.6f (simulated seconds), %lld trials, %lld cache "
       "hits", opt.best_step_time, static_cast<long long>(opt.trials),
       static_cast<long long>(opt.cache_hits));

  result.check(opt.found_valid, "training found a valid placement");
  const SimResult resim = problem->sim->simulate(opt.best_placement);
  note("best placement re-simulates to %.6f s (measured %.6f, ratio %.4f)",
       resim.step_time, opt.best_step_time,
       opt.best_step_time / resim.step_time);
  result.check(!resim.oom && std::fabs(opt.best_step_time / resim.step_time -
                                       1.0) <= 0.05,
               "best placement re-simulates to best_step_time_s within the "
               "trial measurement noise");

  if (!options.trace) {
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", rss, "MB");
    result.set("latency_p50_ms", cycle.p50, "ms");
    result.set("latency_tail_ms", cycle.tail, "ms");
    result.set("throughput_per_s", throughput, "1/s");
    return result;
  }

  const TracedRun traced = train_traced(*problem, config, options.seed);
  const TrainLayers& l = traced.layers;
  result.check(same_training(opt, traced.opt),
               "traced training is bit-identical to the untraced run");
  note("tracing overhead: PPO phase %.3f s traced vs %.3f s untraced "
       "(%+.2f%%), pretrain %+.3f s",
       traced.ppo_s, plain.ppo_s, 100.0 * (traced.ppo_s / plain.ppo_s - 1.0),
       traced.pretrain_s - plain.pretrain_s);

  const int updates = samples / ppo.update_batch;
  const int64_t steps =
      static_cast<int64_t>(updates) * ppo.epochs *
      std::min(ppo.minibatches, ppo.update_batch);
  const double backward_s = l.backward.mean_ms() / 1e3 * steps;
  const double adam_s = l.adam_step.mean_ms() / 1e3 * steps;
  double update_total = 0;
  const std::vector<double> traced_walls = round_walls(traced.opt);
  for (size_t i = 0; i < traced_walls.size(); ++i)
    update_total += traced_walls[i] - traced.opt.history[i].rollout_seconds;
  const double attributed = l.sample.total_s + l.measure.total_s +
                            l.reeval.total_s + backward_s + adam_s;
  const auto row = [&](const char* name, double s, int64_t calls) {
    note("  %-28s %9.3f s %6.1f%%  calls %lld", name, s,
         100.0 * s / traced.ppo_s, static_cast<long long>(calls));
  };
  note("PPO-phase wall-clock %.3f s, attributed by layer:", traced.ppo_s);
  row("core.sample", l.sample.total_s, l.sample.calls);
  row("  core.place_sample", l.place_sample.total_s, l.place_sample.calls);
  row("sim.measure", l.measure.total_s, l.measure.calls);
  row("core.reeval", l.reeval.total_s, l.reeval.calls);
  row("  core.place_reeval", l.place_reeval.total_s, l.place_reeval.calls);
  row("tensor.backward (replay est.)", backward_s, steps);
  row("nn.adam_step (replay est.)", adam_s, steps);
  row("core.encode (all calls)", l.encode.total_s, l.encode.calls);
  row("unattributed remainder", traced.ppo_s - attributed, 0);

  result.set("core.pretrain_s", traced.pretrain_s, "s");
  result.set("core.sample_ms", l.sample.mean_ms(), "ms");
  result.set("core.reeval_ms", l.reeval.mean_ms(), "ms");
  result.set("core.encode_ms", l.encode.mean_ms(), "ms");
  result.set("core.place_sample_ms", l.place_sample.mean_ms(), "ms");
  result.set("core.place_reeval_ms", l.place_reeval.mean_ms(), "ms");
  result.set("tensor.backward_ms", l.backward.mean_ms(), "ms");
  result.set("nn.adam_step_ms", l.adam_step.mean_ms(), "ms");
  result.set("rl.update_s", updates ? update_total / updates : 0.0, "s");
  result.set("rl.cache_hit_ratio",
             traced.opt.trials
                 ? static_cast<double>(traced.opt.cache_hits) /
                       static_cast<double>(traced.opt.trials)
                 : 0.0,
             "ratio");
  result.set("rl.best_step_time_s", traced.opt.best_step_time, "s_sim");
  result.set("sim.measure_us", l.measure.mean_us(), "us");
  result.set("sim.trials", static_cast<double>(l.measure.calls), "count");
  result.set("tensor.arena_misses", static_cast<double>(traced.arena_misses),
             "count");
  return result;
}

}  // namespace mars::perfbench
