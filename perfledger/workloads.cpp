// The ledger's three workloads. Each is single-process and single-worker;
// inputs are a pure function of the seed and are built in setup(), before
// any timing. Why each workload exists is in perfledger/SHEET.md.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/units.h"
#include "experiments/scenarios.h"
#include "fleet/engine.h"
#include "fleet/grids.h"
#include "ledger.h"
#include "server/sharded_server.h"
#include "stats/rng.h"

namespace ledger {
namespace {

using namespace dmc;

// Payload bits per message, as ServerOutcome::goodput_bps counts them.
constexpr double kMessageBits =
    bytes_to_bits(proto::SessionConfig{}.message_bytes);

bool is_admitted(server::RequestFate fate) {
  return fate == server::RequestFate::admitted ||
         fate == server::RequestFate::queued_admitted;
}

void add_trace(LayerCounts& counts, const proto::Trace& trace) {
  counts.transmissions += trace.transmissions;
  counts.retransmissions += trace.retransmissions;
  counts.gave_up += trace.gave_up;
  counts.duplicates += trace.duplicates;
  counts.messages += trace.generated;
}

// Table III network, feasibility-lp admission, warm start on, 16 logical
// slices executed on one worker: the configuration both server workloads
// share.
server::ServerConfig base_server_config(std::uint64_t seed) {
  server::ServerConfig config;
  config.planning_paths = exp::table3_model_paths();
  config.true_paths = exp::table3_paths();
  config.policy = "feasibility-lp";
  config.warm_start = true;
  config.shards = 1;
  config.shard_slices = 16;
  config.seed = fleet::mix_seed(seed, 0);
  return config;
}

// admission_burst and steady_observed: one ShardedSessionServer over an
// open-loop Poisson arrival schedule in simulated time.
class ServerWorkload final : public Workload {
 public:
  ServerWorkload(server::WorkloadOptions shape, bool observed)
      : shape_(shape), observed_(observed) {}

  void setup(std::uint64_t seed) override {
    options_ = shape_;
    options_.seed = fleet::mix_seed(seed, 1);
    options_.check();
    // Poisson arrivals conditioned on `count` of them in [0, count / rate):
    // given the count, a Poisson process's instants are sorted uniforms.
    // Fixing the horizon removes the one draw that would otherwise stretch
    // or squeeze the whole run from seed to seed.
    stats::Rng rng(fleet::mix_seed(seed, 5));
    const double horizon = options_.count / options_.arrivals_per_s;
    std::vector<double> times(static_cast<std::size_t>(options_.count));
    for (double& t : times) t = rng.uniform(0.0, horizon);
    std::sort(times.begin(), times.end());
    requests_ = server::trace_arrivals(times, options_);
    config_ = base_server_config(seed);
    config_.collect_metrics = observed_;
    config_.collect_trace = observed_;
    config_.collect_forensics = observed_;
    server_ = std::make_unique<server::ShardedSessionServer>(config_);
  }

  PassResult pass(Tracer* tracer) override {
    server::ServerOutcome outcome;
    {
      const Tracer::Scope span(tracer, "server.run");
      outcome = server_->run(requests_);
    }
    PassResult result;
    check(outcome, result.errors);
    count(outcome, result.fingerprint);
    return result;
  }

  const LayerCounts& counts() const override { return counts_; }
  const std::vector<server::SessionRequest>& requests() const override {
    return requests_;
  }
  const server::ServerConfig& server_config() const override { return config_; }
  const core::PathSet& model_paths() const override {
    return config_.planning_paths;
  }
  core::TrafficSpec model_traffic() const override {
    return requests_.at(requests_.size() / 2).traffic;
  }
  std::vector<fleet::JobSpec> fleet_jobs() const override {
    const auto slices = static_cast<unsigned>(config_.shard_slices);
    fleet::ServerJob job{config_, options_, slices};
    return {fleet::JobSpec{"ledger", {}, std::move(job)}};
  }
  bool runs_server() const override { return true; }

 private:
  void check(const server::ServerOutcome& outcome,
             std::vector<std::string>& errors) const {
    if (!outcome.conserved) errors.emplace_back("link conservation failed");
    if (outcome.arrivals != requests_.size()) {
      errors.emplace_back("arrivals != requests");
    }
    const auto fates = outcome.admitted + outcome.rejected + outcome.expired;
    if (fates != outcome.arrivals) {
      errors.emplace_back("admitted + rejected + expired != arrivals");
    }
    for (const server::SessionRecord& record : outcome.sessions) {
      if (is_admitted(record.fate) && !record.trace.conserved()) {
        errors.emplace_back("session message conservation failed");
        break;
      }
    }
    const bool has_forensics = outcome.forensics.has_value();
    if (observed_ && (!has_forensics || outcome.trace_data == nullptr)) {
      errors.emplace_back("observability outputs missing");
    }
  }

  void count(const server::ServerOutcome& outcome, Fingerprint& fp) {
    counts_ = LayerCounts{};
    counts_.server_events = outcome.events;
    counts_.sim_events = outcome.events;
    counts_.replans = outcome.replans;
    counts_.expired = outcome.expired;
    counts_.queue_wait_mean_s = outcome.mean_queue_wait_s;
    counts_.lp_warm_solves = outcome.lp.warm_solves;
    counts_.lp_cold_solves = outcome.lp.cold_solves;
    counts_.lp_warm_pivots = outcome.lp.warm_pivots;
    counts_.lp_fallbacks = outcome.lp.fallbacks;
    for (const sim::LinkStats& link : outcome.forward_links) {
      counts_.link_offered += link.offered;
      counts_.link_queue_drops += link.queue_drops;
      counts_.link_loss_drops += link.loss_drops;
    }
    double predicted = 0.0;
    for (const server::SessionRecord& record : outcome.sessions) {
      if (!is_admitted(record.fate)) continue;
      add_trace(counts_, record.trace);
      fp.on_time += record.trace.on_time;
      predicted += record.predicted_quality;
    }
    fp.arrivals = outcome.arrivals;
    fp.admitted = outcome.admitted;
    fp.events = outcome.events;
    fp.lp_warm_solves = outcome.lp.warm_solves;
    fp.lp_cold_solves = outcome.lp.cold_solves;
    fp.generated = counts_.messages;
    fp.on_time_ratio = ratio(fp.on_time, fp.generated);
    fp.admission_rate = outcome.admission_rate;
    fp.goodput_mbps = outcome.goodput_bps / 1e6;
    const auto admitted = static_cast<double>(outcome.admitted);
    fp.plan_quality_mean = admitted > 0.0 ? predicted / admitted : 0.0;
  }

  server::WorkloadOptions shape_;
  bool observed_;
  server::WorkloadOptions options_;
  std::vector<server::SessionRequest> requests_;
  server::ServerConfig config_;
  std::unique_ptr<server::ShardedSessionServer> server_;
  LayerCounts counts_;
};

// paper_sweep: the Figure 2 rate grid through the fleet engine on one
// worker, next to Experiment 2 planning on the Table V gamma paths over a
// lifetime sweep at m = 2 and m = 3.
class SweepWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    fleet::GridOptions grid;
    grid.messages = kFig2Messages;
    grid.base_seed = fleet::mix_seed(seed, 2);
    grid.with_theory = true;
    jobs_ = fleet::fig2_rate_grid(grid);
    engine_ = std::make_unique<fleet::Engine>(fleet::EngineOptions{1});

    // Lifetimes 500..1000 ms in 50 ms steps, each off-grid point jittered
    // by up to 10 ms from the seed; the paper's 750 ms point stays exact
    // because it carries the 93.3% check.
    table5_ = exp::table5_paths();
    stats::Rng rng(fleet::mix_seed(seed, 3));
    exp2_.clear();
    for (int transmissions : {2, 3}) {
      for (int step = 0; step <= 10; ++step) {
        const double jitter = rng.uniform(-10.0, 10.0);
        const double grid_ms = 500.0 + 50.0 * step;
        const bool paper = grid_ms == kPaperLifetimeMs;
        Exp2Cell cell;
        cell.traffic = exp::table5_traffic();
        cell.traffic.lifetime_s = ms(paper ? grid_ms : grid_ms + jitter);
        cell.options.model.transmissions = transmissions;
        cell.paper_point = paper && transmissions == 2;
        cell.traffic.check();
        exp2_.push_back(cell);
      }
    }

    // The sweep's cells as server requests, one per second so they never
    // contend: what the admission, server and obs probes replay.
    config_ = base_server_config(seed);
    requests_.clear();
    for (const fleet::JobSpec& job : jobs_) {
      const auto& work = std::get<fleet::SingleJob>(job.work);
      server::SessionRequest request;
      request.id = requests_.size();
      request.arrival_s = static_cast<double>(requests_.size());
      request.traffic = work.traffic;
      request.num_messages = kProbeSessionMessages;
      requests_.push_back(request);
    }
  }

  PassResult pass(Tracer* tracer) override {
    PassResult result;
    std::vector<fleet::RunRecord> records;
    {
      const Tracer::Scope span(tracer, "fleet.run_jobs");
      records = fleet::run_jobs(*engine_, jobs_);
    }
    std::vector<double> exp2_quality;
    exp2_quality.reserve(exp2_.size());
    for (const Exp2Cell& cell : exp2_) {
      const Tracer::Scope span(tracer, "core.plan_max_quality");
      auto plan = core::plan_max_quality(table5_, cell.traffic, cell.options);
      exp2_quality.push_back(plan.quality());
    }

    counts_ = LayerCounts{};
    Fingerprint& fp = result.fingerprint;
    double elapsed_s = 0.0;
    double predicted = 0.0;
    if (records.size() != jobs_.size()) {
      result.errors.emplace_back("fleet returned a record count != cells");
    }
    for (const fleet::RunRecord& record : records) {
      if (!record.ok) {
        result.errors.push_back("fleet cell failed: " + record.error);
      }
      if (!record.trace.conserved()) {
        result.errors.emplace_back("fleet cell message conservation failed");
      }
      counts_.sim_events += record.events;
      counts_.plans += 1 + record.single_path_theory.size();
      for (const fleet::LinkRecord& link : record.links) {
        counts_.link_offered += link.offered;
        counts_.link_queue_drops += link.queue_drops;
        counts_.link_loss_drops += link.loss_drops;
      }
      add_trace(counts_, record.trace);
      fp.on_time += record.trace.on_time;
      elapsed_s += record.elapsed_s;
      predicted += record.theory_quality;
      fp.admitted += record.theory_quality >= config_.min_quality ? 1 : 0;
    }
    for (std::size_t i = 0; i < exp2_.size(); ++i) {
      const double quality = exp2_quality[i];
      if (exp2_[i].paper_point && std::fabs(quality - kPaperQuality) > 5e-4) {
        const std::string seen = std::to_string(quality);
        result.errors.push_back("Experiment 2 model quality != 0.933: " + seen);
      }
      predicted += quality;
      fp.admitted += quality >= config_.min_quality ? 1 : 0;
    }
    counts_.random_models = exp2_.size();

    fp.arrivals = records.size() + exp2_.size();
    fp.events = counts_.sim_events;
    fp.lp_cold_solves = counts_.plans + counts_.random_models;
    fp.generated = counts_.messages;
    fp.on_time_ratio = ratio(fp.on_time, fp.generated);
    fp.admission_rate = ratio(fp.admitted, fp.arrivals);
    const double on_time_bits = static_cast<double>(fp.on_time) * kMessageBits;
    fp.goodput_mbps = elapsed_s > 0.0 ? on_time_bits / elapsed_s / 1e6 : 0.0;
    const auto cells = static_cast<double>(fp.arrivals);
    fp.plan_quality_mean = cells > 0.0 ? predicted / cells : 0.0;
    return result;
  }

  const LayerCounts& counts() const override { return counts_; }
  const std::vector<server::SessionRequest>& requests() const override {
    return requests_;
  }
  const server::ServerConfig& server_config() const override { return config_; }
  const core::PathSet& model_paths() const override { return table5_; }
  core::TrafficSpec model_traffic() const override {
    return exp::table5_traffic();
  }
  std::vector<fleet::JobSpec> fleet_jobs() const override { return jobs_; }
  bool runs_server() const override { return false; }

 private:
  static constexpr std::uint64_t kFig2Messages = 20000;
  static constexpr std::uint64_t kProbeSessionMessages = 1000;
  static constexpr double kPaperLifetimeMs = 750.0;
  // The paper reports 93.3% model quality for Experiment 2.
  static constexpr double kPaperQuality = 0.933;

  struct Exp2Cell {
    core::TrafficSpec traffic;
    core::PlanOptions options;
    bool paper_point = false;
  };

  std::vector<fleet::JobSpec> jobs_;
  std::unique_ptr<fleet::Engine> engine_;
  core::PathSet table5_;
  std::vector<Exp2Cell> exp2_;
  server::ServerConfig config_;
  std::vector<server::SessionRequest> requests_;
  LayerCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "admission_burst") {
    // Far above the 100 Mbps Table III capacity: every departure retries
    // the queue, so admission and warm LP re-solves carry the run.
    server::WorkloadOptions shape;
    shape.count = 2000;
    shape.arrivals_per_s = 200.0;
    shape.mean_messages = 60;
    shape.mean_rate_bps = mbps(30);
    return std::make_unique<ServerWorkload>(shape, false);
  }
  if (name == "steady_observed") {
    // Nearly everything is admitted; simulator events, per-packet trace
    // recording and the end-of-run analyzer carry the run.
    server::WorkloadOptions shape;
    shape.count = 400;
    shape.arrivals_per_s = 5.0;
    shape.mean_messages = 400;
    shape.mean_rate_bps = mbps(10);
    return std::make_unique<ServerWorkload>(shape, true);
  }
  if (name == "paper_sweep") return std::make_unique<SweepWorkload>();
  return nullptr;
}

}  // namespace ledger
