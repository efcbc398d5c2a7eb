// The traced run's per-layer metrics. Counts are exact and come from the
// public outcome structs; unit costs come from timed probe calls into each
// layer on inputs taken from the same workload. Every probe call runs under
// a span, and bench.attributed_share multiplies counts by unit costs to say
// how much of the measured span they explain.
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "core/model.h"
#include "experiments/scenarios.h"
#include "fleet/engine.h"
#include "ledger.h"
#include "obs/analysis.h"
#include "obs/export.h"
#include "protocol/session.h"
#include "server/admission.h"
#include "server/sharded_server.h"
#include "stats/convolution.h"

namespace ledger {
namespace {

using namespace dmc;

// Decisions and plans replayed per probe; short request lists are cycled.
constexpr std::size_t kProbeCalls = 1000;
constexpr std::size_t kColdPlans = 200;
constexpr std::uint64_t kSessionProbeMessages = 20000;
constexpr int kProbeReps = 21;
constexpr int kObsReps = 3;

class NullBuffer final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// Background load on each path for probe call i: a deterministic sawtooth
// between 0 and 90% of the nominal bandwidth, so successive admission
// decisions and re-plans see drifting residual capacity as they do under
// churn.
std::vector<double> background(const core::PathSet& paths, std::size_t i) {
  const double load = 0.9 * static_cast<double>((i * 37) % 100) / 100.0;
  std::vector<double> out;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    out.push_back(load * paths[p].bandwidth_bps);
  }
  return out;
}

std::vector<double> residual(const core::PathSet& paths, std::size_t i) {
  std::vector<double> out = background(paths, i);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    out[p] = paths[p].bandwidth_bps - out[p];
  }
  return out;
}

// Wall time of one call of fn, under a span.
template <typename Fn>
double timed(Tracer& tracer, const char* span_name, Fn&& fn) {
  const double t0 = now_s();
  {
    const Tracer::Scope span(&tracer, span_name);
    fn();
  }
  return now_s() - t0;
}

struct ServerProbe {
  server::ServerOutcome unobserved;
  server::ServerOutcome observed;
  double unobserved_s = 0.0;
  double observed_s = 0.0;
};

// The server over the workload's requests with observability off and on,
// interleaved; the observed run's trace feeds the obs probes.
ServerProbe probe_server(const server::ServerConfig& config,
                         const std::vector<server::SessionRequest>& requests,
                         int reps, Tracer& tracer) {
  server::ServerConfig off = config;
  off.collect_metrics = off.collect_trace = off.collect_forensics = false;
  server::ServerConfig on = config;
  on.collect_metrics = on.collect_trace = on.collect_forensics = true;
  server::ShardedSessionServer off_server(off);
  server::ShardedSessionServer on_server(on);
  ServerProbe probe;
  stats::SampleSet off_times;
  stats::SampleSet on_times;
  for (int r = 0; r < reps; ++r) {
    off_times.add(timed(tracer, "server.run_unobserved", [&] {
      probe.unobserved = off_server.run(requests);
    }));
    on_times.add(timed(tracer, "server.run_observed", [&] {
      probe.observed = on_server.run(requests);
    }));
  }
  probe.unobserved_s = off_times.quantile(0.5);
  probe.observed_s = on_times.quantile(0.5);
  if (probe.observed.trace_data == nullptr) {
    throw std::runtime_error("observed server run returned no trace");
  }
  return probe;
}

}  // namespace

void layer_metrics(Workload& workload, Tracer& tracer, double pass_untraced_s,
                   double pass_traced_s, std::uint64_t seed, Metrics& out) {
  const LayerCounts counts = workload.counts();
  const server::ServerConfig& config = workload.server_config();
  const std::vector<server::SessionRequest>& requests = workload.requests();
  const core::PathSet& paths = config.planning_paths;
  const auto request = [&](std::size_t i) -> const server::SessionRequest& {
    return requests[i % requests.size()];
  };

  // server + obs. A server workload's own traced passes give the server
  // row; the probe pair gives the observability on/off cost and a trace.
  const bool own_server = workload.runs_server();
  const int server_reps = own_server ? 1 : kObsReps;
  const ServerProbe probe = probe_server(config, requests, server_reps, tracer);
  LayerCounts server_counts = counts;
  double server_run_s = probe.unobserved_s;
  if (own_server) {
    server_run_s = tracer.durations("server.run").quantile(0.5);
  } else {
    server_counts.server_events = probe.unobserved.events;
    server_counts.replans = probe.unobserved.replans;
    server_counts.expired = probe.unobserved.expired;
    server_counts.queue_wait_mean_s = probe.unobserved.mean_queue_wait_s;
  }
  const obs::TraceData& trace = *probe.observed.trace_data;
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  const double analyze_s = median_time(kObsReps, [&] {
    const Tracer::Scope span(&tracer, "obs.analyze");
    obs::analyze(trace, config.forensics);
  });
  const double export_s = median_time(kObsReps, [&] {
    const Tracer::Scope span(&tracer, "obs.write_chrome_trace");
    obs::write_chrome_trace(null_stream, trace);
  });

  // admission: the feasibility gate on the workload's requests, sharing one
  // warm planner across decisions as the server does.
  std::unique_ptr<server::AdmissionPolicy> policy =
      server::make_policy("feasibility-lp");
  core::Planner admission_planner(config.plan_options, config.warm_start);
  server::AdmissionContext context;
  context.nominal_paths = &paths;
  context.plan_options = config.plan_options;
  context.min_quality = config.min_quality;
  context.cross_model = config.cross_model;
  context.planner = &admission_planner;
  stats::SampleSet decide_s;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    context.background_bps = background(paths, i);
    context.residual_bps = residual(paths, i);
    decide_s.add(timed(tracer, "admission.decide", [&] {
      policy->decide(request(i), context);
    }));
  }

  // core: warm plans and rhs-only re-plans through core::Planner, one-shot
  // cold plans, and the model build behind every plan.
  core::Planner planner(config.plan_options, true);
  stats::SampleSet warm_s;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    core::CrossTraffic cross = config.cross_model;
    cross.background_bps = background(paths, i);
    warm_s.add(timed(tracer, "core.plan_warm", [&] {
      planner.plan(paths, request(i).traffic, cross);
    }));
  }
  core::Planner replanner(config.plan_options, true);
  core::Plan previous = replanner.plan(paths, requests.front().traffic);
  stats::SampleSet replan_s;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    const core::ReplanDelta delta{residual(paths, i)};
    replan_s.add(timed(tracer, "core.replan", [&] {
      previous = replanner.replan(previous, delta);
    }));
  }
  stats::SampleSet cold_s;
  for (std::size_t i = 0; i < kColdPlans; ++i) {
    cold_s.add(timed(tracer, "core.plan_cold", [&] {
      core::plan_max_quality(paths, request(i).traffic, config.plan_options);
    }));
  }
  const double model_s = median_time(kProbeReps, [&] {
    const Tracer::Scope span(&tracer, "core.model_build");
    core::Model(workload.model_paths(), workload.model_traffic());
  });

  // stats: the numeric convolution behind Table V's ack-delay model.
  const core::PathSet table5 = exp::table5_paths();
  const double convolve_s = median_time(kProbeReps, [&] {
    const Tracer::Scope span(&tracer, "stats.numeric_sum_distribution");
    stats::numeric_sum_distribution(table5[0].delay_dist, table5[1].delay_dist);
  });

  // sim + protocol: one session of the workload's median request, planned
  // on the workload's paths and simulated on its true network.
  const core::TrafficSpec& traffic = request(requests.size() / 2).traffic;
  const core::Plan session_plan =
      core::plan_max_quality(paths, traffic, config.plan_options);
  const std::vector<sim::PathConfig> network = proto::to_sim_paths(
      config.true_paths, config.bandwidth_headroom, config.queue_capacity);
  proto::SessionConfig session = config.session;
  session.num_messages = kSessionProbeMessages;
  session.seed = fleet::mix_seed(seed, 4);
  std::uint64_t session_events = 0;
  const double session_s = median_time(kObsReps, [&] {
    const Tracer::Scope span(&tracer, "protocol.run_session");
    session_events = proto::run_session(session_plan, network, session).events;
  });
  const double event_s = ratio(session_s, static_cast<double>(session_events));

  // fleet: the workload's cells through run_jobs on one worker against the
  // same cells run one by one; the difference is the engine's overhead.
  const std::vector<fleet::JobSpec> jobs = workload.fleet_jobs();
  fleet::Engine engine(fleet::EngineOptions{1});
  const double run_jobs_s = timed(tracer, "fleet.run_jobs", [&] {
    fleet::run_jobs(engine, jobs);
  });
  double per_job_s = 0.0;
  for (const fleet::JobSpec& job : jobs) {
    per_job_s += timed(tracer, "fleet.run_job", [&] { fleet::run_job(job); });
  }

  // bench: counts times unit costs against the span they should explain.
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double one_shot = n(counts.lp_cold_solves + counts.plans);
  double attributed = n(counts.lp_warm_solves) * warm_s.mean();
  attributed += one_shot * cold_s.mean();
  attributed += n(counts.random_models) * model_s;
  attributed += n(counts.sim_events) * event_s;
  if (own_server && config.collect_forensics) attributed += analyze_s;
  const double span_s = own_server ? server_run_s : pass_traced_s;

  const double server_events = n(server_counts.server_events);
  out.add("server.run_s", server_run_s, "s");
  out.add("server.events", server_events, "count");
  const double per_event_s = ratio(server_run_s, server_events);
  out.add("server.ns_per_event", 1e9 * per_event_s, "ns");
  out.add("server.replans", n(server_counts.replans), "count");
  out.add("server.expired", n(server_counts.expired), "count");
  const double queue_wait_s = server_counts.queue_wait_mean_s;
  out.add("server.queue_wait_mean_s", queue_wait_s, "sim_s");
  out.add("admission.decide_us_p50", 1e6 * decide_s.quantile(0.5), "us");
  out.add("admission.decide_us_p99", 1e6 * decide_s.quantile(0.99), "us");
  out.add("core.plan_warm_us_p50", 1e6 * warm_s.quantile(0.5), "us");
  out.add("core.plan_warm_us_p99", 1e6 * warm_s.quantile(0.99), "us");
  out.add("core.replan_us_p50", 1e6 * replan_s.quantile(0.5), "us");
  out.add("core.replan_us_p99", 1e6 * replan_s.quantile(0.99), "us");
  out.add("core.plan_cold_us", 1e6 * cold_s.quantile(0.5), "us");
  out.add("core.model_build_ms", 1e3 * model_s, "ms");
  const double warm = n(counts.lp_warm_solves);
  const double cold = n(counts.lp_cold_solves);
  const double pivots = n(counts.lp_warm_pivots);
  out.add("lp.warm_solves", warm, "count");
  out.add("lp.cold_solves", one_shot + n(counts.random_models), "count");
  out.add("lp.warm_pivots", pivots, "count");
  out.add("lp.fallbacks", n(counts.lp_fallbacks), "count");
  out.add("lp.warm_ratio", ratio(warm, warm + cold), "ratio");
  out.add("lp.pivots_per_warm", ratio(pivots, warm), "ratio");
  out.add("stats.convolve_us", 1e6 * convolve_s, "us");
  out.add("sim.events", n(counts.sim_events), "count");
  out.add("sim.ns_per_event", 1e9 * event_s, "ns");
  out.add("sim.link_offered", n(counts.link_offered), "count");
  out.add("sim.link_queue_drops", n(counts.link_queue_drops), "count");
  out.add("sim.link_loss_drops", n(counts.link_loss_drops), "count");
  const double transmissions = n(counts.transmissions);
  const double retx_ratio = ratio(n(counts.retransmissions), transmissions);
  out.add("protocol.transmissions", transmissions, "count");
  out.add("protocol.retx_ratio", retx_ratio, "ratio");
  out.add("protocol.gave_up", n(counts.gave_up), "count");
  out.add("protocol.duplicates", n(counts.duplicates), "count");
  const double per_msg_s = session_s / n(kSessionProbeMessages);
  out.add("protocol.ns_per_msg", 1e9 * per_msg_s, "ns");
  out.add("obs.trace_events", n(trace.events.size() + trace.dropped), "count");
  out.add("obs.trace_dropped", n(trace.dropped), "count");
  out.add("obs.analyze_ms", 1e3 * analyze_s, "ms");
  out.add("obs.chrome_export_ms", 1e3 * export_s, "ms");
  const double on_cost = ratio(probe.observed_s, probe.unobserved_s);
  out.add("obs.on_cost_ratio", on_cost, "ratio");
  out.add("fleet.cells", n(jobs.size()), "count");
  stats::SampleSet run_jobs_spans = tracer.durations("fleet.run_jobs");
  out.add("fleet.run_jobs_s", run_jobs_spans.quantile(0.5), "s");
  out.add("fleet.engine_overhead_s", run_jobs_s - per_job_s, "s");
  out.add("bench.attributed_share", ratio(attributed, span_s), "ratio");
  const double trace_overhead = pass_traced_s / pass_untraced_s - 1.0;
  out.add("bench.trace_overhead", trace_overhead, "ratio");
}

}  // namespace ledger
