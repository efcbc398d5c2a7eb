// Shared pieces of the dmc performance ledger: the wall clock, order
// statistics, the metric list a run prints, the span recorder of the traced
// run, and the workload interface the driver in ledger.cpp times.
//
// The ledger only calls the library's public API from outside; nothing in
// src/ is instrumented. End-to-end figures come from untraced passes; the
// traced run records spans around each call into a layer and adds timed
// probe calls on inputs taken from the same workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/path.h"
#include "fleet/job.h"
#include "server/arrivals.h"
#include "server/server.h"
#include "stats/summary.h"

namespace ledger {

// Seconds on a monotonic clock; the one place the ledger reads time.
double now_s();

// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Median wall time (seconds) of `reps` calls of fn.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  dmc::stats::SampleSet times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    times.add(now_s() - t0);
  }
  return times.quantile(0.5);
}

// One JSON object, built field by field in insertion order. Values are
// already rendered JSON (see num(), count() and text()).
class JsonObject {
 public:
  JsonObject& add(std::string_view key, const std::string& value);
  std::string str() const;

 private:
  std::string fields_;
};

// JSON values: a number (shortest round-trip, null when not finite), an
// unsigned integer, and a quoted, escaped string.
std::string num(double value);
std::string count(std::uint64_t value);
std::string text(std::string_view value);

// The metrics a run prints: {"name":{"value":v,"unit":"u"},...}.
class Metrics {
 public:
  void add(std::string_view name, double value, std::string_view unit);
  std::string json() const { return metrics_.str(); }

 private:
  JsonObject metrics_;
};

// In-memory span recorder for the traced run. A span covers one call into
// a layer; its layer is the name's prefix before the first '.'. Spans nest
// through an explicit stack (the ledger is single-threaded), so a span's
// self time is its duration minus the time its direct children cover.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  // Durations of every closed span called `name`.
  dmc::stats::SampleSet durations(std::string_view name) const;
  // Self time summed per layer over all spans.
  std::vector<std::pair<std::string, double>> layer_self_times() const;
  // {"self_s_by_layer":{...},"spans":[...]}, times relative to the first
  // span's start.
  std::string json() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

// The deterministic outcome of one pass. Every pass of a run must produce
// the same fingerprint, the traced passes included; for the default seed it
// must also match perfledger/recorded.json.
struct Fingerprint {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t events = 0;
  std::uint64_t lp_warm_solves = 0;
  std::uint64_t lp_cold_solves = 0;
  std::uint64_t on_time = 0;
  std::uint64_t generated = 0;
  double on_time_ratio = 0.0;
  double admission_rate = 0.0;
  double goodput_mbps = 0.0;
  double plan_quality_mean = 0.0;

  bool operator==(const Fingerprint&) const = default;
  std::string json() const;
};

// Result of one pass: its fingerprint plus every output check that failed.
struct PassResult {
  Fingerprint fingerprint;
  std::vector<std::string> errors;
};

// Exact per-layer counts of one pass, read from the public outcome structs.
struct LayerCounts {
  std::uint64_t server_events = 0;
  std::uint64_t replans = 0;
  std::uint64_t expired = 0;
  double queue_wait_mean_s = 0.0;  // simulated seconds
  std::uint64_t lp_warm_solves = 0;
  std::uint64_t lp_cold_solves = 0;
  std::uint64_t lp_warm_pivots = 0;
  std::uint64_t lp_fallbacks = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t link_offered = 0;
  std::uint64_t link_queue_drops = 0;
  std::uint64_t link_loss_drops = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t duplicates = 0;
  // Generated messages.
  std::uint64_t messages = 0;
  // One-shot plans over deterministic paths, and over random-delay paths.
  std::uint64_t plans = 0;
  std::uint64_t random_models = 0;
};

// One benchmark workload. setup() is the timed set-up (input generation
// from the seed, config check(), construction); pass() is one timed pass.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup(std::uint64_t seed) = 0;
  // Runs the workload once. With a tracer, records a span around each call
  // into a layer; without one, touches no tracing code.
  virtual PassResult pass(Tracer* tracer) = 0;
  // Counts of the most recent pass.
  virtual const LayerCounts& counts() const = 0;

  // Inputs the per-layer probes replay: the requests an admission gate
  // would judge, the server configuration they are judged under, and the
  // model paths and traffic whose plans the workload builds.
  virtual const std::vector<dmc::server::SessionRequest>& requests() const = 0;
  virtual const dmc::server::ServerConfig& server_config() const = 0;
  virtual const dmc::core::PathSet& model_paths() const = 0;
  virtual dmc::core::TrafficSpec model_traffic() const = 0;
  // The workload as fleet cells, for the fleet engine's overhead probe.
  virtual std::vector<dmc::fleet::JobSpec> fleet_jobs() const = 0;
  // True when pass() itself runs the server; otherwise the server and obs
  // rows come from a probe server run over requests().
  virtual bool runs_server() const = 0;
};

// "admission_burst", "steady_observed" or "paper_sweep"; null on any other
// name.
std::unique_ptr<Workload> make_workload(const std::string& name);

// Per-layer metrics of the traced run: probes on the workload's inputs,
// spans, attribution. `pass_untraced_s` and `pass_traced_s` are the median
// wall times of the run's interleaved untraced and traced passes.
void layer_metrics(Workload& workload, Tracer& tracer, double pass_untraced_s,
                   double pass_traced_s, std::uint64_t seed, Metrics& out);

}  // namespace ledger
