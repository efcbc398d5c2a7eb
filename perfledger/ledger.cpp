// dmc_ledger: times one workload of the dmc performance ledger.
//
//   dmc_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <file>]
//
// --trace 0 prints the end-to-end metrics from untraced passes; --trace 1
// interleaves untraced and traced passes, runs the per-layer probes and
// prints the per-layer metrics (and writes the spans to --spans). Every
// pass is checked; the last stdout line is the result object
// {"correct","attempted","failed","metrics"}, the line before it a detail
// object with host facts, the pass fingerprint and any check failures.
// perfledger/run.py builds this program and is the benchmark's entry point.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "ledger.h"
#include "obs/export.h"
#include "util/format.h"
#include "util/parse.h"

// Timings of a debug or sanitizer build say nothing about the program.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DMC_LEDGER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DMC_LEDGER_SANITIZED 1
#elif __has_feature(memory_sanitizer)
#define DMC_LEDGER_SANITIZED 1
#elif __has_feature(undefined_behavior_sanitizer)
#define DMC_LEDGER_SANITIZED 1
#endif
#endif

namespace ledger {

double now_s() {
  // dmc-lint: allow(det-wallclock) the ledger times passes; no result reads it
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

JsonObject& JsonObject::add(std::string_view key, const std::string& value) {
  fields_ += fields_.empty() ? "{" : ",";
  fields_ += text(key) + ":" + value;
  return *this;
}

std::string JsonObject::str() const {
  return fields_.empty() ? "{}" : fields_ + "}";
}

std::string num(double value) { return dmc::obs::json_number(value); }
std::string count(std::uint64_t value) { return dmc::util::to_decimal(value); }
std::string text(std::string_view value) {
  return dmc::obs::json_string(value);
}

void Metrics::add(std::string_view name, double value, std::string_view unit) {
  JsonObject metric;
  metric.add("value", num(value)).add("unit", text(unit));
  metrics_.add(name, metric.str());
}

std::string Fingerprint::json() const {
  JsonObject out;
  out.add("arrivals", count(arrivals)).add("admitted", count(admitted));
  out.add("events", count(events));
  out.add("lp_warm_solves", count(lp_warm_solves));
  out.add("lp_cold_solves", count(lp_cold_solves));
  out.add("on_time", count(on_time)).add("generated", count(generated));
  out.add("on_time_ratio", num(on_time_ratio));
  out.add("admission_rate", num(admission_rate));
  out.add("goodput_mbps", num(goodput_mbps));
  out.add("plan_quality_mean", num(plan_quality_mean));
  return out.str();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  std::vector<Span>& spans = tracer_->spans_;
  Span span;
  span.id = static_cast<std::uint32_t>(spans.size() + 1);
  if (!tracer_->open_.empty()) span.parent = spans[tracer_->open_.back()].id;
  span.name = name;
  index_ = spans.size();
  spans.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  spans[index_].start_s = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = now_s();
  tracer_->open_.pop_back();
}

dmc::stats::SampleSet Tracer::durations(std::string_view name) const {
  dmc::stats::SampleSet out;
  for (const Span& span : spans_) {
    if (span.name == name) out.add(span.end_s - span.start_s);
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::layer_self_times() const {
  // Span ids are dense from 1, so a child's parent indexes child_time.
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    child_time[span.parent] += span.end_s - span.start_s;
  }
  std::vector<std::pair<std::string, double>> layers;
  for (const Span& span : spans_) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    const double self = span.end_s - span.start_s - child_time[span.id];
    const auto same = [&](const auto& entry) { return entry.first == layer; };
    const auto it = std::find_if(layers.begin(), layers.end(), same);
    if (it == layers.end()) {
      layers.emplace_back(layer, self);
    } else {
      it->second += self;
    }
  }
  return layers;
}

std::string Tracer::json() const {
  JsonObject layers;
  for (const auto& [layer, self_s] : layer_self_times()) {
    layers.add(layer, num(self_s));
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::string spans = "[";
  for (const Span& span : spans_) {
    JsonObject entry;
    entry.add("id", count(span.id)).add("parent", count(span.parent));
    entry.add("name", text(span.name));
    entry.add("start_s", num(span.start_s - origin));
    entry.add("end_s", num(span.end_s - origin));
    if (spans.size() > 1) spans += ",";
    spans += "\n" + entry.str();
  }
  JsonObject out;
  out.add("self_s_by_layer", layers.str()).add("spans", spans + "]");
  return out.str();
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  using dmc::util::parse_number;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = dmc::util::parse_positive<double>(flag, value);
    } else if (flag == "--trace") {
      const int trace = parse_number<int>(flag, value);
      if (trace != 0 && trace != 1) {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = trace == 1;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  return args;
}

std::string load_average() {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) return "null";
  return "[" + num(load[0]) + "," + num(load[1]) + "," + num(load[2]) + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Runs passes and keeps the run's bookkeeping: every pass is checked and
// its fingerprint compared with the first pass's.
class Runner {
 public:
  explicit Runner(Workload& workload) : workload_(workload) {}

  // Returns the pass's wall time in seconds.
  double run(Tracer* tracer) {
    ++attempted_;
    PassResult result;
    const double t0 = now_s();
    try {
      const Tracer::Scope span(tracer, "bench.pass");
      result = workload_.pass(tracer);
    } catch (const std::exception& error) {
      result.errors.push_back(std::string("pass threw: ") + error.what());
    }
    const double wall = now_s() - t0;
    if (!reference_) {
      reference_ = result.fingerprint;
    } else if (!(result.fingerprint == *reference_)) {
      const std::string seen = result.fingerprint.json();
      result.errors.push_back("fingerprint differs from the first: " + seen);
    }
    if (!result.errors.empty()) {
      ++failed_;
      errors_.insert(errors_.end(), result.errors.begin(), result.errors.end());
    }
    return wall;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const Fingerprint& reference() const { return *reference_; }

  // The first few check failures as a JSON array.
  std::string errors_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < errors_.size() && i < 20; ++i) {
      if (i > 0) out += ",";
      out += text(errors_[i]);
    }
    return out + "]";
  }

 private:
  Workload& workload_;
  std::optional<Fingerprint> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// Set-up is short, so it is repeated until it has taken kSetupBudgetS and
// at least kSetupMinReps times; its median is reported.
constexpr double kSetupBudgetS = 0.5;
constexpr std::size_t kSetupMinReps = 21;
constexpr std::size_t kSetupMaxReps = 20001;
// Timed passes: at least this many, more until --seconds has elapsed.
// peak_rss_mb is read once this many have run, so it covers the same work
// however many passes the host's speed lets a run make.
constexpr std::size_t kMinPasses = 5;

std::string host_json(const std::string& load_start) {
#if defined(__OPTIMIZE__)
  const char* optimized = "true";
#else
  const char* optimized = "false";
#endif
  JsonObject host;
  host.add("nproc", count(std::thread::hardware_concurrency()));
  host.add("load_start", load_start).add("load_end", load_average());
  host.add("compiler", text(__VERSION__)).add("optimized", optimized);
  return host.str();
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "dmc_ledger: unknown workload " << args.workload << "\n";
    return 2;
  }
  const std::string load_start = load_average();

  dmc::stats::SampleSet setup_times;
  const double setup_start = now_s();
  while (setup_times.count() < kSetupMaxReps &&
         (setup_times.count() < kSetupMinReps ||
          now_s() - setup_start < kSetupBudgetS)) {
    const double t0 = now_s();
    workload->setup(args.seed);
    setup_times.add(now_s() - t0);
  }

  Runner runner(*workload);
  runner.run(nullptr);  // warm-up: fills caches, fixes the reference
  Tracer tracer;
  dmc::stats::SampleSet untraced;
  dmc::stats::SampleSet traced;
  double rss_mb = 0.0;
  const double start = now_s();
  while (untraced.count() < kMinPasses || now_s() - start < args.seconds) {
    untraced.add(runner.run(nullptr));
    if (args.trace) traced.add(runner.run(&tracer));
    if (untraced.count() == kMinPasses) rss_mb = peak_rss_mb();
  }

  Metrics metrics;
  if (args.trace) {
    const double untraced_s = untraced.quantile(0.5);
    const double traced_s = traced.quantile(0.5);
    layer_metrics(*workload, tracer, untraced_s, traced_s, args.seed, metrics);
    if (!args.spans.empty()) {
      std::ofstream out(args.spans);
      out << tracer.json() << "\n";
      if (!out) std::cerr << "dmc_ledger: cannot write " << args.spans << "\n";
    }
  } else {
    const Fingerprint& fp = runner.reference();
    metrics.add("wall_s", untraced.quantile(0.5), "s");
    metrics.add("setup_s", setup_times.quantile(0.5), "s");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    metrics.add("on_time_ratio", fp.on_time_ratio, "ratio");
    metrics.add("admission_rate", fp.admission_rate, "ratio");
    metrics.add("goodput_mbps", fp.goodput_mbps, "Mbps");
    metrics.add("plan_quality_mean", fp.plan_quality_mean, "ratio");
  }

  std::string quartiles = "[" + num(untraced.quantile(0.25));
  quartiles += "," + num(untraced.quantile(0.5));
  quartiles += "," + num(untraced.quantile(0.75)) + "]";
  JsonObject detail;
  detail.add("workload", text(args.workload)).add("seed", count(args.seed));
  detail.add("trace", args.trace ? "true" : "false");
  detail.add("passes", count(untraced.count()));
  detail.add("traced_passes", count(traced.count()));
  detail.add("setup_reps", count(setup_times.count()));
  detail.add("pass_s_quartiles", quartiles);
  detail.add("peak_rss_mb_at_end", num(peak_rss_mb()));
  detail.add("fingerprint", runner.reference().json());
  detail.add("errors", runner.errors_json());
  detail.add("host", host_json(load_start));
  const bool correct = runner.failed() == 0;
  JsonObject result;
  result.add("correct", correct ? "true" : "false");
  result.add("attempted", count(runner.attempted()));
  result.add("failed", count(runner.failed()));
  result.add("metrics", metrics.json());
  std::cout << JsonObject().add("detail", detail.str()).str() << "\n";
  std::cout << result.str() << "\n";
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(DMC_LEDGER_SANITIZED)
  (void)argc;
  (void)argv;
  std::cerr << "dmc_ledger: refusing to time an unoptimized or sanitizer "
               "build; configure with CMAKE_BUILD_TYPE=Release\n";
  return 3;
#else
  try {
    return ledger::run(ledger::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "dmc_ledger: " << error.what() << "\n";
    return 2;
  }
#endif
}
