// hostbench: the measuring binary of the simulator's host-cost benchmark.
//
// Runs one named workload against the shieldsim library for a fixed wall
// time and prints one raw JSON document (hostbench-raw-v1) on stdout:
// per-pass host timings, per-scenario spans, result digests and the probe
// maxima the correctness gate checks. Everything is measured from outside
// the library by timing calls into its public API:
//
//   ScenarioRunner::run_batch_report + BatchObserver  per-scenario spans
//   Supervisor::run + CampaignJournal                 supervised campaigns
//   ScenarioRunner::run + Hooks                       build/simulate/extract
//   ScenarioResult::to_json / from_json               serialize/parse
//   Engine::telemetry() / events_executed()           exact work counts
//
// hostbench/run.py builds this binary, derives the metrics from the raw
// document and applies the correctness gate; run it through that script.
//
// Usage: hostbench --workload NAME --seed N --seconds S [--trace 0|1]
//                  [--scale X] [--specs DIR] [--tmp DIR] [--trace-out FILE]
#include <poll.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/experiment.h"
#include "config/journal.h"
#include "config/json.h"
#include "config/platform.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "config/supervisor.h"
#include "rt/probe.h"
#include "sim/rng.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using config::json::Value;
using Clock = std::chrono::steady_clock;

const Clock::time_point kT0 = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kT0)
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::int64_t cpu_ns(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1'000;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::int64_t process_cpu_ns() {
  return cpu_ns(RUSAGE_SELF) + cpu_ns(RUSAGE_CHILDREN);
}

/// Peak resident set of this process plus the largest reaped child, MB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Fixed integer work whose wall time tracks host speed: timed before and
/// after the workload so host-speed drift is visible in every run record.
double calibration_s() {
  const std::int64_t t = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  __asm__ volatile("" : : "r"(x));  // keep the loop
  return seconds(now_ns() - t);
}

// ---- spans (trace-event-v1) -------------------------------------------------

struct Span {
  std::string name;
  int tid = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Record a completed span; returns its id (-1 when tracing is off).
  int add(std::string name, int tid, std::int64_t start, std::int64_t end,
          int parent) {
    if (!on_) return -1;
    const std::scoped_lock hold(mu_);
    spans_.push_back({std::move(name), tid, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Chrome Trace Event document. One track per nesting depth and worker
  /// lane, so spans on a track never overlap; args mirror exact ns and
  /// carry the span id and parent id for self-time computation.
  [[nodiscard]] Value to_json(const std::map<int, std::string>& tracks) const {
    Value events = Value::array();
    for (const auto& [tid, label] : tracks) {
      Value m = Value::object();
      m.set("name", "thread_name");
      m.set("ph", "M");
      m.set("pid", 0);
      m.set("tid", tid);
      Value a = Value::object();
      a.set("name", label);
      m.set("args", std::move(a));
      events.push(std::move(m));
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Value e = Value::object();
      e.set("name", s.name);
      e.set("cat", "hostbench");
      e.set("ph", "X");
      e.set("pid", 0);
      e.set("tid", s.tid);
      e.set("ts", static_cast<double>(s.start / 1000) +
                      static_cast<double>(s.start % 1000) / 1000.0);
      const std::int64_t dur = s.end - s.start;
      e.set("dur", static_cast<double>(dur / 1000) +
                       static_cast<double>(dur % 1000) / 1000.0);
      Value a = Value::object();
      a.set("ns", s.start);
      a.set("dur_ns", dur);
      a.set("id", static_cast<int>(i));
      a.set("parent", s.parent);
      e.set("args", std::move(a));
      events.push(std::move(e));
    }
    Value other = Value::object();
    other.set("schema", "trace-event-v1");
    other.set("source", "hostbench");
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("otherData", std::move(other));
    return doc;
  }

 private:
  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Track ids.
constexpr int kPassTrack = 0;
constexpr int kSetupTrack = 1;
constexpr int kLaneTrack = 10;  // + lane: per-scenario spans
constexpr int kStageTrack = 100;  // stage pass: scenario, then 101/102 nested

/// Greedy interval-to-lane assignment: a lane's spans never overlap.
std::vector<int> assign_lanes(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::vector<std::size_t> order(iv.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return iv[a] < iv[b]; });
  std::vector<std::int64_t> lane_end;
  std::vector<int> lane(iv.size(), 0);
  for (const std::size_t i : order) {
    std::size_t l = 0;
    while (l < lane_end.size() && lane_end[l] > iv[i].first) ++l;
    if (l == lane_end.size()) lane_end.push_back(0);
    lane_end[l] = iv[i].second;
    lane[i] = static_cast<int>(l);
  }
  return lane;
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  bool all_registry = false;
  std::vector<std::string> registry;    // registry spec names
  std::vector<std::string> spec_files;  // relative to --specs
  bool supervised = false;
  bool prefix_reuse = false;
  bool serial = false;  // one thread; otherwise nproc workers
  double scale = 0.01;
  int sweep_seeds = 1;  // root seeds per pass (campaigns)
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    Workload r;
    r.name = "registry";
    r.all_registry = true;
    r.prefix_reuse = true;  // shieldctl run's default path
    r.scale = 0.05;
    w.push_back(r);
  }
  {
    Workload s;
    s.name = "stress-serial";
    s.registry = {"fig5", "cyclic-vanilla", "fig7"};
    s.spec_files = {"fig7-quad.json"};
    s.serial = true;
    s.scale = 0.01;
    w.push_back(s);
  }
  {
    Workload o;
    o.name = "observed";
    o.spec_files = {"observed/fig5.json", "observed/cyclic-vanilla.json",
                    "observed/fig7.json", "observed/fig7-quad.json"};
    o.serial = true;
    o.scale = 0.01;
    w.push_back(o);
  }
  {
    Workload s;
    s.name = "seed-sweep";
    // Of the determinism figures, only the shielded/unshielded pair fig2
    // and fig3, which share a prefix. They finish in ~3 ms against ~0.2 s
    // for the stress specs. With fig1 and fig4 too, 16 of a pass's 36
    // scenarios were ms-scale, and the scenario-time median sat on the
    // edge between the two groups, where it spread more across runs than
    // the rates did. The registry workload runs fig1 and fig4.
    s.registry = {"fig2", "fig3", "fig5", "fig6", "preempt-lowlat", "fig7"};
    s.spec_files = {"fig7-quad.json"};
    s.supervised = true;
    s.prefix_reuse = true;
    s.scale = 0.02;  // where the fig6 < preempt-lowlat < fig5 check holds
    s.sweep_seeds = 4;
    w.push_back(s);
  }
  return w;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Spec loading and validation: the first part of every pass's set-up.
std::vector<config::ScenarioSpec> load_specs(const Workload& w,
                                             const std::string& dir) {
  const auto& reg = config::ScenarioRegistry::builtin();
  std::vector<config::ScenarioSpec> specs;
  if (w.all_registry) specs = reg.all();
  for (const auto& n : w.registry) {
    const auto* s = reg.find(n);
    if (s == nullptr) throw std::runtime_error("no registry spec " + n);
    specs.push_back(*s);
  }
  for (const auto& f : w.spec_files) {
    specs.push_back(config::ScenarioSpec::from_json(
        Value::parse(read_text(dir + "/" + f))));
  }
  for (const auto& s : specs) s.validate();
  return specs;
}

std::uint64_t sweep_root(std::uint64_t seed, int k) {
  return sim::derive_seed(seed, "hostbench-sweep#" + std::to_string(k));
}

unsigned host_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---- one pass ---------------------------------------------------------------

/// One scenario as the workload ran it.
struct Scenario {
  std::string name;
  int campaign = 0;  // root-seed index (seed-sweep), else 0
  std::int64_t queued = -1;  // batch (campaign) start
  std::int64_t started = -1;
  std::int64_t finished = -1;
  bool ok = false;
  std::string status;
  std::optional<config::ScenarioResult> result;
};

/// Follows a campaign journal as the supervisor appends to it and stamps
/// each start/done record with the host time it became visible.
class JournalFollower {
 public:
  JournalFollower(std::string path, std::vector<Scenario>& out,
                  std::map<std::string, std::size_t> index)
      : path_(std::move(path)), out_(out), index_(std::move(index)) {
    fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ < 0 || inotify_add_watch(fd_, path_.c_str(), IN_MODIFY) < 0) {
      if (fd_ >= 0) close(fd_);
      throw std::runtime_error("inotify on " + path_ + " failed");
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~JournalFollower() { join(); }
  JournalFollower(const JournalFollower&) = delete;
  JournalFollower& operator=(const JournalFollower&) = delete;

  /// Join the follower and read the journal's tail; rethrows a failure
  /// the follower thread hit.
  void stop() {
    join();
    if (error_) std::rethrow_exception(error_);
    drain();  // whatever the last wakeup missed
  }

 private:
  void join() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    close(fd_);
  }

  void loop() {
    pollfd p{fd_, POLLIN, 0};
    char buf[4096];
    try {
      while (!stop_.load()) {
        if (poll(&p, 1, 20) > 0) {
          while (read(fd_, buf, sizeof buf) > 0) {
          }
          drain();
        }
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  void drain() {
    std::ifstream in(path_, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(offset_));
    std::string chunk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const std::int64_t t = now_ns();
    pending_ += chunk;
    offset_ += chunk.size();
    std::size_t nl = 0;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      const std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      const Value env = Value::parse(line);
      const Value& rec = *env.find("record");
      const std::string& ev = rec.find("event")->as_string();
      if (ev != "start" && ev != "done") continue;
      const auto it = index_.find(rec.find("name")->as_string());
      if (it == index_.end()) continue;
      Scenario& s = out_[it->second];
      if (ev == "start" && s.started < 0) s.started = t;
      if (ev == "done") s.finished = t;
    }
  }

  std::string path_;
  std::vector<Scenario>& out_;
  std::map<std::string, std::size_t> index_;
  int fd_ = -1;
  std::size_t offset_ = 0;
  std::string pending_;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;  // read only after the join
  std::thread thread_;  // last: uses the members above
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = -1.0;  // <0: the workload's own
  std::string specs = "hostbench/specs";
  std::string tmp = ".bench_build/tmp";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\n"
               "usage: hostbench --workload registry|stress-serial|observed|"
               "seed-sweep --seed N --seconds S [--trace 0|1] [--scale X]\n"
               "                 [--specs DIR] [--tmp DIR] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scale") {
      a.scale = std::stod(v);
    } else if (k == "--specs") {
      a.specs = v;
    } else if (k == "--tmp") {
      a.tmp = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// The scenario-time tail is p90, so a run times at least this many
/// scenarios: ten beyond the percentile.
constexpr std::size_t kMinScenarios = 100;

/// Every pass runs at one root seed, so a run makes at least two passes
/// and the correctness gate can compare their digests.
constexpr int kMinPasses = 2;

config::ScenarioRunner::Options runner_options(const Workload& w,
                                               double scale) {
  config::ScenarioRunner::Options ro;
  ro.jobs = w.serial ? 1 : host_workers();
  ro.scale = scale;
  ro.prefix_reuse = w.prefix_reuse;
  return ro;
}

std::uint64_t journal_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

struct Pass {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t cpu = 0;
  unsigned workers = 1;
  std::vector<std::int64_t> campaign_start;  // set-up begins, per campaign
  std::vector<Scenario> scenarios;
  std::uint64_t prefix_hits = 0, prefix_misses = 0;
  std::uint64_t spawns = 0, respawns = 0, requeues = 0;
  std::uint64_t journal_records = 0, journal_bytes = 0;
};

/// One pass: load + validate the specs, build the runner (or supervisor
/// and journal), run every spec once — at every sweep root seed for
/// seed-sweep. Scenarios come back campaign-major, in spec order.
Pass run_pass(const Workload& w, const Args& a, double scale, int pass_no) {
  Pass p;
  p.start = now_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  const auto specs = load_specs(w, a.specs);
  const auto record = [&p](config::BatchReport& report, std::size_t base) {
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      Scenario& s = p.scenarios[base + i];
      auto& out = report.outcomes[i];
      s.ok = out.ok();
      s.status = config::to_string(out.status);
      s.result = std::move(out.result);
    }
  };
  std::vector<std::string> journals;
  if (!w.supervised) {
    config::ScenarioRunner runner(runner_options(w, scale));
    p.workers = runner.options().jobs;
    p.scenarios.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      p.scenarios[i].name = specs[i].name;
    }
    config::ScenarioRunner::BatchObserver obs;
    obs.started = [&p](std::size_t i, const config::ScenarioSpec&,
                       std::uint64_t) { p.scenarios[i].started = now_ns(); };
    obs.finished = [&p](std::size_t i, const config::ScenarioSpec&,
                        const config::RunOutcome&) {
      p.scenarios[i].finished = now_ns();
    };
    p.campaign_start.push_back(p.start);
    const std::int64_t queued = now_ns();
    for (auto& s : p.scenarios) s.queued = queued;
    auto report = runner.run_batch_report(specs, a.seed, obs);
    p.end = now_ns();
    record(report, 0);
    p.prefix_hits = report.prefix_hits;
    p.prefix_misses = report.prefix_misses;
  } else {
    p.workers = host_workers();
    for (int k = 0; k < w.sweep_seeds; ++k) {
      p.campaign_start.push_back(k == 0 ? p.start : now_ns());
      const std::uint64_t root = sweep_root(a.seed, k);
      const std::string dir = a.tmp + "/p" + std::to_string(pass_no) + "-s" +
                              std::to_string(k);
      std::filesystem::remove_all(dir);
      config::CampaignJournal journal(dir);
      journals.push_back(journal.path());
      journal.write_campaign(root, scale, specs.size());
      const std::size_t base = p.scenarios.size();
      std::map<std::string, std::size_t> index;
      p.scenarios.resize(base + specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        index[specs[i].name] = base + i;
        p.scenarios[base + i].name = specs[i].name;
        p.scenarios[base + i].campaign = k;
      }
      config::Supervisor::Options so;
      so.workers = static_cast<int>(p.workers);
      so.runner = runner_options(w, scale);
      config::Supervisor sup(so);
      config::BatchReport report;
      {
        JournalFollower follow(journal.path(), p.scenarios, index);
        const std::int64_t queued = now_ns();
        for (std::size_t i = base; i < p.scenarios.size(); ++i) {
          p.scenarios[i].queued = queued;
        }
        report = sup.run(specs, root, &journal);
        follow.stop();
      }
      record(report, base);
      p.prefix_hits += report.prefix_hits;
      p.prefix_misses += report.prefix_misses;
      const auto& st = sup.stats();
      p.spawns += st.spawns;
      p.respawns += st.respawns;
      p.requeues += st.requeues;
    }
    p.end = now_ns();
  }
  p.cpu = process_cpu_ns() - cpu0;
  for (const auto& path : journals) {
    p.journal_records += journal_lines(path);
    p.journal_bytes += std::filesystem::file_size(path);
  }
  return p;
}

/// Serialized result without its seed field: equal across root seeds
/// exactly when the seed did not change the simulation.
std::string seed_stripped_digest(const Value& result) {
  Value v = Value::object();
  for (const auto& [k, val] : result.members()) {
    if (k != "seed") v.set(k, val);
  }
  return config::json::content_digest(v);
}

std::string results_digest(const std::vector<Value>& results) {
  Value arr = Value::array();
  for (const auto& r : results) arr.push(r);
  return config::json::content_digest(arr);
}

/// Registry series summed into the exact work counts (summed over cells).
const std::vector<std::pair<std::string, std::string>> kCounts = {
    {"kernel.syscalls", "kernel.syscalls"},
    {"sched.switches", "kernel.switches"},
    {"kernel.hardirqs", "kernel.hardirqs"},
    {"kernel.softirq_raised", "kernel.softirqs_raised"},
    {"lock.acquisitions", "kernel.lock_acquisitions"},
    {"lock.contentions", "kernel.lock_contentions"},
    {"kernel.oob_preemptions", "kernel.oob_preemptions"},
    {"fault.events", "fault.fired"},
};

/// The traced stage pass: every spec once, serially and cold, through
/// ScenarioRunner::run with Hooks, then serialized and parsed back. The
/// same run without hooks, interleaved, prices the tracing itself.
Value stage_pass(const Workload& w, const Args& a, double scale,
                 SpanLog& spans) {
  const auto specs = load_specs(w, a.specs);
  const std::uint64_t root = w.supervised ? sweep_root(a.seed, 0) : a.seed;
  config::ScenarioRunner::Options ro;
  ro.jobs = 1;
  ro.scale = scale;
  ro.cache = false;
  config::ScenarioRunner runner(ro);

  std::map<std::string, std::uint64_t> counts;
  for (const auto& [series, name] : kCounts) counts[name] = 0;
  std::uint64_t events = 0, sim_ns = 0, samples = 0, points = 0, blamed = 0;
  std::int64_t build = 0, simulate = 0, extract = 0, serialize = 0,
               parse = 0, self = 0, hooked_ns = 0, plain_ns = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const std::uint64_t seed =
        sim::derive_seed(root, sim::SeedDomain::kBatch, spec.name);
    // The same run without hooks prices the tracing; alternate which of
    // the two goes first so warm-up favours neither.
    const auto plain = [&] {
      const std::int64_t t = now_ns();
      (void)runner.run(spec, seed);
      const std::int64_t end = now_ns();
      plain_ns += end - t;
      spans.add("untraced " + spec.name, kStageTrack, t, end, -1);
    };
    if (i % 2 == 0) plain();
    std::int64_t configured = 0, finished = 0, counted = 0;
    config::ScenarioRunner::Hooks hooks;
    hooks.configured = [&](config::Platform&) { configured = now_ns(); };
    hooks.finished = [&](config::Platform& pf, rt::Probe&) {
      finished = now_ns();
      events += pf.engine().events_executed();
      for (const auto& s : pf.engine().telemetry().snapshot()) {
        const std::string base = s.series.substr(0, s.series.find('['));
        if (base == "fault.events" &&
            s.series.find("skipped_specs") != std::string::npos) {
          continue;
        }
        for (const auto& [series, name] : kCounts) {
          if (base == series) counts[name] += s.value;
        }
      }
      counted = now_ns();
    };
    // The runner keys every run by the spec digest; its cost is the
    // runner's own share of the run() span, timed here beside it.
    const std::int64_t td = now_ns();
    (void)spec.digest();
    const std::int64_t t0 = now_ns();
    const auto r = runner.run(spec, seed, hooks);
    const std::int64_t t1 = now_ns();
    const std::string text = r.to_json().dump();
    const std::int64_t t2 = now_ns();
    const auto back = config::ScenarioResult::from_json(Value::parse(text));
    const std::int64_t t3 = now_ns();
    if (i % 2 == 1) plain();
    if (back.to_json().dump() != text) {
      throw std::runtime_error("result of " + spec.name +
                               " does not round-trip through JSON");
    }
    sim_ns += r.duration_ns;
    samples += r.probe.collected;
    if (const Value* tl = r.telemetry.find("timeline")) {
      points += tl->find("points")->items().size();
    }
    if (const Value* at = r.telemetry.find("attribution")) {
      blamed += at->find("samples_seen")->as_u64();
    }
    build += configured - t0;
    simulate += finished - configured;
    extract += t1 - counted;
    serialize += t2 - t1;
    parse += t3 - t2;
    self += t0 - td;
    hooked_ns += t1 - t0;
    const int top = spans.add("stage " + spec.name, kStageTrack, td, t3, -1);
    spans.add("digest", kStageTrack + 1, td, t0, top);
    const int run = spans.add("run", kStageTrack + 1, t0, t1, top);
    spans.add("serialize", kStageTrack + 1, t1, t2, top);
    spans.add("parse", kStageTrack + 1, t2, t3, top);
    spans.add("build", kStageTrack + 2, t0, configured, run);
    spans.add("simulate", kStageTrack + 2, configured, finished, run);
    spans.add("count", kStageTrack + 2, finished, counted, run);
    spans.add("extract", kStageTrack + 2, counted, t1, run);
  }
  const auto n = static_cast<double>(specs.size());
  const auto ms = [n](std::int64_t ns) {
    return static_cast<double>(ns) / 1e6 / n;
  };
  Value v = Value::object();
  v.set("scenarios", specs.size());
  v.set("build_ms", ms(build));
  v.set("simulate_ns_per_event",
        static_cast<double>(simulate) / static_cast<double>(events));
  v.set("extract_ms", ms(extract));
  v.set("serialize_ms", ms(serialize));
  v.set("parse_ms", ms(parse));
  v.set("runner_self_ms", ms(self));
  v.set("overhead_share", static_cast<double>(hooked_ns - plain_ns) /
                              static_cast<double>(plain_ns));
  v.set("events", events);
  v.set("sim_ns", sim_ns);
  Value c = Value::object();
  for (const auto& [name, value] : counts) c.set(name, value);
  c.set("rt.samples", samples);
  c.set("telemetry.sampler_points", points);
  c.set("telemetry.blame_samples", blamed);
  v.set("counts", std::move(c));
  return v;
}

Value to_array(const std::vector<double>& xs) {
  Value v = Value::array();
  for (const double x : xs) v.push(x);
  return v;
}

int run(const Args& a) {
  const auto all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == a.workload;
  });
  if (it == all.end()) usage("unknown workload " + a.workload);
  const Workload& w = *it;
  const double scale = a.scale > 0 ? a.scale : w.scale;
  std::filesystem::create_directories(a.tmp);

  SpanLog spans(a.trace);
  std::map<int, std::string> tracks = {{kPassTrack, "passes"},
                                       {kSetupTrack, "setup"}};
  // One untimed pass first: the process's first pass pays page faults, the
  // registry's lazy construction and cold caches that later passes do not.
  (void)run_pass(w, a, scale, -1);
  std::filesystem::remove_all(a.tmp);
  std::filesystem::create_directories(a.tmp);

  const double calib_before = calibration_s();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);

  Value passes = Value::array();
  Value probes = Value::array();
  std::map<std::string, std::set<std::string>> stripped;  // name -> digests
  std::string first_digest;
  std::uint64_t first_events = 0, first_sim_ns = 0;
  std::size_t timed = 0;
  for (int k = 0; k < kMinPasses || now_ns() < deadline ||
                  timed < kMinScenarios;
       ++k) {
    Pass p = run_pass(w, a, scale, k);
    std::filesystem::remove_all(a.tmp);
    std::filesystem::create_directories(a.tmp);

    std::vector<Value> results;
    std::vector<double> scen_s, wait_s;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    std::uint64_t events = 0, sim_ns = 0, bytes = 0, ok = 0;
    std::vector<std::int64_t> first_start(p.campaign_start.size(), p.end);
    std::int64_t busy = 0;
    Value failed = Value::array();
    for (const auto& s : p.scenarios) {
      if (!s.ok) failed.push(s.name + ": " + s.status);
      if (s.started < 0 || s.finished < s.started) {
        throw std::runtime_error("no start/finish time for " + s.name);
      }
      ok += s.ok ? 1 : 0;
      auto& first = first_start[static_cast<std::size_t>(s.campaign)];
      first = std::min(first, s.started);
      scen_s.push_back(seconds(s.finished - s.started));
      wait_s.push_back(seconds(s.started - s.queued));
      busy += s.finished - s.started;
      iv.emplace_back(s.started, s.finished);
      if (!s.result) continue;
      results.push_back(s.result->to_json());
      bytes += results.back().dump().size();
      events += s.result->events;
      sim_ns += s.result->duration_ns;
      if (k == 0) {
        stripped[s.name].insert(seed_stripped_digest(results.back()));
        const auto& h = s.result->probe.primary;
        Value pr = Value::object();
        pr.set("name", s.name);
        pr.set("campaign", s.campaign);
        pr.set("max_ns", h.max());
        pr.set("min_ns", h.min());
        probes.push(std::move(pr));
      }
    }
    timed += p.scenarios.size();
    const std::string digest = results_digest(results);
    if (k == 0) {
      first_digest = digest;
      first_events = events;
      first_sim_ns = sim_ns;
    }

    const int pass_span =
        spans.add("pass " + std::to_string(k), kPassTrack, p.start, p.end, -1);
    Value setup_s = Value::array();
    for (std::size_t c = 0; c < first_start.size(); ++c) {
      setup_s.push(seconds(first_start[c] - p.campaign_start[c]));
      spans.add("setup", kSetupTrack, p.campaign_start[c], first_start[c],
                pass_span);
    }
    const auto lanes = assign_lanes(iv);
    for (std::size_t i = 0; i < p.scenarios.size(); ++i) {
      const int tid = kLaneTrack + lanes[i];
      if (spans.on()) tracks[tid] = "scenarios lane " + std::to_string(lanes[i]);
      spans.add("scenario " + p.scenarios[i].name, tid, iv[i].first,
                iv[i].second, pass_span);
    }

    Value v = Value::object();
    v.set("setup_s", std::move(setup_s));
    v.set("wall_s", seconds(p.end - p.start));
    v.set("cpu_s", seconds(p.cpu));
    v.set("events", events);
    v.set("sim_s", static_cast<double>(sim_ns) * 1e-9);
    v.set("attempted", p.scenarios.size());
    v.set("ok", ok);
    v.set("failed", std::move(failed));
    v.set("digest", digest);
    v.set("result_bytes", bytes);
    v.set("workers", p.workers);
    v.set("busy_share",
          static_cast<double>(busy) /
              (static_cast<double>(p.workers) *
               static_cast<double>(p.end - p.start)));
    v.set("prefix_hits", p.prefix_hits);
    v.set("prefix_misses", p.prefix_misses);
    v.set("spawns", p.spawns);
    v.set("respawns", p.respawns);
    v.set("requeues", p.requeues);
    v.set("journal_records", p.journal_records);
    v.set("journal_bytes", p.journal_bytes);
    v.set("scenario_s", to_array(scen_s));
    v.set("queue_wait_s", to_array(wait_s));
    passes.push(std::move(v));
  }
  // Before the in-process reference run and the stage pass below, so the
  // figure is the timed passes' own.
  const double rss_mb = peak_rss_mb();
  const double calib_after = calibration_s();

  Value out = Value::object();
  out.set("schema", "hostbench-raw-v1");
  out.set("workload", w.name);
  out.set("seed", a.seed);
  out.set("scale", scale);
  out.set("seconds", a.seconds);
  out.set("build_type", HOSTBENCH_BUILD_TYPE);
  out.set("host_workers", host_workers());
  out.set("sweep_seeds", w.supervised ? w.sweep_seeds : 1);
  Value calib = Value::object();
  calib.set("before_s", calib_before);
  calib.set("after_s", calib_after);
  out.set("calibration", std::move(calib));
  out.set("digest", first_digest);
  out.set("events", first_events);
  out.set("sim_s", static_cast<double>(first_sim_ns) * 1e-9);
  out.set("passes", std::move(passes));
  out.set("probes", std::move(probes));
  std::size_t distinct = 0;
  for (const auto& [name, digests] : stripped) distinct += digests.size() > 1;
  out.set("distinct_seed_results", distinct);

  if (w.supervised) {
    // The same campaigns in process: results must match byte for byte.
    config::ScenarioRunner runner(runner_options(w, scale));
    const auto specs = load_specs(w, a.specs);
    std::vector<Value> results;
    std::uint64_t events = 0;
    for (int k = 0; k < w.sweep_seeds; ++k) {
      for (const auto& o :
           runner.run_batch_report(specs, sweep_root(a.seed, k)).outcomes) {
        if (!o.result) throw std::runtime_error(o.name + ": " + o.error);
        results.push_back(o.result->to_json());
        events += o.result->events;
      }
    }
    out.set("inprocess_digest", results_digest(results));
    out.set("inprocess_events", events);
  }
  if (a.trace) {
    out.set("stage", stage_pass(w, a, scale, spans));
    tracks[kStageTrack] = "stage scenario";
    tracks[kStageTrack + 1] = "stage run/serialize/parse";
    tracks[kStageTrack + 2] = "stage build/simulate/extract";
    if (!a.trace_out.empty()) {
      std::ofstream f(a.trace_out, std::ios::binary);
      f << spans.to_json(tracks).dump() << "\n";
      if (!f) throw std::runtime_error("cannot write " + a.trace_out);
    }
  }
  out.set("peak_rss_mb", rss_mb);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
