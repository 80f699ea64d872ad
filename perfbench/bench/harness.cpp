#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "common/parallel.h"
#include "obs/prof/mem.h"

namespace perfbench {

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

// Set-up takes microseconds to milliseconds, so it is repeated after every
// untraced unit and the median reported; spread over the run, it sees the
// same host as the units.
constexpr int kSetupReps = 5;

// Every unit is timed at least twice, so a pass time is never one sample.
constexpr std::size_t kMinPasses = 2;

// The shared host's speed drifts by up to ~40% from one minute to the next
// and the simulator slows with it, so raw times of two runs are not
// comparable. End-to-end times are therefore scaled by
// kProbeNominalS / probe_seconds(), measured around each unit: they read as
// seconds on a host where the probe takes 50 ms.
constexpr double kProbeNominalS = 0.05;

// Keeps the probe's handler work observable to the optimizer.
volatile std::uint64_t g_probe_sink = 0;

// A fixed DES-shaped loop that no change under src/ can touch: a binary
// heap of (time, seq) entries about 4 k deep and a hash map of
// std::function handlers with one heap-allocated capture per event.
double probe_seconds() {
  using Entry = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::function<void()>> pending;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t now = 0;
  std::uint64_t sink = 0;
  const double t0 = wall_seconds();
  for (std::uint64_t seq = 0; seq < 200'000; ++seq) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push({now + (x & 0xFFFF), seq});
    pending.emplace(seq, [seq, x, now, &sink] { sink += seq ^ x ^ now; });
    if (heap.size() > 4096) {
      const Entry top = heap.top();
      heap.pop();
      now = top.first;
      const auto it = pending.find(top.second);
      it->second();
      pending.erase(it);
    }
  }
  const double dt = wall_seconds() - t0;
  g_probe_sink = sink;
  return dt;
}

// Handler tags reported per layer: the dominant ones on table2_des and on
// mk_offload.
constexpr const char* kTags[] = {"os.burst.done", "linux.tick",
                                 "noise.daemon",  "os.irq.end",
                                 "ikc.deliver",   "lwk.offload.marshal"};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void fail(std::uint64_t weight, const std::string& what) {
    failed += weight;
    messages.push_back(what);
  }
};

struct SchedulerTotals {
  std::uint64_t steals = 0;
  std::uint64_t chunks = 0;
  std::uint64_t park_ns = 0;

  static SchedulerTotals now() {
    SchedulerTotals t;
    const auto stats = hpcos::parallel_stats();
    t.steals = stats.steals;
    t.chunks = stats.chunks_executed;
    for (const auto& w : hpcos::parallel_worker_health()) t.park_ns += w.park_ns;
    return t;
  }
};

std::map<std::string, std::string> load_reference(const Options& o,
                                                  bool* applies) {
  *applies = false;
  std::map<std::string, std::string> out;
  if (o.reference.empty()) return out;
  std::ifstream in(o.reference);
  if (!in) throw std::runtime_error("cannot read " + o.reference);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = hpcos::JsonValue::parse(ss.str());
  if (static_cast<std::uint64_t>(doc.at("seed").as_number()) != o.seed) {
    return out;
  }
  *applies = true;
  if (const auto* w = doc.at("digests").find(o.workload)) {
    for (const auto& m : w->members()) out[m.first] = m.second.as_string();
  }
  return out;
}

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    lines_.push_back({name, value, unit});
  }
  hpcos::JsonValue json() const {
    auto doc = hpcos::JsonValue::object();
    for (const auto& l : lines_) {
      auto m = hpcos::JsonValue::object();
      m.set("value", l.value);
      m.set("unit", l.unit);
      doc.set(l.name, std::move(m));
    }
    return doc;
  }
  void print(std::ostream& os) const {
    for (const auto& l : lines_) {
      os << "  " << l.name << " = " << fmt_g(l.value) << " " << l.unit << "\n";
    }
  }

 private:
  struct Line {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Line> lines_;
};

double vm_hwm_mb() {
  const auto mem = hpcos::obs::prof::sample_host_memory();
  return static_cast<double>(mem.peak_rss_bytes) / (1024.0 * 1024.0);
}

// End-to-end metrics from untraced units: per-pass sums of unit medians,
// at nominal host speed.
void end_to_end(const std::vector<std::vector<UnitRun>>& by_unit,
                double setup_s, double peak_rss_mb, Metrics& m) {
  double wall = 0.0;
  double raw_wall = 0.0;
  double cpu = 0.0;
  double core_h = 0.0;
  std::vector<double> speeds;
  for (const auto& runs : by_unit) {
    std::vector<double> w;
    std::vector<double> rw;
    std::vector<double> c;
    for (const auto& r : runs) {
      w.push_back(r.wall_s * r.host_speed);
      rw.push_back(r.wall_s);
      c.push_back(r.cpu_s * r.host_speed);
      speeds.push_back(r.host_speed);
    }
    wall += median(w);
    raw_wall += median(rw);
    cpu += median(c);
    core_h += runs.front().sim_core_h;
  }
  std::cout << "  unscaled wall_s = " << fmt_g(raw_wall)
            << " s; host speed median = " << fmt_g(median(speeds)) << "\n";
  m.set("wall_s", wall, "s");
  m.set("cpu_s", cpu, "s");
  m.set("sim_core_h_per_s", core_h / wall, "h/s");
  m.set("peak_rss_mb", peak_rss_mb, "MB");
  m.set("setup_s", setup_s, "s");
}

// Per-layer metrics from (untraced twin, traced) pairs. Exact counts come
// from the first pass, host times from every pass. Layers a workload does
// not run report 0.
void per_layer(const std::vector<UnitRun>& twins,
               const std::vector<UnitRun>& traced, std::size_t pass_units,
               std::size_t passes, const SchedulerTotals& sched,
               double setup_s, Metrics& m) {
  std::uint64_t events = 0, cancels = 0, skipped = 0, max_depth = 0;
  std::uint64_t allocs = 0, requests = 0, replies = 0;
  std::map<std::string, std::uint64_t> first_fired;
  for (std::size_t i = 0; i < pass_units; ++i) {
    const UnitRun& t = traced[i];
    requests += t.offload_requests;
    replies += t.offload_replies;
    if (!t.des) continue;
    events += t.des->events;
    cancels += t.des->queue.cancels;
    skipped += t.des->queue.skipped;
    max_depth = std::max<std::uint64_t>(max_depth, t.des->queue.max_depth);
    allocs += t.des->allocs;
    for (const auto& h : t.des->handlers) first_fired[h.tag] += h.fired;
  }
  m.set("sim.events", static_cast<double>(events), "count");
  m.set("sim.cancels", static_cast<double>(cancels), "count");
  m.set("sim.skipped", static_cast<double>(skipped), "count");
  m.set("sim.max_depth", static_cast<double>(max_depth), "count");
  m.set("sim.allocs_per_event",
        events ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0,
        "count");

  double twin_span = 0.0, twin_events = 0.0, twin_node_sim = 0.0;
  double twin_wall = 0.0, twin_cpu = 0.0, stats_s = 0.0;
  std::size_t stats_n = 0;
  for (const UnitRun& r : twins) {
    twin_wall += r.wall_s;
    twin_cpu += r.cpu_s;
    if (r.stats_s > 0.0) {
      stats_s += r.stats_s;
      ++stats_n;
    }
    if (!r.des) continue;
    twin_span += r.des->span_s;
    twin_events += static_cast<double>(r.des->events);
    twin_node_sim += r.des->node_sim_s;
  }
  m.set("sim.ns_per_event", twin_events ? 1e9 * twin_span / twin_events : 0.0,
        "ns");

  double traced_span = 0.0, traced_events = 0.0, traced_wall = 0.0;
  double offload_ns = 0.0;
  std::map<std::string, std::pair<double, double>> fired_ns;  // fired, ns
  std::int64_t shard_ns = 0, merge_ns = 0;
  std::uint64_t shards = 0, campaigns = 0;
  for (const UnitRun& r : traced) {
    traced_wall += r.wall_s;
    if (r.campaign) {
      shard_ns += r.campaign->shard_ns;
      shards += r.campaign->shards;
      merge_ns += r.campaign->merge_ns;
      ++campaigns;
    }
    if (!r.des) continue;
    traced_span += r.des->span_s;
    traced_events += static_cast<double>(r.des->events);
    for (const auto& h : r.des->handlers) {
      auto& [fired, ns] = fired_ns[h.tag];
      fired += static_cast<double>(h.fired);
      ns += static_cast<double>(h.host_ns);
    }
  }
  double handler_ns = 0.0;
  for (const auto& [tag, v] : fired_ns) handler_ns += v.second;
  m.set("sim.queue_ns_per_event",
        traced_events ? (1e9 * traced_span - handler_ns) / traced_events : 0.0,
        "ns");
  for (const char* tag : kTags) {
    const auto it = fired_ns.find(tag);
    const auto first = first_fired.find(tag);
    m.set(std::string("des.fire.") + tag + ".count",
          first == first_fired.end() ? 0.0 : static_cast<double>(first->second),
          "count");
    m.set(std::string("des.fire.") + tag + ".ns_per_fire",
          it == fired_ns.end() || it->second.first == 0.0
              ? 0.0
              : it->second.second / it->second.first,
          "ns");
  }
  for (const char* tag : {"ikc.deliver", "lwk.offload.marshal"}) {
    if (const auto it = fired_ns.find(tag); it != fired_ns.end()) {
      offload_ns += it->second.second;
    }
  }

  m.set("cluster.node.sim_s_per_s", twin_span ? twin_node_sim / twin_span : 0.0,
        "s/s");
  m.set("cluster.setup_ms", 1e3 * setup_s, "ms");
  for (const std::string& slug : fig4_campaign_units()) {
    double node_h = 0.0, wall = 0.0;
    for (const UnitRun& r : twins) {
      if (r.campaign && r.campaign->slug == slug) {
        node_h += r.campaign->node_h;
        wall += r.wall_s;
      }
    }
    m.set("cluster.fwq_campaign.node_h_per_s." + slug,
          wall ? node_h / wall : 0.0, "h/s");
  }
  m.set("cluster.fwq_campaign.shard_ms",
        shards ? 1e-6 * static_cast<double>(shard_ns) / static_cast<double>(shards)
               : 0.0,
        "ms");
  m.set("cluster.fwq_campaign.merge_ms",
        campaigns ? 1e-6 * static_cast<double>(merge_ns) /
                        static_cast<double>(campaigns)
                  : 0.0,
        "ms");
  m.set("noise.stats_ms", stats_n ? 1e3 * stats_s / static_cast<double>(stats_n) : 0.0,
        "ms");

  const double workers = static_cast<double>(hpcos::parallel_capacity());
  const double p = static_cast<double>(passes);
  m.set("parallel.efficiency", twin_cpu / (twin_wall * workers), "ratio");
  m.set("parallel.steals", static_cast<double>(sched.steals) / p, "count");
  m.set("parallel.chunks", static_cast<double>(sched.chunks) / p, "count");
  m.set("parallel.park_ms", 1e-6 * static_cast<double>(sched.park_ns) / p, "ms");

  m.set("mck.offload.requests", static_cast<double>(requests), "count");
  m.set("mck.offload.replies", static_cast<double>(replies), "count");
  double all_requests = 0.0;
  for (const UnitRun& r : traced) all_requests += static_cast<double>(r.offload_requests);
  m.set("mck.offload.host_ns_per_call",
        all_requests ? offload_ns / all_requests : 0.0, "ns");
  m.set("trace.overhead_ratio", traced_wall / twin_wall, "ratio");
}

}  // namespace

int run_benchmark(const Options& o) {
  std::unique_ptr<Workload> wl;
  if (o.workload == "table2_des") wl = make_table2_des(o.seed);
  if (o.workload == "fig4_campaign") wl = make_fig4_campaign(o.seed);
  if (o.workload == "mk_offload") wl = make_mk_offload(o.seed);
  if (!wl) {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  std::cout << "perfbench " << o.workload << " seed=" << o.seed
            << " trace=" << (o.trace ? 1 : 0)
            << " pool threads=" << hpcos::parallel_capacity() << "\n";
  bool check_reference = false;
  const auto reference = load_reference(o, &check_reference);
  const auto names = wl->units();
  const std::size_t k = names.size();

  Tally tally;
  std::map<std::string, std::string> digests;
  std::map<std::string, std::vector<double>> walls;  // untraced unit times
  // A digest mismatch fails every checked output of the unit.
  auto account = [&](std::size_t u, const UnitRun& r, bool traced) {
    digests[names[u]] = r.digest + "  " + r.outputs;
    if (!traced) walls[names[u]].push_back(r.wall_s);
    tally.attempted += r.attempted;
    const auto it = reference.find(names[u]);
    if (check_reference && (it == reference.end() || it->second != r.digest)) {
      tally.fail(r.attempted,
                 names[u] + ": digest " + r.digest + " differs from reference " +
                     (it == reference.end() ? "(none)" : it->second));
    } else if (r.failed > 0) {
      tally.fail(r.failed, names[u] + ": " + std::to_string(r.failed) +
                               " checked outputs failed");
    }
  };

  // Untraced unit u, then its set-up repetitions, both scaled by the probes
  // taken before and after them.
  std::vector<std::vector<double>> setups(k);
  double probe = probe_seconds();
  auto run_untraced = [&](std::size_t u) {
    UnitRun r = wl->run(u, false);
    std::vector<double> s;
    for (int rep = 0; rep < kSetupReps; ++rep) s.push_back(wl->setup_only(u));
    const double probe_after = probe_seconds();
    r.host_speed = 2.0 * kProbeNominalS / (probe + probe_after);
    probe = probe_after;
    for (const double x : s) setups[u].push_back(x * r.host_speed);
    return r;
  };
  auto setup_s = [&] {
    double sum = 0.0;
    for (const auto& s : setups) sum += median(s);
    return sum;
  };

  Metrics metrics;
  const double deadline = wall_seconds() + o.seconds;
  if (!o.trace) {
    std::vector<std::vector<UnitRun>> by_unit(k);
    // Peak RSS is read after the fixed first kMinPasses passes: how many
    // more units fit in the time budget varies from run to run, and the
    // heap can creep with each (mk_offload's nodes leak a few KiB each).
    double peak_rss_mb = 0.0;
    for (std::size_t i = 0; i < kMinPasses * k || wall_seconds() < deadline;
         ++i) {
      const std::size_t u = i % k;
      by_unit[u].push_back(run_untraced(u));
      account(u, by_unit[u].back(), false);
      if (i + 1 == kMinPasses * k) peak_rss_mb = vm_hwm_mb();
    }
    end_to_end(by_unit, setup_s(), peak_rss_mb, metrics);
  } else {
    std::vector<UnitRun> twins;
    std::vector<UnitRun> traced;
    SchedulerTotals sched;
    std::size_t passes = 0;
    while (passes == 0 || wall_seconds() < deadline) {
      for (std::size_t u = 0; u < k; ++u) {
        const auto before = SchedulerTotals::now();
        twins.push_back(run_untraced(u));
        const auto after = SchedulerTotals::now();
        sched.steals += after.steals - before.steals;
        sched.chunks += after.chunks - before.chunks;
        sched.park_ns += after.park_ns - before.park_ns;
        traced.push_back(wl->run(u, true));
        if (twins.back().digest != traced.back().digest) {
          traced.back().failed = traced.back().attempted;
          tally.messages.push_back(names[u] + ": tracing changed the result");
        }
        account(u, twins.back(), false);
        account(u, traced.back(), true);
      }
      ++passes;
    }
    per_layer(twins, traced, k, passes, sched, setup_s(), metrics);
  }
  const double failed_ratio =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  metrics.print(std::cout);
  std::cout << "  failed_ratio = " << failed_ratio << " (" << tally.failed << " of "
            << tally.attempted << " checked units)\n";
  for (const auto& [unit, digest] : digests) {
    const auto& w = walls[unit];
    std::cout << "  unit " << unit << ": runs=" << w.size()
              << " wall_s median=" << fmt_g(median(w))
              << " min=" << fmt_g(*std::min_element(w.begin(), w.end()))
              << " max=" << fmt_g(*std::max_element(w.begin(), w.end()))
              << " digest=" << digest << "\n";
  }
  for (const auto& msg : tally.messages) std::cout << "  FAILED: " << msg << "\n";

  auto result = hpcos::JsonValue::object();
  result.set("correct", tally.failed == 0);
  result.set("attempted", tally.attempted);
  result.set("failed", tally.failed);
  result.set("metrics", metrics.json());
  std::cout << result.dump() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
