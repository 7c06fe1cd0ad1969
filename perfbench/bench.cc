// Generator, tallies, span tracer, host probes and the metric
// summaries shared by every workload.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- Generator ---------------------------------------------------------

namespace {

constexpr size_t kZipfRanks = 300;
constexpr double kZipfS = 1.1;

uint64_t MixSeed(const std::string& workload, uint64_t seed, size_t designer) {
  uint64_t h = 1469598103934665603ull;
  for (char c : workload) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return h ^ (seed * 0x9e3779b97f4a7c15ull) ^ ((designer + 1) << 40);
}

uint32_t Draw(concord::Rng& rng) {
  return static_cast<uint32_t>(rng.Uniform(0, (int64_t{1} << 31) - 1));
}

}  // namespace

Generator::Generator(const std::string& workload, uint64_t seed,
                     size_t designer)
    : workload_(workload), rng_(MixSeed(workload, seed, designer)) {
  double total = 0;
  for (size_t i = 0; i < kZipfRanks; ++i) {
    total += std::pow(static_cast<double>(i + 1), -kZipfS);
    zipf_cdf_.push_back(total);
  }
  for (double& entry : zipf_cdf_) entry /= total;
}

Op Generator::Next() {
  Op op;
  auto zipf = [this] {
    double u = rng_.NextDouble();
    auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return static_cast<uint32_t>(std::min<size_t>(it - zipf_cdf_.begin(),
                                                  zipf_cdf_.size() - 1));
  };
  if (workload_ == "coop_read") {
    if (rng_.Chance(0.03)) {
      // Propagate and withdraw balance each other; an invalidation
      // retires a version for good, so it stays rare enough that the
      // DAs' version sets hold up through a run.
      double kind = rng_.NextDouble();
      op.kind = kind < 0.45 ? Op::kPropagate
                            : kind < 0.9 ? Op::kWithdraw : Op::kInvalidate;
      op.da_slot = static_cast<uint32_t>(rng_.Uniform(0, 7));
      op.draws[0] = Draw(rng_);
    } else {
      op.da_slot = static_cast<uint32_t>(rng_.Uniform(0, 7));
      op.inputs = static_cast<uint8_t>(rng_.Uniform(2, 3));
      for (int i = 0; i < 3; ++i) op.draws[i] = zipf();
      op.draws[3] = Draw(rng_);
      op.checkin = rng_.Chance(0.2);
    }
  } else {  // sockets
    op.da_slot = static_cast<uint32_t>(rng_.Uniform(0, 3));
    op.draws[0] = Draw(rng_);
    op.extra = rng_.Chance(0.25);  // plus an input on the other shard
    op.draws[1] = Draw(rng_);
    op.draws[2] = Draw(rng_);
  }
  op.value = rng_.Uniform(0, 999999999);
  uint8_t type = static_cast<uint8_t>(op.kind * 4 + op.checkin * 2 + op.extra);
  hash_ = (hash_ ^ type) * 1099511628211ull;
  ++count_;
  return op;
}

uint64_t PlanPrefixHash(const std::string& workload, uint64_t seed,
                        size_t designer, uint64_t n) {
  Generator generator(workload, seed, designer);
  for (uint64_t i = 0; i < n; ++i) generator.Next();
  return generator.type_hash();
}

// --- Tally / log ---------------------------------------------------------

void Tally::Merge(const Tally& other) {
  for (const auto& [op, n] : other.attempted) attempted[op] += n;
  for (const auto& [op, codes] : other.failed) {
    for (const auto& [code, n] : codes) failed[op][code] += n;
  }
}

uint64_t Tally::TotalAttempted() const {
  uint64_t total = 0;
  for (const auto& [op, n] : attempted) total += n;
  return total;
}

uint64_t Tally::TotalFailed() const {
  uint64_t total = 0;
  for (const auto& [op, codes] : failed) {
    for (const auto& [code, n] : codes) total += n;
  }
  return total;
}

std::string Tally::Json() const {
  std::ostringstream out;
  out << "{";
  bool first_op = true;
  for (const auto& [op, n] : attempted) {
    out << (first_op ? "" : ",") << JsonString(op) << ":{\"attempted\":" << n
        << ",\"failed\":{";
    first_op = false;
    auto it = failed.find(op);
    if (it != failed.end()) {
      bool first_code = true;
      for (const auto& [code, count] : it->second) {
        out << (first_code ? "" : ",") << JsonString(code) << ":" << count;
        first_code = false;
      }
    }
    out << "}}";
  }
  out << "}";
  return out.str();
}

void DesignerLog::Merge(DesignerLog&& other) {
  auto append = [](std::vector<Timed>& to, std::vector<Timed>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(dops, other.dops);
  append(checkins, other.checkins);
  append(misses, other.misses);
  dops_attempted += other.dops_attempted;
  dops_committed += other.dops_committed;
  coop_ops += other.coop_ops;
  checkpoints += other.checkpoints;
  checkouts += other.checkouts;
  cache_hits += other.cache_hits;
  tally.Merge(other.tally);
}

// --- One DOP ---------------------------------------------------------------

namespace {

double Micros(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

}  // namespace

concord::Result<concord::DovId> RunDop(
    concord::txn::ClientTm& client, concord::DaId da,
    const std::vector<concord::DovId>& inputs,
    std::optional<concord::storage::DesignObject> checkin, DesignerLog& log) {
  using concord::DopId;
  using concord::DovId;
  using concord::Result;
  using concord::Status;
  ++log.dops_attempted;
  const int64_t dop_start = NowNs();
  Tracer::Scope dop_span("txn.client:dop");
  log.tally.Attempt("begin");
  Result<DopId> dop = Status::Internal("unset");
  {
    Tracer::Scope span("txn.client:begin");
    dop = client.BeginDop(da);
  }
  if (!dop.ok()) {
    log.tally.Fail("begin", dop.status());
    return dop.status();
  }
  Tracer::SetDop(dop->value());
  auto abort = [&](const char* op, const Status& why) {
    log.tally.Fail(op, why);
    log.tally.Attempt("abort");
    Tracer::Scope span("txn.client:abort");
    Status aborted = client.AbortDop(*dop);
    if (!aborted.ok()) log.tally.Fail("abort", aborted);
    Tracer::SetDop(0);
    return why;
  };
  for (DovId input : inputs) {
    log.tally.Attempt("checkout");
    const uint64_t served_before = client.stats().checkouts_from_server;
    const int64_t start = NowNs();
    Status status;
    {
      Tracer::Scope span("txn.client:checkout");
      status = client.Checkout(*dop, input);
    }
    const int64_t end = NowNs();
    if (!status.ok()) return abort("checkout", status);
    ++log.checkouts;
    if (client.stats().checkouts_from_server > served_before) {
      log.misses.push_back(Timed{end, Micros(start, end)});
    } else {
      ++log.cache_hits;
    }
  }
  Result<DovId> dov = DovId();
  const int64_t start = NowNs();
  if (checkin.has_value()) {
    log.tally.Attempt("checkin_commit");
    Tracer::Scope span("txn.client:checkin_commit");
    dov = client.CheckinCommit(*dop, std::move(*checkin), inputs);
  } else {
    log.tally.Attempt("commit");
    Tracer::Scope span("txn.client:commit");
    Status committed = client.CommitDop(*dop);
    if (!committed.ok()) dov = committed;
  }
  const int64_t end = NowNs();
  if (!dov.ok()) {
    return abort(checkin.has_value() ? "checkin_commit" : "commit",
                 dov.status());
  }
  Tracer::SetDop(0);
  if (checkin.has_value()) log.checkins.push_back(Timed{end, Micros(start, end)});
  log.dops.push_back(Timed{end, Micros(dop_start, end)});
  ++log.dops_committed;
  return dov;
}

// --- Tracer --------------------------------------------------------------

namespace {

constexpr size_t kKeptSpansPerThread = 100000;

struct SpanRec {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;
  uint64_t dop;
};

struct OpenSpan {
  const char* name;
  int64_t start;
  int64_t child_ns;
  int32_t index;
};

struct ThreadBuf {
  int thread = 0;
  uint64_t dop = 0;
  std::vector<OpenSpan> stack;
  std::vector<SpanRec> kept;
  std::unordered_map<const char*, Tracer::Agg> agg;
};

std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    g_bufs.back()->thread = static_cast<int>(g_bufs.size());
    t_buf = g_bufs.back().get();
  }
  return *t_buf;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::Enable(bool on) { enabled_.store(on); }

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (auto& buf : g_bufs) {
    buf->stack.clear();
    buf->kept.clear();
    buf->agg.clear();
    buf->dop = 0;
  }
}

void Tracer::SetDop(uint64_t dop) {
  if (enabled()) Buf().dop = dop;
}

Tracer::Scope::Scope(const char* name) : active_(enabled()) {
  if (!active_) return;
  ThreadBuf& buf = Buf();
  int32_t index = -1;
  if (buf.kept.size() < kKeptSpansPerThread) {
    int32_t parent = buf.stack.empty() ? -1 : buf.stack.back().index;
    index = static_cast<int32_t>(buf.kept.size());
    buf.kept.push_back(SpanRec{name, 0, 0, parent, buf.dop});
  }
  int64_t start = NowNs();
  if (index >= 0) buf.kept[index].start = start;
  buf.stack.push_back(OpenSpan{name, start, 0, index});
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  int64_t end = NowNs();
  ThreadBuf& buf = Buf();
  OpenSpan open = buf.stack.back();
  buf.stack.pop_back();
  int64_t duration = end - open.start;
  if (!buf.stack.empty()) buf.stack.back().child_ns += duration;
  Agg& agg = buf.agg[open.name];
  ++agg.count;
  agg.total_us += static_cast<double>(duration) / 1e3;
  agg.self_us += static_cast<double>(duration - open.child_ns) / 1e3;
  agg.durations_us.push_back(static_cast<double>(duration) / 1e3);
  if (open.index >= 0) buf.kept[open.index].end = end;
}

std::map<std::string, Tracer::Agg> Tracer::Aggregate() {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  std::map<std::string, Agg> out;
  for (const auto& buf : g_bufs) {
    for (const auto& [name, agg] : buf->agg) {
      Agg& into = out[name];
      into.count += agg.count;
      into.total_us += agg.total_us;
      into.self_us += agg.self_us;
      into.durations_us.insert(into.durations_us.end(),
                               agg.durations_us.begin(),
                               agg.durations_us.end());
    }
  }
  return out;
}

size_t Tracer::Write(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\tdop\tthread\n";
  size_t written = 0;
  for (const auto& buf : g_bufs) {
    for (const SpanRec& span : buf->kept) {
      if (span.end == 0) continue;  // still open when the run ended
      out << span.name << '\t' << span.start << '\t' << span.end << '\t'
          << span.parent << '\t' << span.dop << '\t' << buf->thread << '\n';
      ++written;
    }
  }
  return written;
}

// --- Host / process probes ---------------------------------------------

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

double PeakRssMb(int pid) {
  std::string status =
      ReadFile(pid == 0 ? "/proc/self/status"
                        : "/proc/" + std::to_string(pid) + "/status");
  size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

double CpuTimeUs(int pid) {
  std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void PinDesignerThread(size_t designer) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[1 + designer % (cpus.size() - 1)], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

namespace {

/// Busy (user through softirq) and steal jiffies of all CPUs.
std::pair<double, double> CpuTicks() {
  std::istringstream stat(ReadFile("/proc/stat"));
  std::string cpu;
  double field[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (double& value : field) stat >> value;
  // user nice system idle iowait irq softirq steal
  const double busy = field[0] + field[1] + field[2] + field[5] + field[6];
  return {busy, field[7]};
}

}  // namespace

Window RunClosedLoop(double seconds, uint64_t max_ops,
                     const std::function<void(size_t, DesignerLog&)>& step) {
  const auto ticks_before = CpuTicks();
  std::atomic<bool> stop{false};
  std::vector<DesignerLog> logs(kDesigners);
  std::vector<std::thread> threads;
  Window window;
  window.start_ns = NowNs();
  for (size_t d = 0; d < kDesigners; ++d) {
    threads.emplace_back([&, d] {
      PinDesignerThread(d);
      for (uint64_t n = 0; n < max_ops; ++n) {
        if (stop.load(std::memory_order_relaxed)) return;
        step(d, logs[d]);
      }
    });
  }
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& thread : threads) thread.join();
  window.seconds = static_cast<double>(NowNs() - window.start_ns) / 1e9;
  const auto ticks_after = CpuTicks();
  const double busy = ticks_after.first - ticks_before.first;
  const double steal = ticks_after.second - ticks_before.second;
  window.steal_share = busy + steal > 0 ? steal / (busy + steal) : 0;
  for (auto& log : logs) window.log.Merge(std::move(log));
  return window;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string HostFingerprint() {
  std::string cpu = "unknown";
  std::istringstream cpuinfo(ReadFile("/proc/cpuinfo"));
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  int usable = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                            : 0;
#if defined(__clang__)
  std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = std::string("gcc ") + __VERSION__;
#else
  std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"usable_cpus\":" << usable << ",\"cpu\":" << JsonString(cpu)
      << ",\"compiler\":" << JsonString(compiler)
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"wal\":\"in memory on every workload\"}";
  return out.str();
}

// --- Summaries ---------------------------------------------------------

std::string JsonArray(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(9);
  out << "[";
  for (size_t i = 0; i < values.size(); ++i) out << (i ? "," : "") << values[i];
  out << "]";
  return out.str();
}

std::string OpTypeHashes(const Options& options,
                         const std::vector<const Generator*>& generators) {
  std::ostringstream json;
  json << "[";
  for (size_t d = 0; d < generators.size(); ++d) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(PlanPrefixHash(
                      options.workload, options.seed, d, kHashPrefixOps)));
    json << (d ? "," : "") << "{\"designer\":" << d
         << ",\"op_type_hash_4096\":\"" << hex
         << "\",\"ops_executed\":" << generators[d]->count() << "}";
  }
  json << "]";
  return json.str();
}

void ReportWindow(const Window& window, RunResult* out) {
  const DesignerLog& log = window.log;
  const double window_s = window.seconds;
  const double part_s = window_s / kSubWindows;
  auto split = [&](const std::vector<Timed>& samples) {
    std::vector<std::vector<double>> parts(kSubWindows);
    for (const Timed& sample : samples) {
      auto part = static_cast<size_t>(
          static_cast<double>(sample.end_ns - window.start_ns) / 1e9 / part_s);
      parts[std::min(part, kSubWindows - 1)].push_back(sample.us);
    }
    return parts;
  };
  const auto dops = split(log.dops);
  const auto checkins = split(log.checkins);
  const auto misses = split(log.misses);
  const std::pair<const char*, const char*> names[] = {
      {"dops_per_s", "1/s"},    {"dop_p50_us", "us"},
      {"dop_p90_us", "us"},     {"checkin_p50_us", "us"},
      {"checkout_miss_p50_us", "us"}};
  std::map<std::string, std::vector<double>> by_part;
  for (size_t k = 0; k < kSubWindows; ++k) {
    by_part["dops_per_s"].push_back(static_cast<double>(dops[k].size()) /
                                    part_s);
    by_part["dop_p50_us"].push_back(Percentile(dops[k], 0.5));
    by_part["dop_p90_us"].push_back(Percentile(dops[k], 0.9));
    by_part["checkin_p50_us"].push_back(Percentile(checkins[k], 0.5));
    by_part["checkout_miss_p50_us"].push_back(Percentile(misses[k], 0.5));
  }
  std::ostringstream parts_json;
  parts_json << "{";
  for (const auto& [name, unit] : names) {
    out->Set(name, Median(by_part[name]), unit);
    parts_json << (parts_json.tellp() > 1 ? "," : "") << JsonString(name)
               << ":" << JsonArray(by_part[name]);
  }
  parts_json << "}";
  out->report["sub_windows"] = parts_json.str();

  std::ostringstream samples;
  samples << "{\"window_s\":" << window_s
          << ",\"dops_attempted\":" << log.dops_attempted
          << ",\"dops_committed\":" << log.dops_committed
          << ",\"checkin\":" << log.checkins.size()
          << ",\"checkout_miss\":" << log.misses.size()
          << ",\"coop_ops\":" << log.coop_ops
          << ",\"checkpoints\":" << log.checkpoints
          << ",\"host_steal_share\":" << window.steal_share;
  // Commits per one-second slice of the window: shows stalls inside a
  // run that the window total averages away.
  std::vector<uint64_t> slices(static_cast<size_t>(window_s), 0);
  for (const Timed& dop : log.dops) {
    size_t slice =
        static_cast<size_t>((dop.end_ns - window.start_ns) / 1000000000);
    if (slice < slices.size()) ++slices[slice];
  }
  samples << ",\"dops_per_1s_slice\":[";
  for (size_t i = 0; i < slices.size(); ++i) {
    samples << (i ? "," : "") << slices[i];
  }
  samples << "]}";
  out->report["samples"] = samples.str();
  out->report["ops"] = log.tally.Json();
}

void ReportLayers(const std::map<std::string, Tracer::Agg>& spans,
                  const DesignerLog& log, double window_s, RunResult* out) {
  const std::pair<const char*, const char*> counted[] = {
      {"txn.service.wire_bytes_per_dop", "B"},
      {"txn.server.derivation_conflicts_per_dop", "count"},
      {"txn.server.cross_shard_share", "ratio"},
      {"rpc.retries", "count"},
      {"rpc.duplicate_suppressed", "count"},
      {"rpc.invalidation.deliveries_per_coop_op", "count"},
      {"cooperation.scope_denial_share", "ratio"},
      {"cooperation.mutual_require_denial_share", "ratio"},
      {"storage.wal_records_per_dop", "count"},
      {"storage.wal_flushes_per_commit", "count"},
      {"net.server_cpu_us_per_dop", "us"},
      {"net.server_peak_rss_mb", "MB"},
      {"net.reconnects", "count"},
      {"net.timeouts", "count"}};
  for (const auto& [name, unit] : counted) out->Set(name, 0, unit);
  out->Set("txn.client.cache_hits", static_cast<double>(log.cache_hits),
           "count");
  out->Set("txn.client.checkouts", static_cast<double>(log.checkouts),
           "count");
  out->Set("txn.client.cache_hit_ratio",
           log.checkouts ? static_cast<double>(log.cache_hits) /
                               static_cast<double>(log.checkouts)
                         : 0.0,
           "ratio");
  const uint64_t dops = log.dops_committed;
  const double window_us = window_s * 1e6;
  auto agg = [&spans](const char* name) -> const Tracer::Agg* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  auto total = [&agg](const char* name) {
    const Tracer::Agg* a = agg(name);
    return a ? a->total_us : 0.0;
  };
  auto count = [&agg](const char* name) {
    const Tracer::Agg* a = agg(name);
    return a ? static_cast<double>(a->count) : 0.0;
  };
  auto p50 = [&agg](std::vector<const char*> names) {
    std::vector<double> all;
    for (const char* name : names) {
      if (const Tracer::Agg* a = agg(name)) {
        all.insert(all.end(), a->durations_us.begin(), a->durations_us.end());
      }
    }
    return Percentile(std::move(all), 0.5);
  };
  const double per_dop = dops ? 1.0 / static_cast<double>(dops) : 0.0;

  std::map<std::string, double> self_by_layer = {
      {"txn.client", 0}, {"txn.service", 0}, {"txn.server", 0}, {"rpc", 0},
      {"cooperation", 0}, {"storage", 0},   {"net", 0}};
  for (const auto& [name, a] : spans) {
    std::string layer = name.substr(0, name.find(':'));
    if (self_by_layer.count(layer)) self_by_layer[layer] += a.self_us;
  }
  for (const auto& [layer, self_us] : self_by_layer) {
    out->Set(layer + ".self_us_per_dop", self_us * per_dop, "us");
  }

  double envelopes = count("rpc:execute") + count("net:execute");
  out->Set("txn.client.envelopes_per_dop", envelopes * per_dop, "count");
  out->Set("txn.service.execute_p50_us", p50({"rpc:execute", "net:execute"}),
           "us");
  double handlers = count("txn.server:dispatch");
  double codec = total("txn.service:decode") + total("txn.service:encode");
  out->Set("txn.service.codec_us_per_envelope",
           handlers ? codec / handlers : 0.0, "us");
  out->Set("txn.server.dispatch_p50_us", p50({"txn.server:dispatch"}), "us");
  out->Set("txn.server.busy_share",
           total("txn.server:dispatch") / window_us, "ratio");
  double rpc_envelopes = count("rpc:execute");
  out->Set("rpc.transport_us_per_envelope",
           rpc_envelopes ? (total("rpc:execute") - codec -
                            total("txn.server:dispatch")) /
                               rpc_envelopes
                         : 0.0,
           "us");
  out->Set("cooperation.inscope_calls_per_dop",
           count("cooperation:inscope") * per_dop, "count");
  out->Set("cooperation.inscope_p50_us", p50({"cooperation:inscope"}), "us");
  out->Set("cooperation.inscope_us_per_dop",
           total("cooperation:inscope") * per_dop, "us");
  out->Set("cooperation.op_p50_us",
           p50({"cooperation:propagate", "cooperation:withdraw",
                "cooperation:invalidate"}),
           "us");
  out->Set("cooperation.propagate_p50_us", p50({"cooperation:propagate"}),
           "us");
  out->Set("cooperation.withdraw_p50_us", p50({"cooperation:withdraw"}), "us");
  out->Set("cooperation.invalidate_p50_us", p50({"cooperation:invalidate"}),
           "us");
  out->Set("storage.checkpoint_ms", p50({"storage:checkpoint"}) / 1e3, "ms");
  out->Set("net.rtt_p50_us", p50({"net:execute"}), "us");
}

// --- The measurement protocol -------------------------------------------

RunResult RunWorkload(const Options& options, int64_t process_start,
                      Workload& workload) {
  RunResult out;
  const size_t restarts = options.trace ? kRestarts : 0;
  Tracer::Enable(false);
  std::vector<double> setup_s;
  Restarts restart_samples;
  for (size_t i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    workload.Teardown();  // before the clock starts
    const int64_t start = i == 0 ? process_start : NowNs();
    std::string error = workload.Build(restarts, &restart_samples);
    if (!error.empty()) {
      out.Fail(error);
      return out;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  // Memory after set-up: the loaded, warmed plane. What the window adds
  // follows the throughput, so it is left out.
  const double setup_rss_mb = workload.PeakRss();
  Window window = workload.Run(options.seconds);
  const DesignerLog& log = window.log;
  workload.Check(log, &out);
  out.report["op_type_hashes"] = OpTypeHashes(options, workload.generators());

  if (!options.trace) {
    workload.Teardown();
    ReportWindow(window, &out);
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("peak_rss_mb", setup_rss_mb, "MB");
    out.attempted = log.tally.TotalAttempted();
    out.failed = log.tally.TotalFailed();
    out.report["setup_s_samples"] = JsonArray(setup_s);
    return out;
  }

  // Traced run: the same workload on a fresh plane, set up the same way,
  // with every seam decorated.
  const double untraced_dops_per_s =
      static_cast<double>(log.dops_committed) / window.seconds;
  workload.Teardown();
  Tracer::Enable(true);
  Restarts ignored;
  std::string error = workload.Build(restarts, &ignored);
  if (!error.empty()) {
    out.Fail(error);
    return out;
  }
  Tracer::Reset();
  workload.MarkCounters();
  Window traced_window = workload.Run(options.seconds);
  const DesignerLog& traced = traced_window.log;
  auto spans = Tracer::Aggregate();
  std::filesystem::create_directories(options.work_dir);
  const std::string span_path =
      options.work_dir + "/spans_" + options.workload + ".tsv";
  const size_t written = Tracer::Write(span_path);
  Tracer::Enable(false);

  const double traced_dops_per_s =
      static_cast<double>(traced.dops_committed) / traced_window.seconds;
  ReportLayers(spans, traced, traced_window.seconds, &out);
  workload.ReportCounters(spans, traced, &out);
  out.Set("trace_overhead", traced_dops_per_s / untraced_dops_per_s, "ratio");
  // Restarts of the untraced plane, so tracing does not slow them.
  out.Set("storage.restart_s", Median(restart_samples.seconds), "s");
  out.Set("storage.replay_records_per_s", Median(restart_samples.replay_rates),
          "1/s");
  workload.Check(traced, &out);
  workload.Teardown();
  Tracer::Reset();
  out.attempted = traced.tally.TotalAttempted();
  out.failed = traced.tally.TotalFailed();
  out.report["ops"] = traced.tally.Json();
  out.report["untraced_ops"] = log.tally.Json();
  out.report["spans_file"] = JsonString(span_path);
  out.report["spans_written"] = std::to_string(written);
  out.report["trace_window"] =
      "{\"traced_dops_per_s\":" + std::to_string(traced_dops_per_s) +
      ",\"untraced_dops_per_s\":" + std::to_string(untraced_dops_per_s) + "}";
  workload.SelfTest(&out);
  return out;
}

}  // namespace perfbench
