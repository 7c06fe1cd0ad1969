// Shared pieces of the DOP benchmark: options, the closed-loop
// designer bookkeeping, the span tracer, failure tallies and the
// result record every workload fills in.
#ifndef CONCORD_PERFBENCH_BENCH_H_
#define CONCORD_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/random.h"
#include "common/status.h"
#include "storage/object.h"
#include "txn/client_tm.h"
#include "txn/server_service.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (sockets, spans).
  std::string work_dir = ".bench_build/work";
};

/// Closed-loop designer threads per workload.
inline constexpr size_t kDesigners = 2;
/// Equal parts of the window; each latency and throughput metric is the
/// median of its value over the parts, so a host stall that covers up
/// to two of them does not move it.
inline constexpr size_t kSubWindows = 5;
/// Ops per designer covered by the reported op-type hash.
inline constexpr uint64_t kHashPrefixOps = 4096;
/// Set-ups per untraced run; set-up time is their median.
inline constexpr size_t kSetups = 7;
/// Server restarts in each traced-run set-up: storage.restart_s samples.
inline constexpr size_t kRestarts = 5;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of a copy; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// --- Generator ---------------------------------------------------------

/// One planned operation. Every random draw an op needs is taken when
/// the plan is made, before the op runs, so the op-type sequence and
/// the draws do not depend on how earlier ops turned out.
struct Op {
  enum Kind : uint8_t { kDop, kPropagate, kWithdraw, kInvalidate };
  Kind kind = kDop;
  bool checkin = true;      ///< CheckinCommit (else CommitDop only)
  bool extra = false;       ///< sockets: plus a cross-shard input
  uint8_t inputs = 1;       ///< coop_read: partner input count
  uint32_t da_slot = 0;     ///< index into the designer's DAs
  uint32_t draws[4] = {0, 0, 0, 0};
  int64_t value = 0;
};

/// A designer's deterministic op stream: same (seed, workload,
/// designer) -> same ops.
class Generator {
 public:
  Generator(const std::string& workload, uint64_t seed, size_t designer);
  Op Next();
  /// FNV-1a over the kinds (and checkin / extra flags) of the ops
  /// handed out.
  uint64_t type_hash() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  std::string workload_;
  concord::Rng rng_;
  std::vector<double> zipf_cdf_;
  uint64_t hash_ = 1469598103934665603ull;
  uint64_t count_ = 0;
};

/// Hash of the first `n` op types of a fresh generator.
uint64_t PlanPrefixHash(const std::string& workload, uint64_t seed,
                        size_t designer, uint64_t n);

// --- Failure accounting -----------------------------------------------

/// Ops attempted per op kind and ops failed per (op kind, status code).
struct Tally {
  std::map<std::string, uint64_t> attempted;
  std::map<std::string, std::map<std::string, uint64_t>> failed;

  void Attempt(const char* op) { ++attempted[op]; }
  void Fail(const char* op, const concord::Status& status) {
    ++failed[op][concord::StatusCodeToString(status.code())];
  }
  void Merge(const Tally& other);
  uint64_t TotalAttempted() const;
  uint64_t TotalFailed() const;
  bool operator==(const Tally& other) const {
    return attempted == other.attempted && failed == other.failed;
  }
  std::string Json() const;
};

/// A latency sample and the time its call returned.
struct Timed {
  int64_t end_ns;
  double us;
};

/// Per-designer-thread results, merged after the window.
struct DesignerLog {
  std::vector<Timed> dops;  ///< committed DOPs
  std::vector<Timed> checkins;
  std::vector<Timed> misses;
  uint64_t dops_attempted = 0;
  uint64_t dops_committed = 0;
  uint64_t coop_ops = 0;
  uint64_t checkpoints = 0;
  uint64_t checkouts = 0;
  uint64_t cache_hits = 0;
  Tally tally;

  void Merge(DesignerLog&& other);
};

// --- Tracing -----------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed on the thread
/// that runs the call, so a thread-local stack gives each span its
/// parent. Aggregates (count, total and self time, durations) are kept
/// for every span; raw spans are kept up to a cap and written out when
/// the traced run ends. Off unless Enable(true) was called before the
/// plane was built.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// Drops every recorded span and aggregate (between runs).
  static void Reset();
  /// Tags spans opened afterwards on this thread with a DOP id.
  static void SetDop(uint64_t dop);

  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_;
  };

  struct Agg {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
    std::vector<double> durations_us;
  };
  /// Aggregates by span name across all threads. Call at quiescence.
  static std::map<std::string, Agg> Aggregate();
  /// Writes the kept spans as TSV (name, start_ns, end_ns, parent, dop,
  /// thread). Returns the number written.
  static size_t Write(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// ServerService decorator: times every envelope as a span and counts
/// the encoded request and reply bytes (encoded again here, outside
/// the envelope span, under a "bench:" span no layer is charged with).
class TracedService : public concord::txn::ServerService {
 public:
  TracedService(concord::txn::ServerService* inner, const char* span)
      : inner_(inner), span_(span) {}

  concord::NodeId server_node() const override {
    return inner_->server_node();
  }

  concord::Result<concord::txn::BatchReply> Execute(
      const concord::txn::BatchRequest& batch) override {
    concord::Result<concord::txn::BatchReply> reply =
        concord::Status::Internal("unset");
    {
      Tracer::Scope span(span_);
      reply = inner_->Execute(batch);
    }
    Tracer::Scope measure("bench:measure");
    uint64_t bytes = concord::txn::EncodeBatchRequest(batch).size();
    if (reply.ok()) bytes += concord::txn::EncodeBatchReply(*reply).size();
    wire_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return reply;
  }

  uint64_t wire_bytes() const { return wire_bytes_.load(); }

 private:
  concord::txn::ServerService* inner_;
  const char* span_;
  std::atomic<uint64_t> wire_bytes_{0};
};

// --- Results -----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> check_errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra report fields, already JSON-encoded, keyed by name.
  std::map<std::string, std::string> report;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    if (check_errors.size() < 20) check_errors.push_back(why);
  }
};

// --- Host / process probes ---------------------------------------------

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MB.
double PeakRssMb(int pid = 0);
/// utime + stime of `pid` in microseconds.
double CpuTimeUs(int pid);
/// JSON object: nproc, CPU model, compiler, build type, and where the
/// servers keep their log.
std::string HostFingerprint();
std::string JsonString(const std::string& text);

/// One DOP through `client`: BeginDop, a checkout of each input, then
/// CheckinCommit of `checkin` or, when it is empty, CommitDop. Timed,
/// traced and tallied into `log`. A DOP that cannot check out every
/// input aborts and counts as failed. Returns the checked-in version
/// (an invalid id for a DOP that committed without a checkin), or the
/// status of the op that failed.
concord::Result<concord::DovId> RunDop(
    concord::txn::ClientTm& client, concord::DaId da,
    const std::vector<concord::DovId>& inputs,
    std::optional<concord::storage::DesignObject> checkin, DesignerLog& log);

/// One closed-loop run of the designers.
struct Window {
  DesignerLog log;  ///< merged over the designers
  int64_t start_ns = 0;
  double seconds = 0;
  /// Share of the host's CPU time over the window that the hypervisor
  /// gave to other guests (steal), from /proc/stat.
  double steal_share = 0;
};

/// Runs `step(designer, log)` on kDesigners pinned threads in a closed
/// loop: each thread starts its next op only when the previous one has
/// returned. Stops after `seconds`, or, when `seconds` is 0, once each
/// thread ran `max_ops` ops.
Window RunClosedLoop(double seconds, uint64_t max_ops,
                     const std::function<void(size_t, DesignerLog&)>& step);

/// Pins the calling designer thread to one CPU of those this process may
/// use, skipping the first (left to the main thread and interrupts).
/// Designer threads that stay put contend less noisily for the plane's
/// locks. Best effort: a failure leaves the thread unpinned.
void PinDesignerThread(size_t designer);

// --- Workloads -----------------------------------------------------------

/// Server restart samples a plane took while it was built.
struct Restarts {
  std::vector<double> seconds;       ///< one per round, all servers summed
  std::vector<double> replay_rates;  ///< WAL records replayed per second
};

/// One workload's plane as the shared driver, RunWorkload, sees it. The
/// driver owns the measurement protocol; the workload builds and tears
/// down its plane, runs its designers, reads its layers' counters and
/// checks its output.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Tears down any previous plane and builds, seeds and warms a fresh
  /// one, with every seam decorated when the Tracer is enabled. Its
  /// servers are restarted `restarts` times on the way (samples go to
  /// `restarts_out`). Returns an error message, or "" on success.
  virtual std::string Build(size_t restarts, Restarts* restarts_out) = 0;
  virtual void Teardown() = 0;
  /// The designers in a closed loop for `seconds`.
  virtual Window Run(double seconds) = 0;
  /// Peak RSS so far of the plane's processes, in MB.
  virtual double PeakRss() = 0;
  /// The designers' generators, for the op-type hashes.
  virtual std::vector<const Generator*> generators() const = 0;
  /// Reads the layers' counters at the start of the traced window.
  virtual void MarkCounters() = 0;
  /// Sets the counter-based per-layer metrics from what moved since
  /// MarkCounters.
  virtual void ReportCounters(const std::map<std::string, Tracer::Agg>& spans,
                              const DesignerLog& log, RunResult* out) = 0;
  /// Checks every acknowledged commit against the servers' state.
  virtual void Check(const DesignerLog& log, RunResult* out) = 0;
  /// Further checks of the traced run.
  virtual void SelfTest(RunResult* /*out*/) {}
};

/// coop_read.
std::unique_ptr<Workload> MakeInProcess(const Options& options);
std::unique_ptr<Workload> MakeSockets(const Options& options);

/// The measurement protocol. --trace 0: kSetups set-ups (set-up time is
/// their median, the first timed from `process_start`), then the window
/// and the end-to-end metrics. --trace 1: an untraced window and a
/// traced one, each on a fresh plane whose servers were restarted
/// kRestarts times in set-up, so the two differ only in tracing; then
/// the per-layer metrics and trace_overhead.
RunResult RunWorkload(const Options& options, int64_t process_start,
                      Workload& workload);

/// JSON list of numbers.
std::string JsonArray(const std::vector<double>& values);
/// Per designer: the hash of the first kHashPrefixOps op types its
/// generator yields, and the number of ops it ran.
std::string OpTypeHashes(const Options& options,
                         const std::vector<const Generator*>& generators);

/// Shared summary of a finished window: the end-to-end metrics every
/// workload reports, from the merged designer log, each the median of
/// its kSubWindows values.
void ReportWindow(const Window& window, RunResult* out);
/// Sets every per-layer metric: the ones derived from spans and from the
/// designers' log here, the counter-based ones to 0 for the workload to
/// overwrite where its plane has the layer.
void ReportLayers(const std::map<std::string, Tracer::Agg>& spans,
                  const DesignerLog& log, double window_s, RunResult* out);

}  // namespace perfbench

#endif  // CONCORD_PERFBENCH_BENCH_H_
