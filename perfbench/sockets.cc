// The sockets workload: two concordd shards over Unix sockets, reached
// by the designers' ClientTms through NetServerService. concordd keeps
// its log in memory (no --data-dir); the designers seed their DAs'
// versions over the wire during set-up.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/clock.h"
#include "net/address.h"
#include "net/net_server_service.h"
#include "net/rpc_client.h"
#include "rpc/network.h"
#include "storage/object.h"
#include "tools/plane_schema.h"
#include "txn/client_tm.h"
#include "txn/shard_router.h"

namespace perfbench {
namespace {

using namespace concord;
namespace fs = std::filesystem;

constexpr size_t kShards = 2;
constexpr size_t kDasPerDesigner = 4;  // slot s is homed on shard s % 2
constexpr size_t kSeedPerDa = 300;
constexpr uint64_t kWarmupOps = 300;
constexpr int kStartTimeoutMs = 60000;

/// A spawned concordd with its stdout read line by line. The read
/// returns as soon as a line is complete, so spawn -> READY is timed
/// without polling granularity. The destructor kills and reaps.
class Server {
 public:
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(SIGKILL); }

  /// Starts concordd and waits for READY; returns the seconds taken,
  /// or a negative value on failure.
  double Start(const std::vector<std::string>& args) {
    // argv is built before fork: the child of a threaded process may
    // only make async-signal-safe calls.
    std::string binary = PERFBENCH_CONCORDD;
    std::vector<std::string> copy = args;
    std::vector<char*> argv{binary.data()};
    for (std::string& arg : copy) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0) return -1;
    int64_t start = NowNs();
    pid_ = fork();
    if (pid_ == 0) {
      close(fds[0]);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[1]);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
    if (pid_ < 0) return -1;
    std::string line;
    while (ReadLine(&line, kStartTimeoutMs)) {
      if (line == "READY") return static_cast<double>(NowNs() - start) / 1e9;
    }
    return -1;
  }

  /// Sends `signo`, waits for the exit and closes the pipe.
  void Stop(int signo) {
    if (pid_ > 0) {
      kill(pid_, signo);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_ >= 0) {
      close(out_);
      out_ = -1;
    }
  }

  int pid() const { return pid_; }

 private:
  bool ReadLine(std::string* line, int timeout_ms) {
    int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      int left = static_cast<int>((deadline - NowNs()) / 1000000);
      if (left <= 0) return false;
      struct pollfd pfd = {out_, POLLIN, 0};
      if (poll(&pfd, 1, left) <= 0) continue;
      char chunk[512];
      ssize_t n = read(out_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::string buffer_;
};

/// One design activity as its designer sees it. The inputs are drawn
/// from the seeded versions only, a set of fixed size, so the mix (and
/// the share of checkouts the cache serves) stays the same through a
/// run.
struct DaState {
  DaId id;
  size_t home = 0;
  std::vector<DovId> pool;               ///< the seeded versions
  std::map<uint64_t, int64_t> expected;  ///< dov -> value, for the check
};

struct Workstation {
  NodeId node;
  DotId dot;
  std::vector<std::unique_ptr<net::NetServerService>> services;
  std::vector<std::unique_ptr<TracedService>> traced;
  std::unique_ptr<txn::ClientTm> client;
  std::unique_ptr<Generator> generator;
  std::vector<DaState> das;  ///< by slot
};

struct Plane {
  // One simulated clock and node table for both workstations: ClientTm
  // namespaces DOP and 2PC ids by its node id, so the designers must
  // not share one.
  SimClock clock;
  rpc::Network network{&clock, 7};
  std::string dir;
  std::vector<std::string> sockets;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::shared_ptr<net::RpcChannel>> channels;
  std::vector<std::unique_ptr<Workstation>> workstations;
};

/// (Re)starts both concordds one after the other. Returns the summed
/// spawn -> READY time, or a negative value if one did not start.
double StartServers(Plane& plane) {
  double total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    if (s < plane.servers.size()) {
      plane.servers[s]->Stop(SIGTERM);
    } else {
      plane.servers.push_back(nullptr);
    }
    plane.servers[s] = std::make_unique<Server>();
    double took = plane.servers[s]->Start(
        {"--listen=unix:" + plane.sockets[s], "--shard=" + std::to_string(s),
         "--workers=1"});
    if (took < 0) return -1;
    total += took;
  }
  return total;
}

/// Each designer checks in kSeedPerDa versions of each of its DAs over
/// the wire, so checkouts have versions to read.
bool SeedOverTheWire(Plane& plane) {
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (auto& owned : plane.workstations) {
    Workstation* ws = owned.get();
    threads.emplace_back([ws, &failed] {
      for (DaState& state : ws->das) {
        for (size_t k = 0; k < kSeedPerDa; ++k) {
          int64_t value = static_cast<int64_t>(k);
          storage::DesignObject object(ws->dot);
          object.SetAttr("value", value);
          auto dop = ws->client->BeginDop(state.id);
          Result<DovId> dov = dop.status();
          if (dop.ok()) dov = ws->client->CheckinCommit(*dop, std::move(object), {});
          if (!dov.ok()) {
            failed.store(true);
            return;
          }
          state.pool.push_back(*dov);
          state.expected[dov->value()] = value;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return !failed.load();
}

void RunOp(Workstation& ws, const Op& op, DesignerLog& log) {
  DaState& state = ws.das[op.da_slot];
  std::vector<DovId> inputs{state.pool[op.draws[0] % state.pool.size()]};
  if (op.extra) {
    // One of the designer's DAs homed on the other shard.
    size_t other = (op.draws[2] % 2) * kShards + (1 - state.home);
    const DaState& remote = ws.das[other];
    inputs.push_back(remote.pool[op.draws[1] % remote.pool.size()]);
  }

  storage::DesignObject object(ws.dot);
  object.SetAttr("value", op.value);
  Result<DovId> dov =
      perfbench::RunDop(*ws.client, state.id, inputs, std::move(object), log);
  if (dov.ok()) state.expected[dov->value()] = op.value;
}

Window Run(Plane& plane, double seconds, uint64_t max_ops) {
  return RunClosedLoop(seconds, max_ops, [&plane](size_t d, DesignerLog& log) {
    Workstation& ws = *plane.workstations[d];
    RunOp(ws, ws.generator->Next(), log);
  });
}

/// Compares every DA's admin/dump_da against the versions the plane
/// acknowledged (seeded ones included). With no failed op the counts
/// must match exactly.
void CheckServers(Plane& plane, bool exact, RunResult* out) {
  size_t checked = 0;
  for (size_t s = 0; s < kShards; ++s) {
    auto address = net::Address::Parse("unix:" + plane.sockets[s]);
    net::RpcChannel admin(900 + s, *address);
    for (auto& ws : plane.workstations) {
      for (const DaState& state : ws->das) {
        if (state.home != s) continue;
        auto dump = admin.Call("admin/dump_da", std::to_string(state.id.value()));
        if (!dump.ok()) {
          out->Fail("admin/dump_da failed: " + dump.status().ToString());
          continue;
        }
        std::map<uint64_t, int64_t> found;
        std::istringstream lines(*dump);
        uint64_t dov = 0;
        long long value = 0;
        while (lines >> dov >> value) found[dov] = value;
        for (const auto& [id, expected] : state.expected) {
          ++checked;
          auto it = found.find(id);
          if (it == found.end() || it->second != expected) {
            out->Fail("DA " + std::to_string(state.id.value()) + ": DOV " +
                      std::to_string(id) + " missing or wrong");
          }
        }
        if (exact && found.size() != state.expected.size()) {
          out->Fail("DA " + std::to_string(state.id.value()) + " holds " +
                    std::to_string(found.size()) + " versions, expected " +
                    std::to_string(state.expected.size()));
        }
      }
    }
    admin.Shutdown();
  }
  out->report["acked_checked"] = std::to_string(checked);
}

/// Counters of the socket plane, read from the layers' stats().
struct Counters {
  uint64_t cross_shard = 0;
  uint64_t wire_bytes = 0;
  net::RpcChannelStats channels;
  double server_cpu_us = 0;
};

Counters ReadCounters(Plane& plane) {
  Counters c;
  for (auto& ws : plane.workstations) {
    c.cross_shard += ws->client->stats().cross_shard_interactions;
    for (auto& traced : ws->traced) c.wire_bytes += traced->wire_bytes();
  }
  for (auto& channel : plane.channels) {
    net::RpcChannelStats s = channel->stats();
    c.channels.retries += s.retries;
    c.channels.reconnects += s.reconnects;
    c.channels.timeouts += s.timeouts;
  }
  for (auto& server : plane.servers) c.server_cpu_us += CpuTimeUs(server->pid());
  return c;
}

class Sockets : public Workload {
 public:
  explicit Sockets(const Options& options) : options_(options) {}
  ~Sockets() override { Teardown(); }

  /// Fresh directories, the servers started and then restarted
  /// `restarts` times (each concordd keeps its log in memory, so every
  /// restart is over an empty store), and the designers' client stacks
  /// connected, seeded and warmed.
  std::string Build(size_t restarts, Restarts* restarts_out) override {
    Teardown();
    plane_ = std::make_unique<Plane>();
    Plane& plane = *plane_;
    plane.dir = options_.work_dir + "/" + options_.workload;
    std::error_code ignored;
    fs::remove_all(plane.dir, ignored);
    fs::create_directories(plane.dir);
    for (size_t s = 0; s < kShards; ++s) {
      plane.sockets.push_back(plane.dir + "/s" + std::to_string(s) + ".sock");
    }
    for (size_t round = 0; round <= restarts; ++round) {
      double took = StartServers(plane);
      if (took < 0) return "concordd did not start";
      if (round > 0) restarts_out->seconds.push_back(took);
    }
    for (size_t s = 0; s < kShards; ++s) {
      auto address = net::Address::Parse("unix:" + plane.sockets[s]);
      plane.channels.push_back(
          std::make_shared<net::RpcChannel>(1 + s, *address));
    }
    for (size_t d = 0; d < kDesigners; ++d) {
      auto ws = std::make_unique<Workstation>();
      ws->node = plane.network.AddNode("designer" + std::to_string(d));
      storage::SchemaCatalog schema;
      ws->dot = tools::DefinePlaneSchema(&schema);
      ws->generator =
          std::make_unique<Generator>(options_.workload, options_.seed, d);
      std::vector<std::pair<NodeId, txn::ServerService*>> routes;
      for (size_t s = 0; s < kShards; ++s) {
        // Server NodeIds are workstation-local labels: shard s of a DOV
        // id maps to routes[s].
        ws->services.push_back(std::make_unique<net::NetServerService>(
            NodeId(1000 + s), plane.channels[s]));
        txn::ServerService* service = ws->services.back().get();
        if (Tracer::enabled()) {
          ws->traced.push_back(
              std::make_unique<TracedService>(service, "net:execute"));
          service = ws->traced.back().get();
        }
        routes.emplace_back(NodeId(1000 + s), service);
      }
      txn::ShardRouter router(std::move(routes), /*placement=*/nullptr);
      for (size_t slot = 0; slot < kDasPerDesigner; ++slot) {
        DaState state;
        state.id = DaId(100 + d * kDasPerDesigner + slot);
        state.home = slot % kShards;
        router.SetStaticHome(state.id, state.home).ok();
        ws->das.push_back(std::move(state));
      }
      ws->client = std::make_unique<txn::ClientTm>(router, &plane.network,
                                                   ws->node, &plane.clock);
      plane.workstations.push_back(std::move(ws));
    }
    if (!SeedOverTheWire(plane)) return "seeding versions over the wire failed";
    perfbench::Run(plane, 0, kWarmupOps);
    return "";
  }

  void Teardown() override {
    if (!plane_) return;
    plane_->workstations.clear();
    for (auto& channel : plane_->channels) channel->Shutdown();
    for (auto& server : plane_->servers) server->Stop(SIGTERM);
    std::error_code ignored;
    fs::remove_all(plane_->dir, ignored);
    plane_.reset();
  }

  Window Run(double seconds) override {
    return perfbench::Run(*plane_, seconds, UINT64_MAX);
  }

  /// This process plus both concordd.
  double PeakRss() override {
    double mb = PeakRssMb();
    for (auto& server : plane_->servers) mb += PeakRssMb(server->pid());
    return mb;
  }

  std::vector<const Generator*> generators() const override {
    std::vector<const Generator*> out;
    for (auto& ws : plane_->workstations) out.push_back(ws->generator.get());
    return out;
  }

  void MarkCounters() override { before_ = ReadCounters(*plane_); }

  void ReportCounters(const std::map<std::string, Tracer::Agg>& /*spans*/,
                      const DesignerLog& log, RunResult* out) override {
    const Counters& a = before_;
    const Counters b = ReadCounters(*plane_);
    const double dops =
        static_cast<double>(std::max<uint64_t>(1, log.dops_committed));
    out->Set("txn.service.wire_bytes_per_dop",
             static_cast<double>(b.wire_bytes - a.wire_bytes) / dops, "B");
    out->Set("txn.server.cross_shard_share",
             static_cast<double>(b.cross_shard - a.cross_shard) / dops,
             "ratio");
    out->Set("rpc.retries",
             static_cast<double>(b.channels.retries - a.channels.retries),
             "count");
    double server_rss = 0;
    for (auto& server : plane_->servers) server_rss += PeakRssMb(server->pid());
    out->Set("net.server_peak_rss_mb", server_rss, "MB");
    out->Set("net.server_cpu_us_per_dop",
             (b.server_cpu_us - a.server_cpu_us) / dops, "us");
    out->Set("net.reconnects",
             static_cast<double>(b.channels.reconnects - a.channels.reconnects),
             "count");
    out->Set("net.timeouts",
             static_cast<double>(b.channels.timeouts - a.channels.timeouts),
             "count");
  }

  void Check(const DesignerLog& log, RunResult* out) override {
    CheckServers(*plane_, log.tally.TotalFailed() == 0, out);
  }

 private:
  const Options options_;
  std::unique_ptr<Plane> plane_;
  Counters before_;
};

}  // namespace

std::unique_ptr<Workload> MakeSockets(const Options& options) {
  return std::make_unique<Sockets>(options);
}

}  // namespace perfbench
