// The in-process workload, coop_read, on a plane the benchmark
// assembles itself from the library's layer classes: ClientTm
// over RemoteServerStubs on the simulated LAN, ServerTm per node, the
// Repository with its in-memory WAL, the CooperationManager as scope
// authority, the InvalidationBus and the PlacementMap. Building the
// plane here keeps every layer seam in the benchmark's hands, so the
// traced run can decorate each one without touching the library.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "bench.h"
#include "common/clock.h"
#include "cooperation/cooperation_manager.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "storage/repository_router.h"
#include "txn/client_tm.h"
#include "txn/lock_router.h"
#include "txn/placement.h"
#include "txn/remote_server_stub.h"
#include "txn/scope_authority.h"
#include "txn/server_tm.h"
#include "txn/shard_router.h"

namespace perfbench {
namespace {

using namespace concord;

constexpr size_t kDas = 16;
constexpr size_t kDasPerDesigner = 8;
constexpr size_t kGeneratorBatch = 256;
/// Designer 0 checkpoints every shard once the versions checked in since
/// the last checkpoint reach 1/kCheckpointShare of all versions stored.
/// Checkpoint() copies the whole store, which grows with every checkin,
/// so a fixed cadence would charge each DOP more the longer (and the
/// faster) a run goes; this cadence keeps the share per DOP fixed.
constexpr uint64_t kCheckpointShare = 8;

constexpr size_t kNodes = 2;
constexpr size_t kDovsPerDa = 500;  // 8k DOVs against a 256-entry cache
constexpr size_t kPropagatedPerDa = 300;
constexpr uint64_t kWarmupOps = 1000;  // per designer, part of set-up

/// ScopeAuthority seam in front of CooperationManager::InScope. The
/// ServerTms need a scope authority before the CM (which needs their
/// lock tables) exists, so the plane forwards through this object in
/// both runs; the traced run also times each call.
class ScopeGate : public txn::ScopeAuthority {
 public:
  void Attach(cooperation::CooperationManager* cm) { cm_ = cm; }
  bool InScope(DaId da, DovId dov) override {
    if (!Tracer::enabled()) return cm_->InScope(da, dov);
    bool granted;
    {
      Tracer::Scope span("cooperation:inscope");
      granted = cm_->InScope(da, dov);
    }
    if (!granted) denials_.fetch_add(1, std::memory_order_relaxed);
    return granted;
  }
  uint64_t denials() const { return denials_.load(); }

 private:
  cooperation::CooperationManager* cm_ = nullptr;
  std::atomic<uint64_t> denials_{0};
};

/// The server half of RegisterServerService with each step timed.
void RegisterTracedServerService(txn::ServerTm* tm,
                                 rpc::TransactionalRpc* rpc) {
  rpc->RegisterHandler(
      tm->node(), txn::kServerServiceMethod,
      [tm](const std::string& request) -> Result<std::string> {
        Result<txn::BatchRequest> batch = Status::Internal("unset");
        {
          Tracer::Scope span("txn.service:decode");
          batch = txn::DecodeBatchRequest(request);
        }
        if (!batch.ok()) return batch.status();
        txn::BatchReply reply;
        {
          Tracer::Scope span("txn.server:dispatch");
          reply = txn::DispatchBatch(*tm, *batch);
        }
        Tracer::Scope span("txn.service:encode");
        return txn::EncodeBatchReply(reply);
      });
}

/// One acknowledged commit: what the output check looks for.
struct Acked {
  DovId dov;
  int64_t value = 0;
  DaId da;
};

/// One design activity as its owning designer sees it. Only the owning
/// designer thread touches it once traffic starts. Every input set is
/// of fixed size, so the mix stays the same through a run.
struct DaState {
  DaId id;
  size_t home = 0;
  /// The DA (index into Plane::das) whose propagated versions this DA's
  /// DOPs read: its partner, or itself (see Plane::Plane).
  size_t reads = 0;
  std::vector<DovId> pool;          ///< the bulk-loaded versions
  std::vector<DovId> propagated;    ///< currently propagated
  std::vector<DovId> fresh;         ///< not propagated now
};

struct Plane {
  struct Shard {
    NodeId node;
    std::unique_ptr<storage::Repository> repo;
    std::unique_ptr<txn::ServerTm> tm;
  };
  struct Workstation {
    NodeId node;
    std::vector<std::unique_ptr<txn::RemoteServerStub>> stubs;
    std::vector<std::unique_ptr<TracedService>> traced;
    std::unique_ptr<txn::PlacementClient> placement_client;
    std::unique_ptr<txn::ClientTm> client;
  };

  SimClock clock;
  rpc::Network network;
  rpc::TransactionalRpc rpc{&network};
  txn::PlacementMap placement;
  ScopeGate scope;
  std::unique_ptr<rpc::InvalidationBus> bus;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<cooperation::CooperationManager> cm;
  std::vector<std::unique_ptr<Workstation>> workstations;
  DotId cell;
  DotId chip;
  std::vector<DaState> das;
  std::atomic<uint64_t> versions{0};  ///< stored across all shards
  uint64_t checkpointed_versions = 0;  ///< designer 0 only

  explicit Plane(uint64_t seed);
  storage::DesignObject Object(int64_t value) const {
    storage::DesignObject object(cell);
    object.SetAttr("value", value);
    return object;
  }
};

void Require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: plane set-up failed: %s\n", what);
  std::exit(3);
}

Plane::Plane(uint64_t seed) : network(&clock, seed) {
  for (size_t s = 0; s < kNodes; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->node = network.AddNode("server" + std::to_string(s));
    shard->repo = std::make_unique<storage::Repository>(&clock);
    shard->repo->set_dov_id_shard(static_cast<uint32_t>(s));
    auto* cell_type = shard->repo->schema().DefineType("cell");
    cell_type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    auto* chip_type = shard->repo->schema().DefineType("chip");
    chip_type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    chip_type->AddPart({cell_type->id(), 0, 1 << 20});
    cell = cell_type->id();
    chip = chip_type->id();
    placement.RegisterNode(shard->node);
    shards.push_back(std::move(shard));
  }
  bus = std::make_unique<rpc::InvalidationBus>(&network, shards[0]->node);
  for (auto& shard : shards) {
    shard->tm = std::make_unique<txn::ServerTm>(
        shard->repo.get(), &network, shard->node, &scope, bus.get());
    if (shards.size() > 1) shard->tm->JoinPlane(&placement);
    if (Tracer::enabled()) {
      RegisterTracedServerService(shard->tm.get(), &rpc);
    } else {
      txn::RegisterServerService(shard->tm.get(), &rpc);
    }
  }
  placement.SetLivenessProbe([this](NodeId node) { return network.IsUp(node); });
  txn::RegisterPlacementService(&placement, &rpc, shards[0]->node);

  std::vector<storage::Repository*> repos;
  std::vector<txn::ServerLockTable*> locks;
  for (auto& shard : shards) {
    repos.push_back(shard->repo.get());
    locks.push_back(&shard->tm->locks());
  }
  cm = std::make_unique<cooperation::CooperationManager>(
      storage::RepositoryRouter(std::move(repos)),
      txn::LockRouter(std::move(locks)), &placement, &clock);
  cm->SetEventSink([](DaId, const workflow::Event&) {});
  cm->SetWithdrawalSink(
      [this](DaId da, DovId dov, bool invalidated, DovId replacement) {
        rpc::InvalidationMessage message;
        message.kind = invalidated
                           ? rpc::InvalidationMessage::Kind::kInvalidated
                           : rpc::InvalidationMessage::Kind::kWithdrawn;
        message.dov = dov;
        message.origin_da = da;
        message.replacement = replacement;
        message.origin_node =
            shards[DovShardClamped(dov, shards.size())]->node;
        bus->Publish(message);
      });
  scope.Attach(cm.get());

  for (size_t d = 0; d < kDesigners; ++d) {
    auto ws = std::make_unique<Workstation>();
    ws->node = network.AddNode("ws" + std::to_string(d));
    std::vector<std::pair<NodeId, txn::ServerService*>> routes;
    for (auto& shard : shards) {
      ws->stubs.push_back(
          std::make_unique<txn::RemoteServerStub>(&rpc, ws->node, shard->node));
      txn::ServerService* service = ws->stubs.back().get();
      if (Tracer::enabled()) {
        ws->traced.push_back(
            std::make_unique<TracedService>(service, "rpc:execute"));
        service = ws->traced.back().get();
      }
      routes.emplace_back(shard->node, service);
    }
    ws->placement_client = std::make_unique<txn::PlacementClient>(
        &rpc, ws->node, shards[0]->node);
    ws->client = std::make_unique<txn::ClientTm>(
        txn::ShardRouter(std::move(routes), ws->placement_client.get()),
        &network, ws->node, &clock, bus.get());
    workstations.push_back(std::move(ws));
  }

  // DA hierarchy through the CM: one root, kDas cell sub-DAs.
  cooperation::DaDescription root_desc;
  root_desc.dot = chip;
  root_desc.designer = DesignerId(1);
  root_desc.workstation = workstations[0]->node;
  auto root = cm->InitDesign(root_desc);
  Require(root.ok(), "InitDesign");
  Require(cm->Start(*root).ok(), "Start(root)");
  for (size_t i = 0; i < kDas; ++i) {
    cooperation::DaDescription desc;
    desc.dot = cell;
    desc.designer = DesignerId(2 + i);
    // Pair i / 2 belongs to designer (i / 2) % 2. DA i is homed on
    // shard i % nodes, so the pairs straddle both shards.
    size_t owner = (i / 2) % kDesigners;
    desc.workstation = workstations[owner]->node;
    auto sub = cm->CreateSubDa(*root, desc);
    Require(sub.ok(), "CreateSubDa");
    Require(cm->Start(*sub).ok(), "Start(sub)");
    DaState state;
    state.id = *sub;
    state.home = i % shards.size();
    Require(placement.Assign(*sub, shards[state.home]->node).ok(), "Assign");
    das.push_back(std::move(state));
  }

  // Bulk load, single-threaded: batched repository transactions written
  // straight into each DA's home shard, each version derived from the
  // DA's previous one, with scope ownership claimed as a checkin would.
  for (DaState& state : das) {
    storage::Repository& repo = *shards[state.home]->repo;
    txn::ServerLockTable& lock_table = shards[state.home]->tm->locks();
    TxnId txn = repo.Begin();
    size_t in_batch = 0;
    for (size_t k = 0; k < kDovsPerDa; ++k) {
      storage::DovRecord record;
      record.id = repo.NextDovId();
      record.owner_da = state.id;
      record.type = cell;
      record.data = Object(static_cast<int64_t>(k));
      if (!state.pool.empty()) record.predecessors = {state.pool.back()};
      DovId id = record.id;
      Require(repo.Put(txn, std::move(record)).ok(), "Put");
      lock_table.SetScopeOwner(id, state.id);
      state.pool.push_back(id);
      if (++in_batch == kGeneratorBatch) {
        Require(repo.Commit(txn).ok(), "Commit");
        txn = repo.Begin();
        in_batch = 0;
      }
    }
    Require(repo.Commit(txn).ok(), "Commit");
    versions += state.pool.size();
  }

  checkpointed_versions = versions;

  // Each pair requires each other's results (the shape the chaos
  // harness uses), and each DA propagates part of its versions. The odd
  // DA of a pair requires first. At this commit the second Require of a
  // pair creates no edge (F1 in ROADMAP.md), so the even DA may not read
  // its partner's versions; the measured traffic makes no checkout the
  // program denies, and reads the even DA's own propagated versions
  // instead. ProbeMutualRequire tries both directions of every pair
  // after the window and reports the denials.
  for (size_t i = 0; i < das.size(); ++i) {
    Require(cm->Require(das[i ^ 1].id, das[i].id, {}).ok(), "Require");
    das[i].reads = i % 2 == 1 ? i ^ 1 : i;
  }
  for (DaState& state : das) {
    size_t count = std::min(kPropagatedPerDa, state.pool.size());
    std::vector<bool> chosen(state.pool.size(), false);
    for (size_t k = 0; k < count; ++k) {
      size_t at = k * state.pool.size() / count;
      Require(cm->Propagate(state.id, state.pool[at]).ok(), "Propagate");
      state.propagated.push_back(state.pool[at]);
      chosen[at] = true;
    }
    for (size_t k = 0; k < state.pool.size(); ++k) {
      if (!chosen[k]) state.fresh.push_back(state.pool[k]);
    }
  }
}

/// Counters read from the layers' public stats() accessors.
struct Counters {
  uint64_t cross_shard = 0;
  uint64_t derivation_conflicts = 0;
  uint64_t scope_denials = 0;  ///< counted at the ScopeAuthority seam
  uint64_t rpc_retries = 0;
  uint64_t rpc_duplicates = 0;
  uint64_t deliveries = 0;
  uint64_t wal_records = 0;
  uint64_t wal_flushes = 0;
  uint64_t repo_commits = 0;
  uint64_t wire_bytes = 0;
};

Counters ReadCounters(Plane& plane) {
  Counters c;
  for (auto& ws : plane.workstations) {
    c.cross_shard += ws->client->stats().cross_shard_interactions;
    for (auto& traced : ws->traced) c.wire_bytes += traced->wire_bytes();
  }
  for (auto& shard : plane.shards) {
    c.derivation_conflicts += shard->tm->locks().stats().derivation_conflicts;
    c.wal_records += shard->repo->wal().total_appended();
    c.wal_flushes += shard->repo->wal().flushes();
    c.repo_commits += shard->repo->stats().txns_committed.load();
  }
  c.rpc_retries = plane.rpc.stats().retries.load();
  c.rpc_duplicates = plane.rpc.stats().duplicate_suppressed.load();
  c.deliveries = plane.bus->stats().deliveries;
  c.scope_denials = plane.scope.denials();
  return c;
}

/// One designer: its generator, its DAs and the acks it has collected.
struct Designer {
  size_t index = 0;
  std::unique_ptr<Generator> generator;
  std::vector<size_t> das;  ///< indexes into Plane::das, by slot
  std::vector<Acked> acked;
};

class Traffic {
 public:
  explicit Traffic(Plane* plane) : plane_(plane) {}

  /// Runs designer's next op, and on designer 0 the periodic checkpoint.
  void Step(Designer& designer, DesignerLog& log) {
    Op op = designer.generator->Next();
    if (op.kind == Op::kDop) {
      RunDop(designer, op, log);
    } else {
      RunCoopOp(designer, op, log);
    }
    if (designer.index != 0) return;
    const uint64_t versions = plane_->versions.load(std::memory_order_relaxed);
    if ((versions - plane_->checkpointed_versions) * kCheckpointShare >=
        versions) {
      Tracer::Scope span("storage:checkpoint");
      for (auto& shard : plane_->shards) shard->repo->Checkpoint();
      plane_->checkpointed_versions = versions;
      ++log.checkpoints;
    }
  }

 private:
  void RunDop(Designer& designer, const Op& op, DesignerLog& log) {
    txn::ClientTm& client = *plane_->workstations[designer.index]->client;
    DaState& state = plane_->das[designer.das[op.da_slot]];

    std::vector<DovId> inputs;
    auto add = [&inputs](DovId dov) {
      if (std::find(inputs.begin(), inputs.end(), dov) == inputs.end()) {
        inputs.push_back(dov);
      }
    };
    add(state.pool[op.draws[3] % state.pool.size()]);
    const DaState& supporter = plane_->das[state.reads];
    for (int i = 0; i < op.inputs && !supporter.propagated.empty(); ++i) {
      add(supporter.propagated[op.draws[i] % supporter.propagated.size()]);
    }

    std::optional<storage::DesignObject> checkin;
    if (op.checkin) checkin = plane_->Object(op.value);
    Result<DovId> dov = perfbench::RunDop(client, state.id, inputs,
                                          std::move(checkin), log);
    if (!dov.ok() || !dov->valid()) return;
    designer.acked.push_back(Acked{*dov, op.value, state.id});
    plane_->versions.fetch_add(1, std::memory_order_relaxed);
    state.fresh.push_back(*dov);
  }

  void RunCoopOp(Designer& designer, const Op& op, DesignerLog& log) {
    cooperation::CooperationManager& cm = *plane_->cm;
    DaState& state = plane_->das[designer.das[op.da_slot]];
    DovId dov;
    DovId replacement;
    const char* span_name = nullptr;
    // The versions leave the pools before the op, whatever its outcome,
    // so no later op relies on a version whose state is unknown.
    if (op.kind == Op::kPropagate) {
      if (state.fresh.empty()) return;
      dov = state.fresh.back();
      state.fresh.pop_back();
      span_name = "cooperation:propagate";
    } else {
      if (state.propagated.empty()) return;
      if (op.kind == Op::kInvalidate && state.fresh.empty()) return;
      size_t at = op.draws[0] % state.propagated.size();
      dov = state.propagated[at];
      state.propagated.erase(state.propagated.begin() + at);
      span_name = "cooperation:withdraw";
      if (op.kind == Op::kInvalidate) {
        replacement = state.fresh.back();
        state.fresh.pop_back();
        span_name = "cooperation:invalidate";
      }
    }
    ++log.coop_ops;
    log.tally.Attempt("coop_op");
    Status status;
    {
      Tracer::Scope span(span_name);
      if (op.kind == Op::kPropagate) {
        status = cm.Propagate(state.id, dov);
      } else if (op.kind == Op::kWithdraw) {
        status = cm.WithdrawPropagation(state.id, dov);
      } else {
        status = cm.InvalidateAndReplace(state.id, dov, replacement);
      }
    }
    if (!status.ok()) {
      log.tally.Fail("coop_op", status);
      return;
    }
    if (op.kind == Op::kPropagate) state.propagated.push_back(dov);
    // A withdrawn version may be propagated again later.
    if (op.kind == Op::kWithdraw) state.fresh.push_back(dov);
    if (op.kind == Op::kInvalidate) state.propagated.push_back(replacement);
  }

  Plane* plane_;
};

std::vector<Designer> MakeDesigners(const Options& options) {
  std::vector<Designer> designers(kDesigners);
  for (size_t d = 0; d < kDesigners; ++d) {
    designers[d].index = d;
    designers[d].generator =
        std::make_unique<Generator>(options.workload, options.seed, d);
    for (size_t slot = 0; slot < kDasPerDesigner; ++slot) {
      // Pairs d, d+2, ... with both DAs of a pair in adjacent slots
      // (slot ^ 1 is the partner).
      designers[d].das.push_back(((slot / 2) * kDesigners + d) * 2 +
                                 slot % 2);
    }
  }
  return designers;
}

/// The plane plus its designers, set up and warmed.
struct Setup {
  std::unique_ptr<Plane> plane;
  std::vector<Designer> designers;
};

/// Runs both designers on the plane (see RunClosedLoop).
Window Run(Setup& setup, double seconds, uint64_t max_ops) {
  Traffic traffic(setup.plane.get());
  return RunClosedLoop(seconds, max_ops, [&](size_t d, DesignerLog& log) {
    traffic.Step(setup.designers[d], log);
  });
}

Setup BuildAndWarm(const Options& options, uint64_t warmup_ops) {
  Setup setup;
  setup.plane = std::make_unique<Plane>(options.seed);
  setup.designers = MakeDesigners(options);
  Run(setup, 0, warmup_ops);
  return setup;
}

/// Restarts every server node over its stable storage, one after the
/// other, `rounds` times. Each round adds one sample: the summed
/// restart time of all nodes, and the WAL records each node replayed
/// per second.
void Restart(Plane& plane, size_t rounds, Restarts* out) {
  for (size_t r = 0; r < rounds; ++r) {
    double total = 0;
    for (size_t s = 0; s < plane.shards.size(); ++s) {
      Plane::Shard& shard = *plane.shards[s];
      double live = static_cast<double>(shard.repo->wal().size());
      shard.tm->Crash();
      plane.rpc.ClearNodeState(shard.node);
      if (s == 0) plane.cm->Crash();
      int64_t start = NowNs();
      Status recovered = shard.tm->Recover();
      if (recovered.ok()) {
        recovered = s == 0 ? plane.cm->Recover() : plane.cm->ReestablishLocks();
      }
      double took = static_cast<double>(NowNs() - start) / 1e9;
      Require(recovered.ok(), "restart");
      total += took;
      out->replay_rates.push_back(live / took);
    }
    out->seconds.push_back(total);
  }
}

/// Every acknowledged DOV exists in its shard's repository with its
/// value and owning DA.
void CheckAcked(Plane& plane, const std::vector<Designer>& designers,
                RunResult* out) {
  size_t checked = 0;
  for (const Designer& designer : designers) {
    for (const Acked& acked : designer.acked) {
      ++checked;
      size_t shard = DovShardClamped(acked.dov, plane.shards.size());
      auto record = plane.shards[shard]->repo->Get(acked.dov);
      if (!record.ok()) {
        out->Fail("acked DOV " + std::to_string(acked.dov.value()) +
                  " missing: " + record.status().ToString());
        continue;
      }
      auto value = record->data.GetNumeric("value");
      if (record->owner_da != acked.da || !value.ok() ||
          static_cast<int64_t>(*value) != acked.value) {
        out->Fail("acked DOV " + std::to_string(acked.dov.value()) +
                  " has the wrong value or owner");
      }
    }
  }
  out->report["acked_checked"] = std::to_string(checked);
}

/// The mutual-Require probe: for each direction of each pair, a DOP of
/// the DA checks out one of its partner's propagated versions, on the
/// workstation of the designer that owns the pair. Both directions were
/// required, so every checkout should pass; each denial is F1. Returns
/// the share of directions denied; the report gets the probe's ops by
/// status.
double ProbeMutualRequire(Plane& plane, RunResult* out) {
  DesignerLog probe;
  size_t directions = 0;
  for (size_t i = 0; i < plane.das.size(); ++i) {
    const DaState& partner = plane.das[i ^ 1];
    if (partner.propagated.empty()) continue;
    ++directions;
    txn::ClientTm& client =
        *plane.workstations[(i / 2) % plane.workstations.size()]->client;
    perfbench::RunDop(client, plane.das[i].id, {partner.propagated.front()},
                      std::nullopt, probe);
  }
  const uint64_t denied = probe.tally.TotalFailed();
  out->report["mutual_require_probe"] =
      "{\"directions\":" + std::to_string(directions) +
      ",\"ops\":" + probe.tally.Json() + "}";
  return directions ? static_cast<double>(denied) /
                          static_cast<double>(directions)
                    : 0.0;
}

class InProcess : public Workload {
 public:
  explicit InProcess(const Options& options) : options_(options) {}

  std::string Build(size_t restarts, Restarts* restarts_out) override {
    setup_ = Setup();
    setup_ = BuildAndWarm(options_, kWarmupOps);
    Restart(*setup_.plane, restarts, restarts_out);
    return "";
  }

  void Teardown() override { setup_ = Setup(); }

  Window Run(double seconds) override {
    return perfbench::Run(setup_, seconds, UINT64_MAX);
  }

  double PeakRss() override { return PeakRssMb(); }

  std::vector<const Generator*> generators() const override {
    std::vector<const Generator*> out;
    for (const Designer& designer : setup_.designers) {
      out.push_back(designer.generator.get());
    }
    return out;
  }

  void MarkCounters() override { before_ = ReadCounters(*setup_.plane); }

  void ReportCounters(const std::map<std::string, Tracer::Agg>& spans,
                      const DesignerLog& log, RunResult* out) override {
    const Counters& a = before_;
    const Counters b = ReadCounters(*setup_.plane);
    auto per = [](uint64_t delta, uint64_t base) {
      return base ? static_cast<double>(delta) / static_cast<double>(base)
                  : 0.0;
    };
    auto inscope = spans.find("cooperation:inscope");
    const uint64_t inscope_calls =
        inscope == spans.end() ? 0 : inscope->second.count;
    const uint64_t dops = log.dops_committed;
    out->Set("txn.service.wire_bytes_per_dop",
             per(b.wire_bytes - a.wire_bytes, dops), "B");
    out->Set("txn.server.derivation_conflicts_per_dop",
             per(b.derivation_conflicts - a.derivation_conflicts, dops),
             "count");
    out->Set("txn.server.cross_shard_share",
             per(b.cross_shard - a.cross_shard, dops), "ratio");
    out->Set("rpc.retries", static_cast<double>(b.rpc_retries - a.rpc_retries),
             "count");
    out->Set("rpc.duplicate_suppressed",
             static_cast<double>(b.rpc_duplicates - a.rpc_duplicates), "count");
    out->Set("rpc.invalidation.deliveries_per_coop_op",
             per(b.deliveries - a.deliveries, log.coop_ops), "count");
    out->Set("cooperation.scope_denial_share",
             per(b.scope_denials - a.scope_denials, inscope_calls), "ratio");
    out->Set("storage.wal_records_per_dop",
             per(b.wal_records - a.wal_records, dops), "count");
    out->Set("storage.wal_flushes_per_commit",
             per(b.wal_flushes - a.wal_flushes, b.repo_commits - a.repo_commits),
             "count");
  }

  /// The output check reads the repositories after one more restart;
  /// the mutual-Require probe follows, outside the window's tallies.
  void Check(const DesignerLog& /*log*/, RunResult* out) override {
    Restarts ignored;
    Restart(*setup_.plane, 1, &ignored);
    CheckAcked(*setup_.plane, setup_.designers, out);
    const double denied = ProbeMutualRequire(*setup_.plane, out);
    if (options_.trace) {
      out->Set("cooperation.mutual_require_denial_share", denied, "ratio");
    }
  }

  /// Determinism self-test: the same seed, a fixed number of ops per
  /// designer on a fresh plane, once untraced and once traced, must
  /// commit the same number of DOPs with the same failure counts.
  void SelfTest(RunResult* out) override {
    const uint64_t fixed_ops = 3000;
    Tracer::Enable(false);
    Setup plain = BuildAndWarm(options_, 0);
    DesignerLog plain_log = perfbench::Run(plain, 0, fixed_ops).log;
    plain = Setup();
    Tracer::Enable(true);
    Setup decorated = BuildAndWarm(options_, 0);
    DesignerLog decorated_log = perfbench::Run(decorated, 0, fixed_ops).log;
    decorated = Setup();
    Tracer::Enable(false);
    Tracer::Reset();
    const bool same_failures = plain_log.tally == decorated_log.tally;
    if (plain_log.dops_committed != decorated_log.dops_committed ||
        !same_failures) {
      out->Fail("traced and untraced fixed runs diverged");
    }
    std::ostringstream selftest;
    selftest << "{\"ops_per_designer\":" << fixed_ops
             << ",\"untraced_committed\":" << plain_log.dops_committed
             << ",\"traced_committed\":" << decorated_log.dops_committed
             << ",\"same_failures\":" << (same_failures ? "true" : "false")
             << "}";
    out->report["determinism_selftest"] = selftest.str();
  }

 private:
  const Options options_;
  Setup setup_;
  Counters before_;
};

}  // namespace

std::unique_ptr<Workload> MakeInProcess(const Options& options) {
  return std::make_unique<InProcess>(options);
}

}  // namespace perfbench
