#ifndef CONCORD_COOPERATION_COOPERATION_MANAGER_H_
#define CONCORD_COOPERATION_COOPERATION_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "cooperation/design_activity.h"
#include "cooperation/relationships.h"
#include "storage/configuration.h"
#include "storage/repository.h"
#include "storage/repository_router.h"
#include "txn/lock_manager.h"
#include "txn/lock_router.h"
#include "txn/placement.h"
#include "txn/scope_authority.h"
#include "workflow/events.h"

namespace concord::cooperation {

struct CmStats {
  uint64_t das_created = 0;
  uint64_t das_terminated = 0;
  uint64_t delegations = 0;
  uint64_t negotiations_started = 0;
  uint64_t proposals = 0;
  uint64_t agreements = 0;
  uint64_t disagreements = 0;
  uint64_t conflicts_escalated = 0;
  uint64_t propagations = 0;
  uint64_t require_ops = 0;
  uint64_t withdrawals = 0;
  uint64_t invalidations = 0;
  uint64_t protocol_violations = 0;
  uint64_t events_delivered = 0;
  uint64_t script_nodes_started = 0;
  uint64_t script_nodes_completed = 0;
  uint64_t script_nodes_failed = 0;
};

/// Latest script-engine progress reported for a DA: which task node of
/// its design script last started/finished, and running totals. Lets a
/// supervising designer (or the sim's metrics) watch a sub-DA's script
/// advance without polling the workstation.
struct ScriptProgress {
  std::string node;  // task-node name (DOP type, "choose", "join", ...)
  std::string path;  // rank path in the lowered task graph
  uint64_t nodes_started = 0;
  uint64_t nodes_completed = 0;
  uint64_t nodes_failed = 0;
};

/// Parameters of Create_Sub_DA / Init_Design — the DA description
/// vector plus placement.
struct DaDescription {
  DotId dot;
  std::optional<DovId> initial_dov;
  storage::DesignSpecification spec;
  DesignerId designer;
  workflow::Script dc;
  NodeId workstation;
};

/// The cooperation manager (Sect. 5.4): "the mediator between
/// cooperating DAs. It enforces that cooperation takes place only
/// along established cooperation relationships, and it further checks
/// each cooperative activity to comply with the integrity constraints
/// of the underlying cooperation relationship."
///
/// Centralized at the server; persists the DA-hierarchy-describing
/// information in the server DBMS (the repository's meta store) so a
/// server crash is survivable, and implements ScopeAuthority for the
/// server-TM's checkout test. Events to DAs are delivered through an
/// EventSink installed by the embedding system (transactional RPC in
/// the full stack).
///
/// Thread-safe: every public operation takes the (recursive) manager
/// mutex, so designer threads may run cooperation ops — Propagate,
/// Withdraw, hierarchy changes — concurrently with each other and with
/// the server-TM's InScope checks. The mutex is recursive because ops
/// compose (CreateSubDa consults InScope; event delivery can re-enter
/// via the embedding system's tool runner on the same thread). It IS
/// held across event-sink and withdrawal-sink callbacks — sinks must
/// not call back into a *different* thread's CM operation
/// synchronously, and must confine themselves to thread-safe
/// components (the invalidation bus and DOV caches are). Two
/// exceptions to the lock-everything rule: the sink setters (install
/// sinks before traffic starts) and GetDa, which hands out an interior
/// pointer for driver-thread inspection — see its comment.
class CooperationManager : public txn::ScopeAuthority {
 public:
  using EventSink = std::function<void(DaId, const workflow::Event&)>;
  /// Fired after a propagation is revoked — WithdrawPropagation
  /// (`invalidated` false) or InvalidateAndReplace (`invalidated` true,
  /// `replacement` set). The embedding system fans this out to the
  /// workstation DOV caches over the invalidation bus so no
  /// workstation keeps serving the withdrawn version locally.
  using WithdrawalSink =
      std::function<void(DaId da, DovId dov, bool invalidated,
                         DovId replacement)>;

  /// Single-server plane (the original shape): one repository, one
  /// lock manager, no placement authority. The manager wraps the bare
  /// lock manager in a non-owning single-slice ServerLockTable.
  CooperationManager(storage::Repository* repository,
                     txn::LockManager* locks, SimClock* clock);

  /// Single-server plane over a node's partitioned lock table (the
  /// server-TM's `locks()`).
  CooperationManager(storage::Repository* repository,
                     txn::ServerLockTable* locks, SimClock* clock);

  /// Sharded server plane: routed storage/lock access plus the
  /// placement authority this manager drives (Create_Sub_DA places the
  /// delegated DA on the least-loaded shard; MigrateDa re-homes one).
  /// `placement` may be null (no placement decisions are made then).
  CooperationManager(storage::RepositoryRouter repository,
                     txn::LockRouter locks, txn::PlacementMap* placement,
                     SimClock* clock);

  void SetEventSink(EventSink sink) { event_sink_ = std::move(sink); }
  void SetWithdrawalSink(WithdrawalSink sink) {
    withdrawal_sink_ = std::move(sink);
  }

  // --- Hierarchy operations (Fig. 7, ops 1-6, 8) ---------------------

  /// Op 1, Init_Design: creates the top-level DA (state: generated).
  Result<DaId> InitDesign(DaDescription description);

  /// Op 2, Create_Sub_DA: delegation. Checks the creator is active and
  /// the sub-DA's DOT is a part of the super-DA's DOT; the sub-DA's
  /// spec need not refine the super's (Sect. 4.1). If `initial_dov` is
  /// given it must lie in the super-DA's scope; the sub-DA is granted
  /// read access to it.
  Result<DaId> CreateSubDa(DaId super, DaDescription description);

  /// Op 3, Start: generated -> active.
  Status Start(DaId da);

  /// Op 4, Modify_Sub_DA_Specification: only the super-DA may do this;
  /// the sub-DA receives a restart-class event and returns to active
  /// (it may keep previous DOVs as starting points).
  Status ModifySubDaSpecification(DaId super, DaId sub,
                                  storage::DesignSpecification new_spec);

  /// The sub-DA itself may only *refine* its specification.
  Status RefineOwnSpecification(DaId da,
                                storage::DesignSpecification refined);

  /// Op 5, Sub_DA_Ready_To_Commit: requires at least one final DOV;
  /// active -> ready_for_termination; the super-DA is notified and may
  /// already read the final DOVs (inheritance difference #1).
  Status SubDaReadyToCommit(DaId sub);

  /// Op 8, Sub_DA_Impossible_Specification: active ->
  /// ready_for_termination with the impossible flag; the super-DA is
  /// asked to react (terminate or modify the spec).
  Status SubDaImpossibleSpecification(DaId sub, const std::string& reason);

  /// Re-homes `da` onto server node `to` (placement rebalancing, or
  /// following a delegation whose work moved). Future checkins create
  /// their DOVs on the new shard; existing DOVs keep theirs (the id is
  /// the address, nothing is copied). Workstation placement caches go
  /// stale at this moment and resynchronize through the next
  /// kWrongShard reply. No-op error when no placement authority is
  /// wired.
  Status MigrateDa(DaId da, NodeId to);

  /// Op 6, Terminate_Sub_DA: requires all of the sub-DA's own sub-DAs
  /// terminated. Final DOVs devolve to the super-DA's scope
  /// (scope-lock inheritance); if the DA is cancelled without final
  /// DOVs, its propagated DOVs are withdrawn (Sect. 5.4).
  Status TerminateSubDa(DaId super, DaId sub);

  /// Finishes the top-level DA: "after finishing the top-level DA all
  /// locks are released".
  Status CompleteDesign(DaId top);

  /// Synthesizes the results delivered by `super`'s terminated sub-DAs
  /// (Sect. 4.1: the super-DA has "to synthesize the results delivered
  /// by those sub-DAs") into a durable configuration binding
  /// `composite` to one final DOV per sub-DA. Slots are named after the
  /// component's "name" attribute when present, else the sub-DA id.
  /// Requires every terminated sub-DA to have delivered at least one
  /// final DOV (cancelled sub-DAs are skipped).
  Result<storage::Configuration> ComposeConfiguration(
      DaId super, const std::string& name, DovId composite);

  // --- Quality (op 7) -------------------------------------------------

  /// Op 7, Evaluate: the quality state of `dov` against the owning
  /// DA's specification. When every feature holds, the DOV is marked
  /// final (persisted).
  Result<storage::QualityState> Evaluate(DaId da, DovId dov);

  // --- Usage relationships (ops 9, 10) --------------------------------

  /// Op 10, Require: establishes (or reuses) a usage relationship with
  /// `supporter` for the given feature set, notifies the supporter,
  /// and immediately serves any already-propagated qualifying DOV.
  Status Require(DaId requirer, DaId supporter,
                 const std::vector<std::string>& features);

  /// Op 9, Propagate: pre-releases `dov` along the DA's usage
  /// relationships. The DOV must lie in the DA's scope; each requiring
  /// DA whose required features are fulfilled gains read visibility.
  Status Propagate(DaId da, DovId dov);

  /// Withdrawal (Sect. 5.4): revokes a propagated DOV (spec change or
  /// cancellation); all requiring DAs that saw it are notified.
  Status WithdrawPropagation(DaId da, DovId dov);

  /// Invalidation (Sect. 5.4): marks `dov` as never becoming an
  /// ancestor of a final DOV and propagates `replacement` (which must
  /// fulfil at least the features of the invalidated DOV) in its place.
  Status InvalidateAndReplace(DaId da, DovId dov, DovId replacement);

  /// Propagated DOVs of `da` for which it has "become clear that [the]
  /// pre-released DOV will not be an ancestor of a final DOV" — i.e.
  /// the DA has final DOVs and the pre-released version is not on any
  /// derivation path to one of them. These are exactly the versions
  /// Sect. 5.4 says must be invalidated and replaced.
  std::vector<DovId> InvalidationCandidates(DaId da) const;

  // --- Negotiation (ops 11-15) ----------------------------------------

  /// Op 11, Create_Negotiation_Relationship: set by the common super-DA
  /// between two of its sub-DAs.
  Result<RelId> CreateNegotiationRelationship(
      DaId super, DaId a, DaId b, const std::vector<std::string>& subject);

  /// Op 12, Propose: dynamically establishes the relationship between
  /// siblings if absent; both parties enter `negotiating`.
  Status Propose(DaId from, DaId to, Proposal proposal);

  /// Op 13 / 14. Only the proposal's receiver may answer. On Agree the
  /// side-specific feature changes are applied to both specs and both
  /// parties return to active; on Disagree the proposal is dropped.
  Status Agree(DaId da);
  Status Disagree(DaId da);

  /// Op 15, Sub_DAs_Specification_Conflict: the parties abandon the
  /// negotiation and their common super-DA is asked to resolve it.
  Status SubDasSpecificationConflict(DaId a, DaId b);

  // --- Scope (ScopeAuthority for the server-TM) -----------------------

  /// A DA's scope: its derivation graph, the final DOVs of terminated
  /// sub-DAs (via inheritance), and DOVs visible along usage
  /// relationships.
  bool InScope(DaId da, DovId dov) override;

  /// Called after a DOP checkin so newly created DOVs enter the scope
  /// of the creating DA (the server-TM already set the scope owner; CM
  /// hooks for bookkeeping/persistence).
  void NoteCheckin(DaId da, DovId dov);

  /// Per-node progress feed from a DA's design-script engine (the DM's
  /// progress sink is wired here by the embedding system). Called from
  /// the choreographer thread of the owning workstation; safe against
  /// concurrent CM traffic.
  void NoteScriptProgress(DaId da, const std::string& node,
                          const std::string& path, bool started, bool failed);
  /// Latest reported progress for `da` (empty record if none yet).
  ScriptProgress ScriptProgressOf(DaId da) const;

  // --- Introspection ----------------------------------------------------

  /// Pointer into the DA table. The pointer itself stays valid for the
  /// CM's lifetime (entries are only removed by Crash()), but reading
  /// fields through it is NOT synchronized against concurrent
  /// mutators — it is a driver-thread/quiescent inspection accessor.
  /// Concurrent readers must use the copying accessors below
  /// (StateOf, Children, AllDas, RelationshipsOf, PendingProposalFor,
  /// Depth) or InScope.
  Result<const DesignActivity*> GetDa(DaId da) const;
  Result<DaState> StateOf(DaId da) const;
  std::vector<DaId> Children(DaId da) const;
  std::vector<DaId> AllDas() const;
  /// Relationships `da` takes part in (any kind).
  std::vector<CoopRelationship> RelationshipsOf(DaId da) const;
  /// Copy of the proposal awaiting `da`'s answer (empty if none).
  std::optional<Proposal> PendingProposalFor(DaId da) const;
  /// Depth of `da` in the hierarchy (top-level = 0).
  int Depth(DaId da) const;

  /// Snapshot under the manager mutex: concurrent designer threads
  /// mutate the counters, so a reference into the live struct would
  /// race them.
  CmStats stats() const {
    RecursiveMutexLock lock(&mu_);
    return stats_;
  }

  // --- Failure handling -------------------------------------------------

  /// Server crash handling: the CM state is volatile; Recover() reloads
  /// the DA hierarchy, relationships and scope-locks from the
  /// repository's meta store (which the repository itself recovers from
  /// its WAL).
  void Crash();
  Status Recover();

  /// Rebuilds the scope-lock and usage-grant tables from the persisted
  /// state without touching the in-memory DA hierarchy. Called after a
  /// SINGLE server node of a sharded plane recovers: that node's lock
  /// manager restarted empty while the CM (on the coordinator) kept
  /// running, so only the lock state needs re-deriving. Idempotent
  /// across all shards.
  Status ReestablishLocks();

 private:
  Result<DesignActivity*> GetMutableDa(DaId da) REQUIRES(mu_);
  Status RequireState(const DesignActivity& da, DaState state,
                      DaOperation op) REQUIRES(mu_);
  Status ProtocolError(const std::string& message) REQUIRES(mu_);
  void Deliver(DaId to, workflow::Event event) REQUIRES(mu_);
  /// Persists one DA (and the relationship table) to the repository.
  Status PersistDa(const DesignActivity& da);
  Status PersistRelationships() REQUIRES(mu_);
  /// Finds the active relationship of `kind` from a to b: for kUsage
  /// a is the requirer and b the supporter; for kNegotiation the order
  /// does not matter.
  CoopRelationship* FindRelationship(RelKind kind, DaId a, DaId b)
      REQUIRES(mu_);
  /// Lock-table rebuild shared by Recover and ReestablishLocks.
  Status ReestablishLocksLocked() REQUIRES(mu_);

  /// Routed storage/lock access: degenerate single-shard routers in
  /// the classic constructor, plane-wide routing in the sharded one.
  storage::RepositoryRouter repository_;
  /// Adapter for the classic LockManager* constructor: a single-slice
  /// non-owning table the router below can point at. Null otherwise.
  /// Declared before locks_ (initialization order).
  std::unique_ptr<txn::ServerLockTable> adapter_locks_;
  txn::LockRouter locks_;
  /// Placement authority this manager drives (null: no placement).
  txn::PlacementMap* placement_ = nullptr;
  SimClock* clock_;
  EventSink event_sink_;
  WithdrawalSink withdrawal_sink_;

  /// Guards the DA table, relationships and proposals. Recursive: CM
  /// ops nest (and event sinks may re-enter on the delivering thread).
  /// Ordered BEFORE the repository/lock-manager mutexes — CM ops call
  /// into both while holding it; nothing in those layers calls back.
  mutable RecursiveMutex mu_;

  IdGenerator<DaId> da_gen_ GUARDED_BY(mu_);
  IdGenerator<RelId> rel_gen_ GUARDED_BY(mu_);
  /// Keyed by DaId value.
  std::map<uint64_t, DesignActivity> das_ GUARDED_BY(mu_);
  std::vector<CoopRelationship> relationships_ GUARDED_BY(mu_);
  std::unordered_map<DaId, std::optional<Proposal>> pending_proposals_
      GUARDED_BY(mu_);
  std::unordered_map<DaId, ScriptProgress> script_progress_ GUARDED_BY(mu_);

  CmStats stats_ GUARDED_BY(mu_);
};

}  // namespace concord::cooperation

#endif  // CONCORD_COOPERATION_COOPERATION_MANAGER_H_
