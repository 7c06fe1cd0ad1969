#include "cooperation/cooperation_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "cooperation/persistence.h"
#include "storage/configuration.h"

namespace concord::cooperation {

namespace {
constexpr char kDaPrefix[] = "cm/da/";
constexpr char kRelsKey[] = "cm/rels";
constexpr char kProposalPrefix[] = "cm/proposal/";
constexpr char kScopePrefix[] = "cm/scope/";
constexpr char kGrantPrefix[] = "cm/grant/";

std::string DaKey(DaId da) {
  return std::string(kDaPrefix) + std::to_string(da.value());
}
}  // namespace

const char* DaStateToString(DaState state) {
  switch (state) {
    case DaState::kGenerated:
      return "generated";
    case DaState::kActive:
      return "active";
    case DaState::kNegotiating:
      return "negotiating";
    case DaState::kReadyForTermination:
      return "ready_for_termination";
    case DaState::kTerminated:
      return "terminated";
  }
  return "?";
}

const char* DaOperationToString(DaOperation op) {
  switch (op) {
    case DaOperation::kInitDesign:
      return "Init_Design";
    case DaOperation::kCreateSubDa:
      return "Create_Sub_DA";
    case DaOperation::kStart:
      return "Start";
    case DaOperation::kModifySubDaSpec:
      return "Modify_Sub_DA_Specification";
    case DaOperation::kSubDaReadyToCommit:
      return "Sub_DA_Ready_To_Commit";
    case DaOperation::kTerminateSubDa:
      return "Terminate_Sub_DA";
    case DaOperation::kEvaluate:
      return "Evaluate";
    case DaOperation::kSubDaImpossibleSpec:
      return "Sub_DA_Impossible_Specification";
    case DaOperation::kPropagate:
      return "Propagate";
    case DaOperation::kRequire:
      return "Require";
    case DaOperation::kCreateNegotiationRel:
      return "Create_Negotiation_Relationship";
    case DaOperation::kPropose:
      return "Propose";
    case DaOperation::kAgree:
      return "Agree";
    case DaOperation::kDisagree:
      return "Disagree";
    case DaOperation::kSubDaSpecConflict:
      return "Sub_DAs_Specification_Conflict";
  }
  return "?";
}

std::string DesignActivity::ToString() const {
  std::string out = id.ToString();
  out += " [" + std::string(DaStateToString(state)) + "]";
  if (parent.valid()) out += " sub of " + parent.ToString();
  out += " " + spec.ToString();
  return out;
}

const char* RelKindToString(RelKind kind) {
  switch (kind) {
    case RelKind::kDelegation:
      return "delegation";
    case RelKind::kNegotiation:
      return "negotiation";
    case RelKind::kUsage:
      return "usage";
  }
  return "?";
}

std::string CoopRelationship::ToString() const {
  return std::string(RelKindToString(kind)) + "(" + from.ToString() + " -> " +
         to.ToString() + ")";
}

CooperationManager::CooperationManager(storage::Repository* repository,
                                       txn::LockManager* locks,
                                       SimClock* clock)
    : repository_(repository),
      adapter_locks_(std::make_unique<txn::ServerLockTable>(locks)),
      locks_(adapter_locks_.get()),
      clock_(clock) {}

CooperationManager::CooperationManager(storage::Repository* repository,
                                       txn::ServerLockTable* locks,
                                       SimClock* clock)
    : repository_(repository), locks_(locks), clock_(clock) {}

CooperationManager::CooperationManager(storage::RepositoryRouter repository,
                                       txn::LockRouter locks,
                                       txn::PlacementMap* placement,
                                       SimClock* clock)
    : repository_(std::move(repository)),
      locks_(std::move(locks)),
      placement_(placement),
      clock_(clock) {}

Result<DesignActivity*> CooperationManager::GetMutableDa(DaId da) {
  auto it = das_.find(da.value());
  if (it == das_.end()) {
    return Status::NotFound("no design activity " + da.ToString());
  }
  return &it->second;
}

Result<const DesignActivity*> CooperationManager::GetDa(DaId da) const {
  RecursiveMutexLock lock(&mu_);
  auto it = das_.find(da.value());
  if (it == das_.end()) {
    return Status::NotFound("no design activity " + da.ToString());
  }
  return &it->second;
}

Result<DaState> CooperationManager::StateOf(DaId da) const {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(const DesignActivity* activity, GetDa(da));
  return activity->state;
}

Status CooperationManager::ProtocolError(const std::string& message) {
  ++stats_.protocol_violations;
  return Status::ProtocolViolation(message);
}

Status CooperationManager::RequireState(const DesignActivity& da,
                                        DaState state, DaOperation op) {
  if (da.state != state) {
    return ProtocolError(std::string(DaOperationToString(op)) +
                         " requires " + da.id.ToString() + " to be " +
                         DaStateToString(state) + ", but it is " +
                         DaStateToString(da.state));
  }
  return Status::OK();
}

void CooperationManager::Deliver(DaId to, workflow::Event event) {
  ++stats_.events_delivered;
  if (event_sink_) event_sink_(to, event);
}

Status CooperationManager::PersistDa(const DesignActivity& da) {
  TxnId txn = repository_.Begin();
  Status st =
      repository_.PutMeta(txn, DaKey(da.id), persistence::SerializeDa(da));
  if (st.ok()) st = repository_.Commit(txn);
  if (!st.ok()) repository_.Abort(txn).ok();
  return st;
}

Status CooperationManager::PersistRelationships() {
  TxnId txn = repository_.Begin();
  Status st = repository_.PutMeta(
      txn, kRelsKey, persistence::SerializeRelationships(relationships_));
  if (st.ok()) st = repository_.Commit(txn);
  if (!st.ok()) repository_.Abort(txn).ok();
  return st;
}

CoopRelationship* CooperationManager::FindRelationship(RelKind kind, DaId a,
                                                       DaId b) {
  for (CoopRelationship& rel : relationships_) {
    if (rel.kind != kind || !rel.active) continue;
    // Usage is directed (requirer → supporter): a mutual Require is two
    // edges, each with its own features. Negotiation is symmetric —
    // either party proposes along the one edge.
    bool match = kind == RelKind::kUsage ? rel.from == a && rel.to == b
                                         : rel.Connects(a, b);
    if (match) return &rel;
  }
  return nullptr;
}

// --- Hierarchy -------------------------------------------------------

Result<DaId> CooperationManager::InitDesign(DaDescription description) {
  RecursiveMutexLock lock(&mu_);
  DaId id = da_gen_.Next();
  DesignActivity da;
  da.id = id;
  da.dot = description.dot;
  da.initial_dov = description.initial_dov;
  da.spec = std::move(description.spec);
  da.designer = description.designer;
  da.dc = std::move(description.dc);
  da.workstation = description.workstation;
  da.state = DaState::kGenerated;
  if (da.initial_dov) {
    locks_.GrantUsageRead(*da.initial_dov, id);
  }
  das_.emplace(id.value(), std::move(da));
  // Placement decision: a fresh top-level design goes to the least-
  // loaded server node (its checkins will create DOVs there).
  if (placement_ != nullptr) placement_->AssignLeastLoaded(id);
  ++stats_.das_created;
  CONCORD_RETURN_NOT_OK(PersistDa(das_.at(id.value())));
  CONCORD_INFO("cm", "Init_Design -> " << id.ToString());
  return id;
}

Result<DaId> CooperationManager::CreateSubDa(DaId super,
                                             DaDescription description) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * parent, GetMutableDa(super));
  CONCORD_RETURN_NOT_OK(
      RequireState(*parent, DaState::kActive, DaOperation::kCreateSubDa));
  // "The DOT of the sub-DA has to be a 'part' of the super-DA's DOT."
  if (!repository_.schema().IsPartOf(description.dot, parent->dot)) {
    return ProtocolError("sub-DA DOT " + description.dot.ToString() +
                         " is not a part of super-DA DOT " +
                         parent->dot.ToString());
  }
  // An initial DOV must come from the super-DA's scope.
  if (description.initial_dov && !InScope(super, *description.initial_dov)) {
    return ProtocolError("initial DOV " + description.initial_dov->ToString() +
                         " is not in the scope of " + super.ToString());
  }

  DaId id = da_gen_.Next();
  DesignActivity da;
  da.id = id;
  da.dot = description.dot;
  da.initial_dov = description.initial_dov;
  da.spec = std::move(description.spec);
  da.designer = description.designer;
  da.dc = std::move(description.dc);
  da.workstation = description.workstation;
  da.state = DaState::kGenerated;
  da.parent = super;
  if (da.initial_dov) {
    locks_.GrantUsageRead(*da.initial_dov, id);
  }
  das_.emplace(id.value(), std::move(da));
  parent->children.push_back(id);

  CoopRelationship rel;
  rel.id = rel_gen_.Next();
  rel.kind = RelKind::kDelegation;
  rel.from = super;
  rel.to = id;
  relationships_.push_back(std::move(rel));

  // Placement decision at delegation: the sub-DA's work (and its
  // future DOVs) goes to the least-loaded server node, which may well
  // differ from the super-DA's home — this is where the plane actually
  // spreads, since every delegation is a new independent work stream.
  if (placement_ != nullptr) placement_->AssignLeastLoaded(id);
  ++stats_.das_created;
  ++stats_.delegations;
  CONCORD_RETURN_NOT_OK(PersistDa(das_.at(id.value())));
  CONCORD_RETURN_NOT_OK(PersistDa(*parent));
  CONCORD_RETURN_NOT_OK(PersistRelationships());
  CONCORD_INFO("cm", "Create_Sub_DA " << super.ToString() << " -> "
                                      << id.ToString());
  return id;
}

Status CooperationManager::MigrateDa(DaId da, NodeId to) {
  RecursiveMutexLock lock(&mu_);
  if (placement_ == nullptr) {
    return Status::FailedPrecondition(
        "no placement authority wired: single-server plane");
  }
  CONCORD_RETURN_NOT_OK(GetMutableDa(da).status());
  CONCORD_ASSIGN_OR_RETURN(NodeId from, placement_->Migrate(da, to));
  CONCORD_INFO("cm", "Migrate " << da.ToString() << ": " << from.ToString()
                                << " -> " << to.ToString());
  return Status::OK();
}

Status CooperationManager::Start(DaId da) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * activity, GetMutableDa(da));
  CONCORD_RETURN_NOT_OK(
      RequireState(*activity, DaState::kGenerated, DaOperation::kStart));
  activity->state = DaState::kActive;
  return PersistDa(*activity);
}

Status CooperationManager::ModifySubDaSpecification(
    DaId super, DaId sub, storage::DesignSpecification new_spec) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * child, GetMutableDa(sub));
  if (child->parent != super) {
    return ProtocolError(sub.ToString() + " is not a sub-DA of " +
                         super.ToString());
  }
  if (child->state == DaState::kTerminated) {
    return ProtocolError("cannot modify the specification of terminated " +
                         sub.ToString());
  }
  // A propagated DOV whose features disappear from the new spec must be
  // withdrawn (Sect. 5.4). Detect affected propagations before the
  // switch.
  std::vector<DovId> to_withdraw;
  for (DovId dov : repository_.DovsOf(sub)) {
    auto record = repository_.Get(dov);
    if (!record.ok() || !record->propagated) continue;
    // Required features of the usage relationships this DOV served.
    for (const CoopRelationship& rel : relationships_) {
      if (rel.kind != RelKind::kUsage || !rel.active || rel.to != sub) {
        continue;
      }
      for (const std::string& feature : rel.features) {
        if (new_spec.Find(feature) == nullptr) {
          to_withdraw.push_back(dov);
          break;
        }
      }
    }
  }

  child->spec = std::move(new_spec);
  child->final_dovs.clear();  // finality is relative to the spec
  child->impossible_reported = false;
  child->state = DaState::kActive;
  CONCORD_RETURN_NOT_OK(PersistDa(*child));

  for (DovId dov : to_withdraw) {
    WithdrawPropagation(sub, dov).ok();
  }

  workflow::Event event;
  event.type = "Modify_Sub_DA_Specification";
  event.from_da = super;
  Deliver(sub, std::move(event));
  return Status::OK();
}

Status CooperationManager::RefineOwnSpecification(
    DaId da, storage::DesignSpecification refined) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * activity, GetMutableDa(da));
  if (activity->state != DaState::kActive) {
    return ProtocolError("specification refinement requires an active DA");
  }
  // "The sub-DA is only allowed to refine its own specification by
  // addition of new features or by further restricting existing
  // features" (Sect. 4.1).
  if (!refined.IsRefinementOf(activity->spec)) {
    return ProtocolError("proposed specification of " + da.ToString() +
                         " is not a refinement");
  }
  activity->spec = std::move(refined);
  activity->final_dovs.clear();
  return PersistDa(*activity);
}

Status CooperationManager::SubDaReadyToCommit(DaId sub) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * child, GetMutableDa(sub));
  CONCORD_RETURN_NOT_OK(RequireState(*child, DaState::kActive,
                                     DaOperation::kSubDaReadyToCommit));
  if (!child->parent.valid()) {
    return ProtocolError("top-level " + sub.ToString() +
                         " has no super-DA to report to; use CompleteDesign");
  }
  if (child->final_dovs.empty()) {
    return ProtocolError(sub.ToString() +
                         " has no final DOV (run Evaluate first)");
  }
  child->state = DaState::kReadyForTermination;
  CONCORD_RETURN_NOT_OK(PersistDa(*child));

  // Inheritance difference #1: "a super-DA may read the final DOVs of a
  // sub-DA as soon as the sub-DA changes its state to
  // ready-for-termination".
  for (DovId dov : child->final_dovs) {
    locks_.GrantUsageRead(dov, child->parent);
  }

  workflow::Event event;
  event.type = "Sub_DA_Ready_To_Commit";
  event.from_da = sub;
  Deliver(child->parent, std::move(event));
  return Status::OK();
}

Status CooperationManager::SubDaImpossibleSpecification(
    DaId sub, const std::string& reason) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * child, GetMutableDa(sub));
  CONCORD_RETURN_NOT_OK(RequireState(*child, DaState::kActive,
                                     DaOperation::kSubDaImpossibleSpec));
  if (!child->parent.valid()) {
    return ProtocolError("top-level " + sub.ToString() +
                         " cannot report an impossible specification");
  }
  child->state = DaState::kReadyForTermination;
  child->impossible_reported = true;
  CONCORD_RETURN_NOT_OK(PersistDa(*child));

  workflow::Event event;
  event.type = "Sub_DA_Impossible_Specification";
  event.from_da = sub;
  event.params["reason"] = reason;
  Deliver(child->parent, std::move(event));
  CONCORD_INFO("cm", sub.ToString() << " reports impossible specification: "
                                    << reason);
  return Status::OK();
}

Status CooperationManager::TerminateSubDa(DaId super, DaId sub) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * parent, GetMutableDa(super));
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * child, GetMutableDa(sub));
  if (child->parent != super) {
    return ProtocolError(sub.ToString() + " is not a sub-DA of " +
                         super.ToString());
  }
  if (child->state == DaState::kTerminated) {
    return ProtocolError(sub.ToString() + " already terminated");
  }
  // "The sub-DA's termination is the precondition for the termination
  // of the super-DA" — recursively: all children must be gone first.
  for (DaId grandchild : child->children) {
    auto gc = GetDa(grandchild);
    if (gc.ok() && (*gc)->state != DaState::kTerminated) {
      return ProtocolError("cannot terminate " + sub.ToString() + ": sub-DA " +
                           grandchild.ToString() + " is still " +
                           DaStateToString((*gc)->state));
    }
  }

  bool cancelled = child->final_dovs.empty();
  if (cancelled) {
    // Cancellation: withdraw all pre-released information (Sect. 5.4).
    for (DovId dov : repository_.DovsOf(sub)) {
      auto record = repository_.Get(dov);
      if (record.ok() && record->propagated) {
        WithdrawPropagation(sub, dov).ok();
      }
    }
  } else {
    // "The final DOVs devolve to the scope of the super-DA": scope-lock
    // inheritance, retained by the super-DA.
    locks_.InheritScopeLocks(super, sub, child->final_dovs);
    TxnId txn = repository_.Begin();
    for (DovId dov : child->final_dovs) {
      repository_.PutMeta(txn, kScopePrefix + std::to_string(dov.value()),
                           std::to_string(super.value()))
          .ok();
    }
    repository_.Commit(txn).ok();
  }

  child->state = DaState::kTerminated;
  // A terminated DA creates no more DOVs: free its placement slot so
  // the least-loaded policy sees the true live load.
  if (placement_ != nullptr) placement_->Release(sub);
  ++stats_.das_terminated;
  CONCORD_RETURN_NOT_OK(PersistDa(*child));
  CONCORD_RETURN_NOT_OK(PersistDa(*parent));

  workflow::Event event;
  event.type = "Terminate_Sub_DA";
  event.from_da = super;
  Deliver(sub, std::move(event));
  return Status::OK();
}

Status CooperationManager::CompleteDesign(DaId top) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * da, GetMutableDa(top));
  if (da->parent.valid()) {
    return ProtocolError(top.ToString() + " is not the top-level DA");
  }
  if (da->state == DaState::kTerminated) {
    return ProtocolError(top.ToString() + " already terminated");
  }
  for (DaId child : da->children) {
    auto c = GetDa(child);
    if (c.ok() && (*c)->state != DaState::kTerminated) {
      return ProtocolError("cannot complete the design: " + child.ToString() +
                           " is still " + DaStateToString((*c)->state));
    }
  }
  da->state = DaState::kTerminated;
  if (placement_ != nullptr) placement_->Release(top);
  ++stats_.das_terminated;
  CONCORD_RETURN_NOT_OK(PersistDa(*da));
  // "After finishing the top-level DA all locks are released."
  locks_.ReleaseAll();
  CONCORD_INFO("cm", "design completed at " << top.ToString()
                                            << ", all locks released");
  return Status::OK();
}

Result<storage::Configuration> CooperationManager::ComposeConfiguration(
    DaId super, const std::string& name, DovId composite) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(const DesignActivity* parent, GetDa(super));
  if (!InScope(super, composite)) {
    return ProtocolError("composite " + composite.ToString() +
                         " is not in the scope of " + super.ToString());
  }
  storage::Configuration config;
  config.name = name;
  config.composite = composite;
  for (DaId child_id : parent->children) {
    CONCORD_ASSIGN_OR_RETURN(const DesignActivity* child, GetDa(child_id));
    if (child->state != DaState::kTerminated) {
      return ProtocolError("cannot compose: sub-DA " + child_id.ToString() +
                           " is still " + DaStateToString(child->state));
    }
    if (child->final_dovs.empty()) continue;  // cancelled sub-DA
    // The best (first-marked) final DOV represents the sub-task.
    DovId chosen = child->final_dovs.front();
    CONCORD_ASSIGN_OR_RETURN(storage::DovRecord record,
                             repository_.Get(chosen));
    std::string slot = child_id.ToString();
    auto component_name = record.data.GetAttr("name");
    if (component_name.ok() && component_name->is_string() &&
        !component_name->as_string().empty()) {
      slot = component_name->as_string();
    }
    config.bindings[slot] = chosen;
  }
  storage::ConfigurationStore store(repository_);
  CONCORD_RETURN_NOT_OK(store.Save(config));
  CONCORD_INFO("cm", "composed configuration '" << name << "' with "
                                                << config.bindings.size()
                                                << " bindings");
  return config;
}

// --- Quality -----------------------------------------------------------

Result<storage::QualityState> CooperationManager::Evaluate(DaId da,
                                                           DovId dov) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * activity, GetMutableDa(da));
  if (!InScope(da, dov)) {
    return ProtocolError(dov.ToString() + " is not in the scope of " +
                         da.ToString());
  }
  CONCORD_ASSIGN_OR_RETURN(storage::DovRecord record, repository_.Get(dov));
  storage::QualityState quality = activity->spec.Evaluate(record.data);
  if (quality.is_final() && !record.final_dov) {
    record.final_dov = true;
    TxnId txn = repository_.Begin();
    Status st = repository_.Put(txn, record);
    if (st.ok()) st = repository_.Commit(txn);
    if (!st.ok()) {
      repository_.Abort(txn).ok();
      return st;
    }
    if (std::find(activity->final_dovs.begin(), activity->final_dovs.end(),
                  dov) == activity->final_dovs.end()) {
      activity->final_dovs.push_back(dov);
      CONCORD_RETURN_NOT_OK(PersistDa(*activity));
    }
  }
  return quality;
}

// --- Usage ---------------------------------------------------------------

Status CooperationManager::Require(DaId requirer, DaId supporter,
                                   const std::vector<std::string>& features) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * req, GetMutableDa(requirer));
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * sup, GetMutableDa(supporter));
  if (req->state != DaState::kActive) {
    return ProtocolError("Require needs an active requiring DA");
  }
  if (!sup->IsOpen()) {
    return ProtocolError("supporting DA " + supporter.ToString() +
                         " is terminated");
  }
  // "A precondition for the usage relationship is that the requiring DA
  // knows about the design specification of the supporting DA": every
  // required feature must exist in the supporter's spec.
  for (const std::string& feature : features) {
    if (sup->spec.Find(feature) == nullptr) {
      return ProtocolError("feature '" + feature + "' is not part of " +
                           supporter.ToString() + "'s specification");
    }
  }

  CoopRelationship* rel =
      FindRelationship(RelKind::kUsage, requirer, supporter);
  if (rel == nullptr) {
    CoopRelationship new_rel;
    new_rel.id = rel_gen_.Next();
    new_rel.kind = RelKind::kUsage;
    new_rel.from = requirer;
    new_rel.to = supporter;
    new_rel.features = features;
    relationships_.push_back(std::move(new_rel));
    rel = &relationships_.back();
  } else {
    // Accumulate required features.
    for (const std::string& feature : features) {
      if (std::find(rel->features.begin(), rel->features.end(), feature) ==
          rel->features.end()) {
        rel->features.push_back(feature);
      }
    }
  }
  ++stats_.require_ops;
  CONCORD_RETURN_NOT_OK(PersistRelationships());

  // Notify the supporter (its ECA rules may react with Propagate).
  workflow::Event event;
  event.type = "Require";
  event.from_da = requirer;
  for (size_t i = 0; i < features.size(); ++i) {
    event.params["feature" + std::to_string(i)] = features[i];
  }
  Deliver(supporter, std::move(event));

  // Serve already-propagated qualifying DOVs immediately.
  for (DovId dov : repository_.DovsOf(supporter)) {
    auto record = repository_.Get(dov);
    if (!record.ok() || !record->propagated || record->invalidated) continue;
    if (sup->spec.FulfillsSubset(record->data, features)) {
      locks_.GrantUsageRead(dov, requirer);
      TxnId txn = repository_.Begin();
      repository_.PutMeta(txn, kGrantPrefix + std::to_string(dov.value()) +
                                     "/" + std::to_string(requirer.value()),
                           "1")
          .ok();
      repository_.Commit(txn).ok();
      workflow::Event served;
      served.type = "Propagate";
      served.from_da = supporter;
      served.dov = dov;
      Deliver(requirer, std::move(served));
    }
  }
  return Status::OK();
}

Status CooperationManager::Propagate(DaId da, DovId dov) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * activity, GetMutableDa(da));
  if (activity->state != DaState::kActive &&
      activity->state != DaState::kReadyForTermination) {
    return ProtocolError("Propagate requires an active DA");
  }
  if (locks_.ScopeOwner(dov) != da) {
    return ProtocolError(dov.ToString() + " is not owned by " + da.ToString());
  }
  CONCORD_ASSIGN_OR_RETURN(storage::DovRecord record, repository_.Get(dov));
  if (record.invalidated) {
    return ProtocolError("cannot propagate invalidated " + dov.ToString());
  }

  // Persist the propagated flag ("all propagated DOVs have a certain
  // quality state determined by the operation Evaluate" — evaluate
  // implicitly here to stamp quality).
  if (!record.propagated) {
    record.propagated = true;
    TxnId txn = repository_.Begin();
    Status st = repository_.Put(txn, record);
    if (st.ok()) st = repository_.Commit(txn);
    if (!st.ok()) {
      repository_.Abort(txn).ok();
      return st;
    }
  }
  ++stats_.propagations;

  // Deliver along usage relationships whose required quality holds.
  // Inheritance difference #2: the grant is tied to the usage
  // relationship and the fulfilled feature set.
  for (const CoopRelationship& rel : relationships_) {
    if (rel.kind != RelKind::kUsage || !rel.active || rel.to != da) continue;
    if (!activity->spec.FulfillsSubset(record.data, rel.features)) continue;
    locks_.GrantUsageRead(dov, rel.from);
    TxnId txn = repository_.Begin();
    repository_.PutMeta(txn, kGrantPrefix + std::to_string(dov.value()) +
                                   "/" + std::to_string(rel.from.value()),
                         "1")
        .ok();
    repository_.Commit(txn).ok();
    workflow::Event event;
    event.type = "Propagate";
    event.from_da = da;
    event.dov = dov;
    Deliver(rel.from, std::move(event));
  }
  return Status::OK();
}

Status CooperationManager::WithdrawPropagation(DaId da, DovId dov) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(storage::DovRecord record, repository_.Get(dov));
  if (record.owner_da != da && locks_.ScopeOwner(dov) != da) {
    return ProtocolError(dov.ToString() + " is not owned by " + da.ToString());
  }
  if (!record.propagated) {
    return Status::FailedPrecondition(dov.ToString() + " is not propagated");
  }
  record.propagated = false;
  TxnId txn = repository_.Begin();
  Status st = repository_.Put(txn, record);
  if (st.ok()) st = repository_.Commit(txn);
  if (!st.ok()) {
    repository_.Abort(txn).ok();
    return st;
  }
  ++stats_.withdrawals;

  // Notify every requiring DA that saw the DOV and revoke its read.
  for (const CoopRelationship& rel : relationships_) {
    if (rel.kind != RelKind::kUsage || rel.to != da) continue;
    locks_.RevokeUsageRead(dov, rel.from);
    TxnId grant_txn = repository_.Begin();
    repository_.DeleteMeta(grant_txn,
                            kGrantPrefix + std::to_string(dov.value()) + "/" +
                                std::to_string(rel.from.value()))
        .ok();
    repository_.Commit(grant_txn).ok();
    workflow::Event event;
    event.type = "Withdrawal";
    event.from_da = da;
    event.dov = dov;
    Deliver(rel.from, std::move(event));
  }
  // Push the revocation to the workstation DOV caches: the grants just
  // died, so no cache may keep serving this version locally.
  if (withdrawal_sink_) {
    withdrawal_sink_(da, dov, /*invalidated=*/false, DovId());
  }
  return Status::OK();
}

Status CooperationManager::InvalidateAndReplace(DaId da, DovId dov,
                                                DovId replacement) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * activity, GetMutableDa(da));
  CONCORD_ASSIGN_OR_RETURN(storage::DovRecord record, repository_.Get(dov));
  if (record.owner_da != da) {
    return ProtocolError(dov.ToString() + " is not owned by " + da.ToString());
  }
  CONCORD_ASSIGN_OR_RETURN(storage::DovRecord replacement_record,
                           repository_.Get(replacement));
  if (replacement_record.owner_da != da) {
    return ProtocolError("replacement must come from the scope of " +
                         da.ToString());
  }

  // "Another DOV from the scope of that DA which fulfills all the
  // required (and possibly more) features of the previously propagated
  // DOV will be propagated by the CM to the requiring DA for
  // replacement."
  for (const CoopRelationship& rel : relationships_) {
    if (rel.kind != RelKind::kUsage || !rel.active || rel.to != da) continue;
    if (!activity->spec.FulfillsSubset(replacement_record.data,
                                       rel.features)) {
      return ProtocolError("replacement " + replacement.ToString() +
                           " does not fulfil the features required by " +
                           rel.from.ToString());
    }
  }

  record.invalidated = true;
  record.propagated = false;
  TxnId txn = repository_.Begin();
  Status st = repository_.Put(txn, record);
  if (st.ok()) st = repository_.Commit(txn);
  if (!st.ok()) {
    repository_.Abort(txn).ok();
    return st;
  }
  ++stats_.invalidations;

  for (const CoopRelationship& rel : relationships_) {
    if (rel.kind != RelKind::kUsage || !rel.active || rel.to != da) continue;
    locks_.RevokeUsageRead(dov, rel.from);
    workflow::Event event;
    event.type = "Invalidation";
    event.from_da = da;
    event.dov = dov;
    event.params["replacement"] = std::to_string(replacement.value());
    Deliver(rel.from, std::move(event));
  }
  // Push to the workstation DOV caches before the replacement is
  // propagated, so no cache window exists where the dead version is
  // still served while the replacement already circulates.
  if (withdrawal_sink_) {
    withdrawal_sink_(da, dov, /*invalidated=*/true, replacement);
  }
  return Propagate(da, replacement);
}

std::vector<DovId> CooperationManager::InvalidationCandidates(
    DaId da) const {
  RecursiveMutexLock lock(&mu_);
  std::vector<DovId> candidates;
  auto activity = GetDa(da);
  if (!activity.ok() || (*activity)->final_dovs.empty()) {
    // Without a final DOV nothing is "clear" yet.
    return candidates;
  }
  for (DovId dov : repository_.DovsOf(da)) {
    auto record = repository_.Get(dov);
    if (!record.ok() || !record->propagated || record->invalidated) continue;
    bool feeds_a_final = false;
    for (DovId final_dov : (*activity)->final_dovs) {
      // Routed graph query: after a migration the DA's derivation
      // chain may span shards, each holding the edges created while
      // the DA was homed there.
      if (repository_.IsAncestor(da, dov, final_dov)) {
        feeds_a_final = true;
        break;
      }
    }
    if (!feeds_a_final) candidates.push_back(dov);
  }
  return candidates;
}

// --- Negotiation ---------------------------------------------------------

Result<RelId> CooperationManager::CreateNegotiationRelationship(
    DaId super, DaId a, DaId b, const std::vector<std::string>& subject) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(const DesignActivity* da_a, GetDa(a));
  CONCORD_ASSIGN_OR_RETURN(const DesignActivity* da_b, GetDa(b));
  // "We allow negotiation relationships between only the sub-DAs of the
  // same super-DA."
  if (da_a->parent != super || da_b->parent != super) {
    return ProtocolError("negotiation requires sub-DAs of the same super-DA " +
                         super.ToString());
  }
  if (FindRelationship(RelKind::kNegotiation, a, b) != nullptr) {
    return ProtocolError("negotiation relationship between " + a.ToString() +
                         " and " + b.ToString() + " already exists");
  }
  CoopRelationship rel;
  rel.id = rel_gen_.Next();
  rel.kind = RelKind::kNegotiation;
  rel.from = a;
  rel.to = b;
  rel.features = subject;
  RelId id = rel.id;
  relationships_.push_back(std::move(rel));
  ++stats_.negotiations_started;
  CONCORD_RETURN_NOT_OK(PersistRelationships());
  return id;
}

Status CooperationManager::Propose(DaId from, DaId to, Proposal proposal) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * proposer, GetMutableDa(from));
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * receiver, GetMutableDa(to));
  if (proposer->state != DaState::kActive &&
      proposer->state != DaState::kNegotiating) {
    return ProtocolError("Propose requires an active or negotiating DA");
  }
  if (receiver->state != DaState::kActive &&
      receiver->state != DaState::kNegotiating) {
    return ProtocolError("negotiation partner " + to.ToString() + " is " +
                         DaStateToString(receiver->state));
  }

  CoopRelationship* rel = FindRelationship(RelKind::kNegotiation, from, to);
  if (rel == nullptr) {
    // Dynamic establishment (Sect. 4.1) — still only between siblings.
    if (!proposer->parent.valid() || proposer->parent != receiver->parent) {
      return ProtocolError(
          "negotiation relationships connect only sub-DAs of the same "
          "super-DA");
    }
    CoopRelationship new_rel;
    new_rel.id = rel_gen_.Next();
    new_rel.kind = RelKind::kNegotiation;
    new_rel.from = from;
    new_rel.to = to;
    relationships_.push_back(std::move(new_rel));
    rel = &relationships_.back();
    ++stats_.negotiations_started;
    CONCORD_RETURN_NOT_OK(PersistRelationships());
  }
  if (pending_proposals_[to].has_value()) {
    return ProtocolError(to.ToString() + " already has a pending proposal");
  }

  proposal.relationship = rel->id;
  proposal.from = from;
  proposal.to = to;

  // Both parties suspend internal processing (state negotiating).
  proposer->state = DaState::kNegotiating;
  receiver->state = DaState::kNegotiating;
  pending_proposals_[to] = proposal;
  ++stats_.proposals;
  CONCORD_RETURN_NOT_OK(PersistDa(*proposer));
  CONCORD_RETURN_NOT_OK(PersistDa(*receiver));
  TxnId txn = repository_.Begin();
  repository_.PutMeta(txn, kProposalPrefix + std::to_string(to.value()),
                       persistence::SerializeProposal(proposal))
      .ok();
  repository_.Commit(txn).ok();

  workflow::Event event;
  event.type = "Propose";
  event.from_da = from;
  Deliver(to, std::move(event));
  return Status::OK();
}

Status CooperationManager::Agree(DaId da) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * receiver, GetMutableDa(da));
  CONCORD_RETURN_NOT_OK(
      RequireState(*receiver, DaState::kNegotiating, DaOperation::kAgree));
  auto& pending = pending_proposals_[da];
  if (!pending.has_value()) {
    return ProtocolError(da.ToString() + " has no pending proposal");
  }
  Proposal proposal = *pending;
  pending.reset();
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * proposer,
                           GetMutableDa(proposal.from));

  // Apply the agreed spec changes to both sides; both resume ("after
  // returning to the active state, internal processing is resumed,
  // maybe with a modified design specification").
  for (const storage::Feature& feature : proposal.for_from) {
    proposer->spec.Upsert(feature);
  }
  for (const storage::Feature& feature : proposal.for_to) {
    receiver->spec.Upsert(feature);
  }
  proposer->state = DaState::kActive;
  receiver->state = DaState::kActive;
  ++stats_.agreements;
  CONCORD_RETURN_NOT_OK(PersistDa(*proposer));
  CONCORD_RETURN_NOT_OK(PersistDa(*receiver));
  TxnId txn = repository_.Begin();
  repository_.DeleteMeta(txn, kProposalPrefix + std::to_string(da.value()))
      .ok();
  repository_.Commit(txn).ok();

  workflow::Event event;
  event.type = "Agree";
  event.from_da = da;
  Deliver(proposal.from, std::move(event));
  return Status::OK();
}

Status CooperationManager::Disagree(DaId da) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * receiver, GetMutableDa(da));
  CONCORD_RETURN_NOT_OK(
      RequireState(*receiver, DaState::kNegotiating, DaOperation::kDisagree));
  auto& pending = pending_proposals_[da];
  if (!pending.has_value()) {
    return ProtocolError(da.ToString() + " has no pending proposal");
  }
  Proposal proposal = *pending;
  pending.reset();
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * proposer,
                           GetMutableDa(proposal.from));
  proposer->state = DaState::kActive;
  receiver->state = DaState::kActive;
  ++stats_.disagreements;
  CONCORD_RETURN_NOT_OK(PersistDa(*proposer));
  CONCORD_RETURN_NOT_OK(PersistDa(*receiver));
  TxnId txn = repository_.Begin();
  repository_.DeleteMeta(txn, kProposalPrefix + std::to_string(da.value()))
      .ok();
  repository_.Commit(txn).ok();

  workflow::Event event;
  event.type = "Disagree";
  event.from_da = da;
  Deliver(proposal.from, std::move(event));
  return Status::OK();
}

Status CooperationManager::SubDasSpecificationConflict(DaId a, DaId b) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * da_a, GetMutableDa(a));
  CONCORD_ASSIGN_OR_RETURN(DesignActivity * da_b, GetMutableDa(b));
  if (!da_a->parent.valid() || da_a->parent != da_b->parent) {
    return ProtocolError("conflicting DAs must share a super-DA");
  }
  if (FindRelationship(RelKind::kNegotiation, a, b) == nullptr) {
    return ProtocolError("no negotiation relationship between " +
                         a.ToString() + " and " + b.ToString());
  }
  // Abandon any pending proposal between the two.
  for (DaId side : {a, b}) {
    auto& pending = pending_proposals_[side];
    if (pending.has_value() &&
        ((pending->from == a && pending->to == b) ||
         (pending->from == b && pending->to == a))) {
      pending.reset();
    }
  }
  da_a->state = DaState::kActive;
  da_b->state = DaState::kActive;
  ++stats_.conflicts_escalated;
  CONCORD_RETURN_NOT_OK(PersistDa(*da_a));
  CONCORD_RETURN_NOT_OK(PersistDa(*da_b));

  workflow::Event event;
  event.type = "Sub_DAs_Specification_Conflict";
  event.from_da = a;
  event.params["other"] = std::to_string(b.value());
  Deliver(da_a->parent, std::move(event));
  return Status::OK();
}

// --- Scope ---------------------------------------------------------------

bool CooperationManager::InScope(DaId da, DovId dov) {
  RecursiveMutexLock lock(&mu_);
  return locks_.CanRead(da, dov);
}

void CooperationManager::NoteCheckin(DaId da, DovId dov) {
  RecursiveMutexLock lock(&mu_);
  TxnId txn = repository_.Begin();
  repository_.PutMeta(txn, kScopePrefix + std::to_string(dov.value()),
                       std::to_string(da.value()))
      .ok();
  repository_.Commit(txn).ok();
}

void CooperationManager::NoteScriptProgress(DaId da, const std::string& node,
                                            const std::string& path,
                                            bool started, bool failed) {
  RecursiveMutexLock lock(&mu_);
  ScriptProgress& progress = script_progress_[da];
  progress.node = node;
  progress.path = path;
  if (started) {
    ++progress.nodes_started;
    ++stats_.script_nodes_started;
  } else if (failed) {
    ++progress.nodes_failed;
    ++stats_.script_nodes_failed;
  } else {
    ++progress.nodes_completed;
    ++stats_.script_nodes_completed;
  }
}

ScriptProgress CooperationManager::ScriptProgressOf(DaId da) const {
  RecursiveMutexLock lock(&mu_);
  auto it = script_progress_.find(da);
  return it != script_progress_.end() ? it->second : ScriptProgress{};
}

// --- Introspection ---------------------------------------------------------

std::vector<DaId> CooperationManager::Children(DaId da) const {
  RecursiveMutexLock lock(&mu_);
  auto activity = GetDa(da);
  return activity.ok() ? (*activity)->children : std::vector<DaId>{};
}

std::vector<DaId> CooperationManager::AllDas() const {
  RecursiveMutexLock lock(&mu_);
  std::vector<DaId> ids;
  for (const auto& [value, da] : das_) ids.push_back(DaId(value));
  return ids;
}

std::vector<CoopRelationship> CooperationManager::RelationshipsOf(
    DaId da) const {
  RecursiveMutexLock lock(&mu_);
  std::vector<CoopRelationship> result;
  for (const CoopRelationship& rel : relationships_) {
    if (rel.from == da || rel.to == da) result.push_back(rel);
  }
  return result;
}

std::optional<Proposal> CooperationManager::PendingProposalFor(
    DaId da) const {
  RecursiveMutexLock lock(&mu_);
  auto it = pending_proposals_.find(da);
  return it == pending_proposals_.end() ? std::nullopt : it->second;
}

int CooperationManager::Depth(DaId da) const {
  RecursiveMutexLock lock(&mu_);
  int depth = 0;
  auto current = GetDa(da);
  while (current.ok() && (*current)->parent.valid()) {
    ++depth;
    current = GetDa((*current)->parent);
  }
  return depth;
}

// --- Failure handling -------------------------------------------------------

void CooperationManager::Crash() {
  RecursiveMutexLock lock(&mu_);
  das_.clear();
  relationships_.clear();
  pending_proposals_.clear();
}

Status CooperationManager::Recover() {
  RecursiveMutexLock lock(&mu_);
  das_.clear();
  relationships_.clear();
  pending_proposals_.clear();

  uint64_t max_da = 0;
  for (const std::string& key : repository_.MetaKeysWithPrefix(kDaPrefix)) {
    CONCORD_ASSIGN_OR_RETURN(std::string text, repository_.GetMeta(key));
    CONCORD_ASSIGN_OR_RETURN(DesignActivity da,
                             persistence::DeserializeDa(text));
    max_da = std::max(max_da, da.id.value());
    das_.emplace(da.id.value(), std::move(da));
  }
  while (da_gen_.last() < max_da) da_gen_.Next();

  auto rels_text = repository_.GetMeta(kRelsKey);
  uint64_t max_rel = 0;
  if (rels_text.ok()) {
    CONCORD_ASSIGN_OR_RETURN(
        relationships_, persistence::DeserializeRelationships(*rels_text));
    for (const CoopRelationship& rel : relationships_) {
      max_rel = std::max(max_rel, rel.id.value());
    }
  }
  while (rel_gen_.last() < max_rel) rel_gen_.Next();

  for (const std::string& key :
       repository_.MetaKeysWithPrefix(kProposalPrefix)) {
    CONCORD_ASSIGN_OR_RETURN(std::string text, repository_.GetMeta(key));
    CONCORD_ASSIGN_OR_RETURN(Proposal proposal,
                             persistence::DeserializeProposal(text));
    pending_proposals_[proposal.to] = std::move(proposal);
  }

  CONCORD_RETURN_NOT_OK(ReestablishLocksLocked());
  CONCORD_INFO("cm", "recovered " << das_.size() << " DAs, "
                                  << relationships_.size()
                                  << " relationships");
  return Status::OK();
}

Status CooperationManager::ReestablishLocks() {
  RecursiveMutexLock lock(&mu_);
  return ReestablishLocksLocked();
}

Status CooperationManager::ReestablishLocksLocked() {
  // Rebuild the scope-lock tables. Base ownership comes from the
  // repository's committed DOV records; inheritance overrides live in
  // the meta store; usage grants were persisted per grant. Every write
  // routes to the shard owning the DOV, and re-applying an entry a
  // surviving shard already holds is idempotent — so this serves both
  // full-plane recovery and the one-node-recovered case.
  for (DaId da : AllDas()) {
    for (DovId dov : repository_.DovsOf(da)) {
      locks_.SetScopeOwner(dov, da);
    }
    auto activity = GetDa(da);
    if (activity.ok() && (*activity)->initial_dov) {
      locks_.GrantUsageRead(*(*activity)->initial_dov, da);
    }
  }
  for (const std::string& key :
       repository_.MetaKeysWithPrefix(kScopePrefix)) {
    CONCORD_ASSIGN_OR_RETURN(std::string value, repository_.GetMeta(key));
    DovId dov(std::stoull(key.substr(std::string(kScopePrefix).size())));
    locks_.SetScopeOwner(dov, DaId(std::stoull(value)));
  }
  for (const std::string& key :
       repository_.MetaKeysWithPrefix(kGrantPrefix)) {
    std::string tail = key.substr(std::string(kGrantPrefix).size());
    size_t slash = tail.find('/');
    if (slash == std::string::npos) continue;
    DovId dov(std::stoull(tail.substr(0, slash)));
    DaId da(std::stoull(tail.substr(slash + 1)));
    locks_.GrantUsageRead(dov, da);
  }
  // Ready-for-termination sub-DAs had granted their parents reads on
  // final DOVs.
  for (auto& [value, da] : das_) {
    if (da.state == DaState::kReadyForTermination && da.parent.valid()) {
      for (DovId dov : da.final_dovs) {
        locks_.GrantUsageRead(dov, da.parent);
      }
    }
  }
  return Status::OK();
}

}  // namespace concord::cooperation
