#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cooperation/cooperation_manager.h"
#include "cooperation/persistence.h"
#include "storage/repository.h"
#include "txn/lock_manager.h"

namespace concord::cooperation {
namespace {

using storage::DesignSpecification;
using storage::Feature;

/// Fixture: repository with the part-of chain chip > module > block,
/// a CM over a fresh lock manager, and helpers to mint DAs and DOVs.
class CmTest : public ::testing::Test {
 protected:
  CmTest() : repo_(&clock_), cm_(&repo_, &locks_, &clock_) {
    auto* block = repo_.schema().DefineType("block");
    auto* module = repo_.schema().DefineType("module");
    auto* chip = repo_.schema().DefineType("chip");
    block->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    module->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    chip->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    module->AddPart({block->id(), 0, 100});
    chip->AddPart({module->id(), 0, 100});
    chip_ = chip->id();
    module_ = module->id();
    block_ = block->id();
    cm_.SetEventSink([this](DaId da, const workflow::Event& event) {
      events_.push_back({da, event});
    });
  }

  DaDescription Desc(DotId dot, DesignSpecification spec = {}) {
    DaDescription d;
    d.dot = dot;
    d.spec = std::move(spec);
    d.designer = DesignerId(1);
    d.workstation = NodeId(1);
    return d;
  }

  /// Top-level DA in the active state.
  DaId Top(DesignSpecification spec = {}) {
    DaId da = *cm_.InitDesign(Desc(chip_, std::move(spec)));
    cm_.Start(da).ok();
    return da;
  }

  DaId Sub(DaId super, DesignSpecification spec = {}, DotId dot = DotId()) {
    DaId da = *cm_.CreateSubDa(super,
                               Desc(dot.valid() ? dot : module_,
                                    std::move(spec)));
    cm_.Start(da).ok();
    return da;
  }

  /// Commits one DOV owned by `da` with the given area and registers
  /// the scope lock (as the server-TM's checkin would).
  DovId MintDov(DaId da, double area, DotId dot = DotId()) {
    TxnId txn = repo_.Begin();
    storage::DovRecord record;
    record.id = repo_.NextDovId();
    record.owner_da = da;
    record.type = dot.valid() ? dot : module_;
    record.data = storage::DesignObject(record.type);
    record.data.SetAttr("area", area);
    repo_.Put(txn, record).ok();
    repo_.Commit(txn).ok();
    locks_.SetScopeOwner(record.id, da);
    cm_.NoteCheckin(da, record.id);
    return record.id;
  }

  /// Events delivered to `da`, by type.
  int EventCount(DaId da, const std::string& type) {
    int count = 0;
    for (const auto& [target, event] : events_) {
      if (target == da && event.type == type) ++count;
    }
    return count;
  }

  SimClock clock_;
  storage::Repository repo_;
  txn::LockManager locks_;
  CooperationManager cm_;
  DotId chip_;
  DotId module_;
  DotId block_;
  std::vector<std::pair<DaId, workflow::Event>> events_;
};

// --- Hierarchy / delegation -------------------------------------------------

TEST_F(CmTest, InitDesignStartsGenerated) {
  DaId da = *cm_.InitDesign(Desc(chip_));
  EXPECT_EQ(*cm_.StateOf(da), DaState::kGenerated);
  EXPECT_TRUE(cm_.Start(da).ok());
  EXPECT_EQ(*cm_.StateOf(da), DaState::kActive);
  // Start is not repeatable.
  EXPECT_TRUE(cm_.Start(da).IsProtocolViolation());
}

TEST_F(CmTest, CreateSubDaChecksPartOf) {
  DaId top = Top();
  EXPECT_TRUE(cm_.CreateSubDa(top, Desc(module_)).ok());
  EXPECT_TRUE(cm_.CreateSubDa(top, Desc(block_)).ok());  // transitive part
  // A chip is not part of a chip's module.
  DaId sub = Sub(top);
  EXPECT_TRUE(cm_.CreateSubDa(sub, Desc(chip_)).status().IsProtocolViolation());
}

TEST_F(CmTest, CreateSubDaRequiresActiveParent) {
  DaId da = *cm_.InitDesign(Desc(chip_));
  EXPECT_TRUE(
      cm_.CreateSubDa(da, Desc(module_)).status().IsProtocolViolation());
}

TEST_F(CmTest, DelegationRelationshipRecorded) {
  DaId top = Top();
  DaId sub = Sub(top);
  auto rels = cm_.RelationshipsOf(sub);
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_EQ(rels[0].kind, RelKind::kDelegation);
  EXPECT_EQ(rels[0].from, top);
  EXPECT_EQ(rels[0].to, sub);
  EXPECT_EQ(cm_.Children(top), std::vector<DaId>{sub});
  EXPECT_EQ(cm_.Depth(sub), 1);
  EXPECT_EQ(cm_.Depth(top), 0);
}

TEST_F(CmTest, InitialDovMustBeInSuperScope) {
  DaId top = Top();
  DovId owned = MintDov(top, 10);
  DovId foreign = MintDov(DaId(999), 10);

  DaDescription ok_desc = Desc(module_);
  ok_desc.initial_dov = owned;
  EXPECT_TRUE(cm_.CreateSubDa(top, ok_desc).ok());

  DaDescription bad_desc = Desc(module_);
  bad_desc.initial_dov = foreign;
  EXPECT_TRUE(cm_.CreateSubDa(top, bad_desc).status().IsProtocolViolation());
}

TEST_F(CmTest, SubDaSeesItsInitialDov) {
  DaId top = Top();
  DovId dov0 = MintDov(top, 10);
  DaDescription desc = Desc(module_);
  desc.initial_dov = dov0;
  DaId sub = *cm_.CreateSubDa(top, desc);
  EXPECT_TRUE(cm_.InScope(sub, dov0));
}

// --- Evaluate / final DOVs ---------------------------------------------------

TEST_F(CmTest, EvaluateMarksFinalAndPersists) {
  DesignSpecification spec;
  spec.Add(Feature::AtMost("area_limit", "area", 100));
  DaId top = Top();
  DaId sub = Sub(top, spec);
  DovId good = MintDov(sub, 50);
  DovId bad = MintDov(sub, 500);

  auto q_good = cm_.Evaluate(sub, good);
  ASSERT_TRUE(q_good.ok());
  EXPECT_TRUE(q_good->is_final());
  EXPECT_TRUE((*repo_.Get(good)).final_dov);

  auto q_bad = cm_.Evaluate(sub, bad);
  EXPECT_FALSE(q_bad->is_final());
  EXPECT_FALSE((*repo_.Get(bad)).final_dov);
  EXPECT_EQ((*cm_.GetDa(sub))->final_dovs, std::vector<DovId>{good});
}

TEST_F(CmTest, EvaluateRequiresScope) {
  DaId top = Top();
  DaId sub = Sub(top);
  DovId other = MintDov(DaId(42), 10);
  EXPECT_TRUE(cm_.Evaluate(sub, other).status().IsProtocolViolation());
}

// --- Ready-to-commit / termination ------------------------------------------

TEST_F(CmTest, ReadyToCommitNeedsFinalDov) {
  DaId top = Top();
  DaId sub = Sub(top);
  EXPECT_TRUE(cm_.SubDaReadyToCommit(sub).IsProtocolViolation());
  DovId dov = MintDov(sub, 10);
  cm_.Evaluate(sub, dov).ok();  // empty spec -> final
  EXPECT_TRUE(cm_.SubDaReadyToCommit(sub).ok());
  EXPECT_EQ(*cm_.StateOf(sub), DaState::kReadyForTermination);
  EXPECT_EQ(EventCount(top, "Sub_DA_Ready_To_Commit"), 1);
}

TEST_F(CmTest, SuperReadsFinalsAtReadyForTermination) {
  DaId top = Top();
  DaId sub = Sub(top);
  DovId dov = MintDov(sub, 10);
  cm_.Evaluate(sub, dov).ok();
  EXPECT_FALSE(cm_.InScope(top, dov));  // inheritance difference #1
  cm_.SubDaReadyToCommit(sub).ok();
  EXPECT_TRUE(cm_.InScope(top, dov));
}

TEST_F(CmTest, TerminationInheritsScopeLocks) {
  DaId top = Top();
  DaId sub = Sub(top);
  DovId final_dov = MintDov(sub, 10);
  DovId preliminary = MintDov(sub, 20);
  cm_.Evaluate(sub, final_dov).ok();
  // Only the final DOV was evaluated final (empty spec -> both final);
  // use a spec to distinguish.
  cm_.SubDaReadyToCommit(sub).ok();
  ASSERT_TRUE(cm_.TerminateSubDa(top, sub).ok());
  EXPECT_EQ(*cm_.StateOf(sub), DaState::kTerminated);
  EXPECT_EQ(locks_.ScopeOwner(final_dov), top);
  // Preliminary DOVs stay with the (terminated) sub-DA.
  EXPECT_EQ(locks_.ScopeOwner(preliminary), sub);
}

TEST_F(CmTest, TerminationBlockedByOpenGrandchildren) {
  DaId top = Top();
  DaId sub = Sub(top);
  DaId grandchild = Sub(sub, {}, block_);
  DovId dov = MintDov(sub, 10);
  cm_.Evaluate(sub, dov).ok();
  cm_.SubDaReadyToCommit(sub).ok();
  EXPECT_TRUE(cm_.TerminateSubDa(top, sub).IsProtocolViolation());
  // Terminate the grandchild (cancellation) first.
  ASSERT_TRUE(cm_.TerminateSubDa(sub, grandchild).ok());
  EXPECT_TRUE(cm_.TerminateSubDa(top, sub).ok());
}

TEST_F(CmTest, TerminateOnlyByParent) {
  DaId top = Top();
  DaId sub = Sub(top);
  DaId other_top = Top();
  EXPECT_TRUE(cm_.TerminateSubDa(other_top, sub).IsProtocolViolation());
}

TEST_F(CmTest, CompleteDesignReleasesAllLocks) {
  DaId top = Top();
  DovId dov = MintDov(top, 10);
  DaId sub = Sub(top);
  DovId sub_dov = MintDov(sub, 5);
  cm_.Evaluate(sub, sub_dov).ok();
  cm_.SubDaReadyToCommit(sub).ok();
  cm_.TerminateSubDa(top, sub).ok();
  ASSERT_TRUE(cm_.CompleteDesign(top).ok());
  EXPECT_FALSE(locks_.ScopeOwner(dov).valid());
  EXPECT_TRUE(cm_.CompleteDesign(top).IsProtocolViolation());  // terminated
}

TEST_F(CmTest, CompleteDesignRejectsSubDa) {
  DaId top = Top();
  DaId sub = Sub(top);
  EXPECT_TRUE(cm_.CompleteDesign(sub).IsProtocolViolation());
}

TEST_F(CmTest, ImpossibleSpecificationNotifiesSuper) {
  DaId top = Top();
  DaId sub = Sub(top);
  ASSERT_TRUE(cm_.SubDaImpossibleSpecification(sub, "area too small").ok());
  EXPECT_EQ(*cm_.StateOf(sub), DaState::kReadyForTermination);
  EXPECT_TRUE((*cm_.GetDa(sub))->impossible_reported);
  EXPECT_EQ(EventCount(top, "Sub_DA_Impossible_Specification"), 1);
}

// --- Specification changes ----------------------------------------------------

TEST_F(CmTest, ModifySubDaSpecOnlyByParentAndRestartsSub) {
  DesignSpecification spec;
  spec.Add(Feature::AtMost("area_limit", "area", 10));
  DaId top = Top();
  DaId sub = Sub(top, spec);
  DaId stranger = Top();

  DesignSpecification relaxed;
  relaxed.Add(Feature::AtMost("area_limit", "area", 100));
  EXPECT_TRUE(cm_.ModifySubDaSpecification(stranger, sub, relaxed)
                  .IsProtocolViolation());
  ASSERT_TRUE(cm_.ModifySubDaSpecification(top, sub, relaxed).ok());
  EXPECT_EQ(EventCount(sub, "Modify_Sub_DA_Specification"), 1);
  EXPECT_DOUBLE_EQ((*cm_.GetDa(sub))->spec.Find("area_limit")->max(), 100);
  // Finality is relative to the spec: the final list was reset.
  EXPECT_TRUE((*cm_.GetDa(sub))->final_dovs.empty());
}

TEST_F(CmTest, ModifySpecReactivatesReadyForTermination) {
  DaId top = Top();
  DaId sub = Sub(top);
  cm_.SubDaImpossibleSpecification(sub, "too hard").ok();
  EXPECT_EQ(*cm_.StateOf(sub), DaState::kReadyForTermination);
  cm_.ModifySubDaSpecification(top, sub, {}).ok();
  EXPECT_EQ(*cm_.StateOf(sub), DaState::kActive);
  EXPECT_FALSE((*cm_.GetDa(sub))->impossible_reported);
}

TEST_F(CmTest, RefineOwnSpecificationEnforcesRefinement) {
  DesignSpecification spec;
  spec.Add(Feature::AtMost("area_limit", "area", 100));
  DaId top = Top(spec);

  DesignSpecification narrowed;
  narrowed.Add(Feature::AtMost("area_limit", "area", 50));
  EXPECT_TRUE(cm_.RefineOwnSpecification(top, narrowed).ok());

  DesignSpecification widened;
  widened.Add(Feature::AtMost("area_limit", "area", 200));
  EXPECT_TRUE(
      cm_.RefineOwnSpecification(top, widened).IsProtocolViolation());
}

// --- Usage: Require / Propagate / Withdraw / Invalidate ------------------------

class UsageTest : public CmTest {
 protected:
  UsageTest() {
    DesignSpecification spec;
    spec.Add(Feature::AtMost("area_limit", "area", 100));
    top_ = Top();
    supporter_ = Sub(top_, spec);
    requirer_ = Sub(top_);
  }
  DaId top_;
  DaId supporter_;
  DaId requirer_;
};

TEST_F(UsageTest, RequireEstablishesRelationshipAndNotifies) {
  ASSERT_TRUE(cm_.Require(requirer_, supporter_, {"area_limit"}).ok());
  auto rels = cm_.RelationshipsOf(requirer_);
  bool has_usage = false;
  for (const auto& rel : rels) {
    if (rel.kind == RelKind::kUsage) has_usage = true;
  }
  EXPECT_TRUE(has_usage);
  EXPECT_EQ(EventCount(supporter_, "Require"), 1);
}

TEST_F(UsageTest, RequireRejectsUnknownFeature) {
  EXPECT_TRUE(cm_.Require(requirer_, supporter_, {"no_such_feature"})
                  .IsProtocolViolation());
}

TEST_F(UsageTest, PropagateDeliversQualifyingDovOnly) {
  cm_.Require(requirer_, supporter_, {"area_limit"}).ok();
  DovId good = MintDov(supporter_, 50);
  DovId bad = MintDov(supporter_, 500);

  ASSERT_TRUE(cm_.Propagate(supporter_, good).ok());
  ASSERT_TRUE(cm_.Propagate(supporter_, bad).ok());
  EXPECT_TRUE(cm_.InScope(requirer_, good));
  EXPECT_FALSE(cm_.InScope(requirer_, bad));  // quality not met
  EXPECT_EQ(EventCount(requirer_, "Propagate"), 1);
  EXPECT_TRUE((*repo_.Get(good)).propagated);
}

TEST_F(UsageTest, RequireServesAlreadyPropagatedDov) {
  DovId dov = MintDov(supporter_, 50);
  cm_.Propagate(supporter_, dov).ok();  // no requirer yet
  ASSERT_TRUE(cm_.Require(requirer_, supporter_, {"area_limit"}).ok());
  EXPECT_TRUE(cm_.InScope(requirer_, dov));
  EXPECT_EQ(EventCount(requirer_, "Propagate"), 1);
}

TEST_F(UsageTest, PropagateChecksOwnership) {
  DovId foreign = MintDov(requirer_, 10);
  EXPECT_TRUE(cm_.Propagate(supporter_, foreign).IsProtocolViolation());
}

TEST_F(UsageTest, NoExchangeWithoutUsageRelationship) {
  DovId dov = MintDov(supporter_, 50);
  cm_.Propagate(supporter_, dov).ok();
  // No Require from requirer_: not visible.
  EXPECT_FALSE(cm_.InScope(requirer_, dov));
}

TEST_F(UsageTest, WithdrawalRevokesAndNotifies) {
  cm_.Require(requirer_, supporter_, {"area_limit"}).ok();
  DovId dov = MintDov(supporter_, 50);
  cm_.Propagate(supporter_, dov).ok();
  ASSERT_TRUE(cm_.WithdrawPropagation(supporter_, dov).ok());
  EXPECT_FALSE(cm_.InScope(requirer_, dov));
  EXPECT_FALSE((*repo_.Get(dov)).propagated);
  EXPECT_EQ(EventCount(requirer_, "Withdrawal"), 1);
  // Withdrawing again is a precondition failure.
  EXPECT_TRUE(
      cm_.WithdrawPropagation(supporter_, dov).IsFailedPrecondition());
}

TEST_F(UsageTest, InvalidateReplacesWithQualifyingDov) {
  cm_.Require(requirer_, supporter_, {"area_limit"}).ok();
  DovId old_dov = MintDov(supporter_, 50);
  cm_.Propagate(supporter_, old_dov).ok();
  DovId replacement = MintDov(supporter_, 40);
  ASSERT_TRUE(
      cm_.InvalidateAndReplace(supporter_, old_dov, replacement).ok());
  EXPECT_TRUE((*repo_.Get(old_dov)).invalidated);
  EXPECT_FALSE(cm_.InScope(requirer_, old_dov));
  EXPECT_TRUE(cm_.InScope(requirer_, replacement));
  EXPECT_EQ(EventCount(requirer_, "Invalidation"), 1);
  // Invalidated DOVs cannot be propagated again.
  EXPECT_TRUE(cm_.Propagate(supporter_, old_dov).IsProtocolViolation());
}

TEST_F(UsageTest, InvalidateRejectsUnqualifiedReplacement) {
  cm_.Require(requirer_, supporter_, {"area_limit"}).ok();
  DovId old_dov = MintDov(supporter_, 50);
  cm_.Propagate(supporter_, old_dov).ok();
  DovId too_big = MintDov(supporter_, 900);
  EXPECT_TRUE(cm_.InvalidateAndReplace(supporter_, old_dov, too_big)
                  .IsProtocolViolation());
}

TEST_F(UsageTest, CancellationWithdrawsPropagatedDovs) {
  cm_.Require(requirer_, supporter_, {"area_limit"}).ok();
  DovId dov = MintDov(supporter_, 50);
  cm_.Propagate(supporter_, dov).ok();
  // Terminate without final DOVs = cancellation.
  ASSERT_TRUE(cm_.TerminateSubDa(top_, supporter_).ok());
  EXPECT_FALSE(cm_.InScope(requirer_, dov));
  EXPECT_EQ(EventCount(requirer_, "Withdrawal"), 1);
}

TEST_F(CmTest, MutualRequireKeepsTwoDirectedEdges) {
  // Regression: Require(b, a) after Require(a, b) used to find the a→b
  // edge (matched without direction), merge its features into it and
  // never create b→a, so a's propagations never reached b.
  DesignSpecification spec_a;
  spec_a.Add(Feature::AtMost("a_area", "area", 50));
  DesignSpecification spec_b;
  spec_b.Add(Feature::AtMost("b_area", "area", 100));
  DaId top = Top();
  DaId a = Sub(top, spec_a);
  DaId b = Sub(top, spec_b);
  ASSERT_TRUE(cm_.Require(a, b, {"b_area"}).ok());
  ASSERT_TRUE(cm_.Require(b, a, {"a_area"}).ok());

  std::map<std::pair<DaId, DaId>, std::vector<std::string>> usage;
  for (const auto& rel : cm_.RelationshipsOf(a)) {
    if (rel.kind == RelKind::kUsage) usage[{rel.from, rel.to}] = rel.features;
  }
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[std::make_pair(a, b)], std::vector<std::string>{"b_area"});
  EXPECT_EQ(usage[std::make_pair(b, a)], std::vector<std::string>{"a_area"});

  // Grants flow both ways, each judged by its own edge's features.
  DovId from_b = MintDov(b, 80);  // meets b_area, not a_area
  DovId from_a = MintDov(a, 40);  // meets a_area
  DovId big_a = MintDov(a, 70);   // misses a_area
  ASSERT_TRUE(cm_.Propagate(b, from_b).ok());
  ASSERT_TRUE(cm_.Propagate(a, from_a).ok());
  ASSERT_TRUE(cm_.Propagate(a, big_a).ok());
  EXPECT_TRUE(cm_.InScope(a, from_b));
  EXPECT_TRUE(cm_.InScope(b, from_a));
  EXPECT_FALSE(cm_.InScope(b, big_a));

  // A repeated Require accumulates on its own edge only.
  ASSERT_TRUE(cm_.Require(a, b, {"b_area"}).ok());
  size_t usage_edges = 0;
  for (const auto& rel : cm_.RelationshipsOf(a)) {
    if (rel.kind == RelKind::kUsage) ++usage_edges;
  }
  EXPECT_EQ(usage_edges, 2u);
}

// --- Negotiation ---------------------------------------------------------------

class NegotiationTest : public CmTest {
 protected:
  NegotiationTest() {
    DesignSpecification spec_a;
    spec_a.Add(Feature::AtMost("area_limit", "area", 100));
    DesignSpecification spec_b;
    spec_b.Add(Feature::AtMost("area_limit", "area", 100));
    top_ = Top();
    a_ = Sub(top_, spec_a);
    b_ = Sub(top_, spec_b);
  }

  Proposal MoveBorder(double a_area, double b_area) {
    Proposal p;
    p.for_from = {Feature::AtMost("area_limit", "area", a_area)};
    p.for_to = {Feature::AtMost("area_limit", "area", b_area)};
    return p;
  }

  DaId top_;
  DaId a_;
  DaId b_;
};

TEST_F(NegotiationTest, ExplicitRelationshipOnlyBetweenSiblings) {
  EXPECT_TRUE(cm_.CreateNegotiationRelationship(top_, a_, b_, {"area"}).ok());
  DaId other_top = Top();
  DaId outsider = Sub(other_top);
  EXPECT_TRUE(cm_.CreateNegotiationRelationship(top_, a_, outsider, {"area"})
                  .status()
                  .IsProtocolViolation());
  // Duplicates rejected.
  EXPECT_TRUE(cm_.CreateNegotiationRelationship(top_, a_, b_, {"area"})
                  .status()
                  .IsProtocolViolation());
}

TEST_F(NegotiationTest, ProposeMovesBothToNegotiating) {
  ASSERT_TRUE(cm_.Propose(a_, b_, MoveBorder(120, 80)).ok());
  EXPECT_EQ(*cm_.StateOf(a_), DaState::kNegotiating);
  EXPECT_EQ(*cm_.StateOf(b_), DaState::kNegotiating);
  EXPECT_EQ(EventCount(b_, "Propose"), 1);
  EXPECT_TRUE(cm_.PendingProposalFor(b_).has_value());
}

TEST_F(NegotiationTest, ProposeRejectsNonSiblings) {
  DaId other_top = Top();
  DaId outsider = Sub(other_top);
  EXPECT_TRUE(
      cm_.Propose(a_, outsider, MoveBorder(1, 1)).IsProtocolViolation());
}

TEST_F(NegotiationTest, AgreeAppliesChangesToBothSpecs) {
  cm_.Propose(a_, b_, MoveBorder(120, 80)).ok();
  ASSERT_TRUE(cm_.Agree(b_).ok());
  EXPECT_EQ(*cm_.StateOf(a_), DaState::kActive);
  EXPECT_EQ(*cm_.StateOf(b_), DaState::kActive);
  EXPECT_DOUBLE_EQ((*cm_.GetDa(a_))->spec.Find("area_limit")->max(), 120);
  EXPECT_DOUBLE_EQ((*cm_.GetDa(b_))->spec.Find("area_limit")->max(), 80);
  EXPECT_EQ(EventCount(a_, "Agree"), 1);
  EXPECT_FALSE(cm_.PendingProposalFor(b_).has_value());
}

TEST_F(NegotiationTest, DisagreeKeepsSpecs) {
  cm_.Propose(a_, b_, MoveBorder(120, 80)).ok();
  ASSERT_TRUE(cm_.Disagree(b_).ok());
  EXPECT_DOUBLE_EQ((*cm_.GetDa(a_))->spec.Find("area_limit")->max(), 100);
  EXPECT_DOUBLE_EQ((*cm_.GetDa(b_))->spec.Find("area_limit")->max(), 100);
  EXPECT_EQ(*cm_.StateOf(a_), DaState::kActive);
  EXPECT_EQ(EventCount(a_, "Disagree"), 1);
}

TEST_F(NegotiationTest, OnlyReceiverAnswers) {
  cm_.Propose(a_, b_, MoveBorder(120, 80)).ok();
  EXPECT_TRUE(cm_.Agree(a_).IsProtocolViolation());  // a_ has no pending
  EXPECT_TRUE(cm_.Agree(b_).ok());
}

TEST_F(NegotiationTest, AgreeWithoutProposalRejected) {
  EXPECT_TRUE(cm_.Agree(b_).IsProtocolViolation());
  EXPECT_TRUE(cm_.Disagree(b_).IsProtocolViolation());
}

TEST_F(NegotiationTest, SecondProposalToSamePartyRejected) {
  cm_.Propose(a_, b_, MoveBorder(120, 80)).ok();
  EXPECT_TRUE(cm_.Propose(a_, b_, MoveBorder(130, 70)).IsProtocolViolation());
}

TEST_F(NegotiationTest, ConflictEscalatesToSuper) {
  cm_.Propose(a_, b_, MoveBorder(120, 80)).ok();
  ASSERT_TRUE(cm_.SubDasSpecificationConflict(a_, b_).ok());
  EXPECT_EQ(*cm_.StateOf(a_), DaState::kActive);
  EXPECT_EQ(*cm_.StateOf(b_), DaState::kActive);
  EXPECT_EQ(EventCount(top_, "Sub_DAs_Specification_Conflict"), 1);
  EXPECT_FALSE(cm_.PendingProposalFor(b_).has_value());
}

TEST_F(NegotiationTest, ConflictRequiresNegotiationRelationship) {
  EXPECT_TRUE(cm_.SubDasSpecificationConflict(a_, b_).IsProtocolViolation());
}

// --- Server crash recovery ------------------------------------------------------

TEST_F(CmTest, CmRecoversHierarchyFromRepository) {
  DesignSpecification spec;
  spec.Add(Feature::AtMost("area_limit", "area", 100));
  DaId top = Top(spec);
  DaId sub = Sub(top, spec);
  DovId dov = MintDov(sub, 50);
  cm_.Evaluate(sub, dov).ok();
  cm_.SubDaReadyToCommit(sub).ok();
  cm_.Require(top, sub, {"area_limit"}).ok();

  // Server crash: CM + lock tables volatile; repository recovers from
  // its WAL, CM from the meta store.
  cm_.Crash();
  locks_.ReleaseAll();
  repo_.Crash();
  ASSERT_TRUE(repo_.Recover().ok());
  ASSERT_TRUE(cm_.Recover().ok());

  EXPECT_EQ(*cm_.StateOf(top), DaState::kActive);
  EXPECT_EQ(*cm_.StateOf(sub), DaState::kReadyForTermination);
  EXPECT_EQ((*cm_.GetDa(sub))->final_dovs, std::vector<DovId>{dov});
  EXPECT_DOUBLE_EQ((*cm_.GetDa(sub))->spec.Find("area_limit")->max(), 100);
  EXPECT_EQ(cm_.Children(top), std::vector<DaId>{sub});
  // Scope-locks rebuilt: sub owns its DOV, super can read the final.
  EXPECT_TRUE(cm_.InScope(sub, dov));
  EXPECT_TRUE(cm_.InScope(top, dov));
  // Usage relationship survived.
  bool has_usage = false;
  for (const auto& rel : cm_.RelationshipsOf(top)) {
    if (rel.kind == RelKind::kUsage) has_usage = true;
  }
  EXPECT_TRUE(has_usage);
  // New DAs get fresh ids.
  DaId next = *cm_.InitDesign(Desc(chip_));
  EXPECT_GT(next.value(), sub.value());
}

TEST_F(CmTest, PendingProposalSurvivesServerCrash) {
  DaId top = Top();
  DaId a = Sub(top);
  DaId b = Sub(top);
  Proposal p;
  p.for_to = {Feature::AtMost("x", "area", 5)};
  cm_.Propose(a, b, p).ok();

  cm_.Crash();
  repo_.Crash();
  repo_.Recover().ok();
  ASSERT_TRUE(cm_.Recover().ok());
  EXPECT_EQ(*cm_.StateOf(a), DaState::kNegotiating);
  ASSERT_TRUE(cm_.PendingProposalFor(b).has_value());
  EXPECT_TRUE(cm_.Agree(b).ok());
  EXPECT_DOUBLE_EQ((*cm_.GetDa(b))->spec.Find("x")->max(), 5);
}

// --- Fig. 7 state machine legality sweep ----------------------------------------

/// Which operations are legal in which source state (subset we can
/// drive generically).
struct TransitionCase {
  DaState from;
  DaOperation op;
  bool legal;
};

class StateMachineP : public ::testing::TestWithParam<TransitionCase> {};

TEST_P(StateMachineP, OperationLegality) {
  const TransitionCase& c = GetParam();
  SimClock clock;
  storage::Repository repo(&clock);
  auto* module = repo.schema().DefineType("module");
  module->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
  auto* chip = repo.schema().DefineType("chip");
  chip->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
  chip->AddPart({module->id(), 0, 100});
  txn::LockManager locks;
  CooperationManager cm(&repo, &locks, &clock);

  DaDescription top_desc;
  top_desc.dot = chip->id();
  top_desc.designer = DesignerId(1);
  top_desc.workstation = NodeId(1);
  DaId top = *cm.InitDesign(top_desc);
  cm.Start(top).ok();
  DaDescription sub_desc;
  sub_desc.dot = module->id();
  sub_desc.designer = DesignerId(2);
  sub_desc.workstation = NodeId(2);
  DaId sub = *cm.CreateSubDa(top, sub_desc);
  DaId sibling = *cm.CreateSubDa(top, sub_desc);
  cm.Start(sibling).ok();

  // Drive `sub` into the source state.
  switch (c.from) {
    case DaState::kGenerated:
      break;
    case DaState::kActive:
      cm.Start(sub).ok();
      break;
    case DaState::kNegotiating: {
      cm.Start(sub).ok();
      Proposal p;
      cm.Propose(sibling, sub, p).ok();
      break;
    }
    case DaState::kReadyForTermination:
      cm.Start(sub).ok();
      cm.SubDaImpossibleSpecification(sub, "x").ok();
      break;
    case DaState::kTerminated:
      cm.Start(sub).ok();
      cm.SubDaImpossibleSpecification(sub, "x").ok();
      cm.TerminateSubDa(top, sub).ok();
      break;
  }
  ASSERT_EQ(*cm.StateOf(sub), c.from);

  Status st;
  switch (c.op) {
    case DaOperation::kStart:
      st = cm.Start(sub);
      break;
    case DaOperation::kCreateSubDa:
      st = cm.CreateSubDa(sub, sub_desc).status();
      break;
    case DaOperation::kSubDaImpossibleSpec:
      st = cm.SubDaImpossibleSpecification(sub, "r");
      break;
    case DaOperation::kPropose: {
      Proposal p;
      st = cm.Propose(sub, sibling, p);
      break;
    }
    case DaOperation::kAgree:
      st = cm.Agree(sub);
      break;
    case DaOperation::kModifySubDaSpec:
      st = cm.ModifySubDaSpecification(top, sub, {});
      break;
    default:
      GTEST_SKIP() << "operation not driven generically";
  }
  EXPECT_EQ(st.ok(), c.legal) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Fig7, StateMachineP,
    ::testing::Values(
        // Start: only from generated.
        TransitionCase{DaState::kGenerated, DaOperation::kStart, true},
        TransitionCase{DaState::kActive, DaOperation::kStart, false},
        TransitionCase{DaState::kNegotiating, DaOperation::kStart, false},
        TransitionCase{DaState::kTerminated, DaOperation::kStart, false},
        // Create_Sub_DA: only while active.
        TransitionCase{DaState::kGenerated, DaOperation::kCreateSubDa, false},
        TransitionCase{DaState::kActive, DaOperation::kCreateSubDa, true},
        TransitionCase{DaState::kReadyForTermination,
                       DaOperation::kCreateSubDa, false},
        TransitionCase{DaState::kTerminated, DaOperation::kCreateSubDa,
                       false},
        // Impossible spec: only while active.
        TransitionCase{DaState::kActive, DaOperation::kSubDaImpossibleSpec,
                       true},
        TransitionCase{DaState::kGenerated, DaOperation::kSubDaImpossibleSpec,
                       false},
        TransitionCase{DaState::kReadyForTermination,
                       DaOperation::kSubDaImpossibleSpec, false},
        // Propose: active (or negotiating) proposer.
        TransitionCase{DaState::kActive, DaOperation::kPropose, true},
        TransitionCase{DaState::kGenerated, DaOperation::kPropose, false},
        TransitionCase{DaState::kReadyForTermination, DaOperation::kPropose,
                       false},
        TransitionCase{DaState::kTerminated, DaOperation::kPropose, false},
        // Agree: needs negotiating + pending proposal.
        TransitionCase{DaState::kNegotiating, DaOperation::kAgree, true},
        TransitionCase{DaState::kActive, DaOperation::kAgree, false},
        // Modify spec: any non-terminated state.
        TransitionCase{DaState::kActive, DaOperation::kModifySubDaSpec, true},
        TransitionCase{DaState::kGenerated, DaOperation::kModifySubDaSpec,
                       true},
        TransitionCase{DaState::kReadyForTermination,
                       DaOperation::kModifySubDaSpec, true},
        TransitionCase{DaState::kTerminated, DaOperation::kModifySubDaSpec,
                       false}));

}  // namespace
}  // namespace concord::cooperation
