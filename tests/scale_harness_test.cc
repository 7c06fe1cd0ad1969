#include "sim/scale_harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "tests/seed.h"

namespace concord::sim {
namespace {

using test::ScopedSeedReporter;
using test::TestSeed;

/// Small plane for the checker self-tests: big enough to have real
/// chains and propagations, small enough to generate in milliseconds.
ScaleConfig SmallConfig() {
  ScaleConfig config;
  config.seed = TestSeed(42);
  config.server_nodes = 2;
  config.partitions = 1;
  config.workstations = 2;
  config.das = 4;
  config.dovs = 400;
  config.chain_depth = 8;
  config.propagated_per_da = 4;
  config.ops_per_workstation = 0;
  return config;
}

/// First DA (with its shard) that has at least one committed DOV.
struct DaOnShard {
  DaId da;
  size_t shard = 0;
  std::vector<DovId> dovs;
};

DaOnShard FindSeededDa(ScalePlane* plane) {
  for (DaId da : plane->cm().AllDas()) {
    for (size_t s = 0; s < plane->node_count(); ++s) {
      auto dovs = plane->shard(s).repo->DovsOf(da);
      if (!dovs.empty()) return {da, s, std::move(dovs)};
    }
  }
  ADD_FAILURE() << "generator produced no DOVs";
  return {};
}

/// Overwrites one cooperation flag directly in the repository — the
/// "corrupted server" the resurrection check must catch.
void FlipFlags(storage::Repository* repo, DovId dov, bool propagated,
               bool invalidated) {
  auto record = repo->Get(dov);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  storage::DovRecord copy = *record;
  copy.propagated = propagated;
  copy.invalidated = invalidated;
  TxnId txn = repo->Begin();
  ASSERT_TRUE(repo->Put(txn, std::move(copy)).ok());
  ASSERT_TRUE(repo->Commit(txn).ok());
}

void ExpectOnly(const InvariantChecker& checker, ViolationClass expected,
                size_t count) {
  for (size_t c = 0; c < 6; ++c) {
    ViolationClass klass = static_cast<ViolationClass>(c);
    size_t want = klass == expected ? count : 0;
    EXPECT_EQ(checker.violation_count(klass), want)
        << "class " << ViolationClassName(klass);
  }
}

// --- Planted-violation self-tests: a checker that cannot catch a
// planted bug gates nothing.

TEST(ScaleCheckerSelfTest, PlantedLostCommitMissingDov) {
  ScaleHarness harness(SmallConfig());
  harness.Generate();
  InvariantChecker& checker = harness.checker();

  InvariantChecker::AckedCommit acked;
  acked.ws = 0;
  acked.dop = DopId(987654);
  acked.dov = DovId(999999);  // never committed anywhere
  acked.value = 7;
  acked.da = DaId(2);
  acked.participants = {0};
  checker.RecordAckedCommit(acked);

  checker.VerifyAgainst(&harness.plane(), /*only_up_nodes=*/false);
  ExpectOnly(checker, ViolationClass::kLostCommit, 1);
}

TEST(ScaleCheckerSelfTest, PlantedLostCommitPayloadMismatch) {
  ScaleHarness harness(SmallConfig());
  harness.Generate();
  DaOnShard seeded = FindSeededDa(&harness.plane());
  ASSERT_FALSE(seeded.dovs.empty());

  InvariantChecker::AckedCommit acked;
  acked.ws = 0;
  acked.dop = DopId(987654);
  acked.dov = seeded.dovs.front();
  acked.value = -1;  // generator only writes non-negative values
  acked.da = seeded.da;
  acked.participants = {};  // no participants: isolate the payload check
  harness.checker().RecordAckedCommit(acked);

  harness.checker().VerifyAgainst(&harness.plane(), false);
  ExpectOnly(harness.checker(), ViolationClass::kLostCommit, 1);
}

TEST(ScaleCheckerSelfTest, PlantedResurrectedWithdrawnVersion) {
  ScaleHarness harness(SmallConfig());
  harness.Generate();
  DaOnShard seeded = FindSeededDa(&harness.plane());
  ASSERT_FALSE(seeded.dovs.empty());
  DovId dov = seeded.dovs.front();
  auto& cm = harness.plane().cm();
  // Propagate may already have happened during Generate; make sure.
  cm.Propagate(seeded.da, dov).ok();
  ASSERT_TRUE(cm.WithdrawPropagation(seeded.da, dov).ok());
  harness.checker().RecordRetired(dov, /*invalidated=*/false,
                                  /*armed=*/false);

  // Resurrect it behind the CM's back: flip `propagated` back on.
  FlipFlags(harness.plane().shard(seeded.shard).repo.get(), dov,
            /*propagated=*/true, /*invalidated=*/false);

  harness.checker().VerifyAgainst(&harness.plane(), false);
  ExpectOnly(harness.checker(), ViolationClass::kResurrectedVersion, 1);
}

TEST(ScaleCheckerSelfTest, PlantedResurrectedInvalidatedVersion) {
  ScaleHarness harness(SmallConfig());
  harness.Generate();
  DaOnShard seeded = FindSeededDa(&harness.plane());
  ASSERT_GE(seeded.dovs.size(), 2u);
  DovId dov = seeded.dovs[0];
  DovId replacement = seeded.dovs[1];
  auto& cm = harness.plane().cm();
  cm.Propagate(seeded.da, dov).ok();
  ASSERT_TRUE(cm.InvalidateAndReplace(seeded.da, dov, replacement).ok());
  harness.checker().RecordRetired(dov, /*invalidated=*/true,
                                  /*armed=*/false);

  FlipFlags(harness.plane().shard(seeded.shard).repo.get(), dov,
            /*propagated=*/false, /*invalidated=*/false);

  harness.checker().VerifyAgainst(&harness.plane(), false);
  ExpectOnly(harness.checker(), ViolationClass::kResurrectedVersion, 1);
}

TEST(ScaleCheckerSelfTest, PlantedHalfAppliedCommit) {
  ScaleHarness harness(SmallConfig());
  harness.Generate();
  DaOnShard seeded = FindSeededDa(&harness.plane());
  ASSERT_FALSE(seeded.dovs.empty());
  DovId dov = seeded.dovs.front();
  auto& plane = harness.plane();

  // Begin a DOP, register it on the DA's home shard, and then claim its
  // commit was acked without ever finishing it: the participant still
  // carries the registration — a half-applied decision. (Begin-of-DOP
  // is local to the client-TM, so the registration is planted at the
  // shard's server-TM directly.)
  auto value = plane.shard(seeded.shard).repo->Get(dov);
  ASSERT_TRUE(value.ok());
  auto attr = value->data.GetAttr("value");
  ASSERT_TRUE(attr.ok());
  auto dop = plane.workstation(0).client->BeginDop(seeded.da);
  ASSERT_TRUE(dop.ok()) << dop.status().ToString();
  size_t home = DovShardClamped(dov, plane.node_count());
  ASSERT_TRUE(plane.shard(home).tm->BeginDop(*dop, seeded.da).ok());

  InvariantChecker::AckedCommit acked;
  acked.ws = 0;
  acked.dop = *dop;
  acked.dov = dov;
  acked.value = attr->as_int();
  acked.da = seeded.da;
  acked.participants = {home};
  harness.checker().RecordAckedCommit(acked);

  harness.checker().VerifyAgainst(&plane, false);
  ExpectOnly(harness.checker(), ViolationClass::kAtomicityViolation, 1);
}

TEST(ScaleCheckerSelfTest, PlantedCacheCoherenceViolation) {
  InvariantChecker checker;
  DovId dov(12345);
  checker.RecordRetired(dov, /*invalidated=*/true, /*armed=*/true);
  checker.NoteCheckoutObservation(/*ws=*/0, dov, /*from_cache=*/true,
                                  checker.CurrentSeq());
  ExpectOnly(checker, ViolationClass::kCacheCoherence, 1);
}

TEST(ScaleCheckerSelfTest, CoherenceExcludesInFlightRace) {
  InvariantChecker checker;
  DovId dov(12345);
  uint64_t seq_before = checker.CurrentSeq();
  checker.RecordRetired(dov, true, true);
  // The checkout op started before the retirement: a legal race.
  checker.NoteCheckoutObservation(0, dov, true, seq_before);
  ExpectOnly(checker, ViolationClass::kCacheCoherence, 0);
}

TEST(ScaleCheckerSelfTest, CoherenceExcludesPostCrashRepopulation) {
  InvariantChecker checker;
  DovId dov(12345);
  checker.RecordRetired(dov, true, true);
  // The workstation crashed after the retirement: its cache memory is
  // gone, and a server-side checkout may legitimately repopulate it.
  checker.NoteWorkstationCrash(3);
  checker.NoteCheckoutObservation(3, dov, true, checker.CurrentSeq());
  ExpectOnly(checker, ViolationClass::kCacheCoherence, 0);
}

TEST(ScaleCheckerSelfTest, CoherenceIgnoresUnarmedRetirement) {
  InvariantChecker checker;
  DovId dov(12345);
  checker.RecordRetired(dov, true, /*armed=*/false);
  checker.NoteCheckoutObservation(0, dov, true, checker.CurrentSeq());
  ExpectOnly(checker, ViolationClass::kCacheCoherence, 0);
}

TEST(ScaleCheckerSelfTest, PlantedDuplicateDovId) {
  InvariantChecker checker;
  InvariantChecker::AckedCommit acked;
  acked.ws = 0;
  acked.dop = DopId(1);
  acked.dov = DovId(777);
  acked.value = 1;
  acked.da = DaId(1);
  checker.RecordAckedCommit(acked);
  acked.dop = DopId(2);  // different DOP, same DOV id: reissued id
  checker.RecordAckedCommit(acked);
  ExpectOnly(checker, ViolationClass::kDuplicateId, 1);
}

TEST(ScaleCheckerSelfTest, PlantedWalBoundViolation) {
  InvariantChecker checker;
  checker.NoteWalSize(/*shard=*/0, /*records_after_checkpoint=*/100,
                      /*bound=*/100);
  ExpectOnly(checker, ViolationClass::kWalUnbounded, 0);
  checker.NoteWalSize(0, 101, 100);
  ExpectOnly(checker, ViolationClass::kWalUnbounded, 1);
}

// --- MigrateDa under a checkout/checkin storm (previously only
// exercised quiescently). With loss at zero every server-side commit
// acks, so DOV accounting must be exact: no lost and no duplicated
// server effects across the migration.

TEST(ScaleMigrationTest, MigrateHotDaUnderCheckoutStorm) {
  uint64_t seed = TestSeed(42);
  ScopedSeedReporter reporter(seed);
  ScaleConfig config = SmallConfig();
  config.seed = seed;
  config.workstations = 4;
  config.loss_probability = 0.0;
  ScaleHarness harness(config);
  harness.Generate();
  ScalePlane& plane = harness.plane();

  // Pick a DA homed on shard 0 as the hot target.
  DaId hot;
  for (DaId da : plane.cm().AllDas()) {
    if (!plane.shard(0).repo->DovsOf(da).empty()) {
      hot = da;
      break;
    }
  }
  ASSERT_TRUE(hot.valid());
  std::vector<DovId> inputs = plane.shard(0).repo->DovsOf(hot);
  const size_t seeded = inputs.size();

  std::atomic<size_t> acked{0};
  std::atomic<bool> migrated{false};   // storm-unblock signal
  std::atomic<bool> migrate_ok{false};  // MigrateDa actually succeeded
  constexpr size_t kThreads = 4;
  // Each thread keeps committing until it has run a tail of ops AFTER
  // the migration landed, so DOPs begun against the old home are
  // guaranteed to commit across the placement change (the kWrongShard
  // redirect + placement-refresh retry path).
  constexpr size_t kOpsAfterMigration = 20;
  constexpr size_t kOpsCap = 20000;  // bail-out if migration never lands
  std::vector<std::thread> storm;
  for (size_t t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      txn::ClientTm& client = *plane.workstation(t).client;
      size_t after_migration = 0;
      for (size_t i = 0;
           after_migration < kOpsAfterMigration && i < kOpsCap; ++i) {
        if (migrated.load(std::memory_order_acquire)) ++after_migration;
        auto dop = client.BeginDop(hot);
        if (!dop.ok()) continue;
        DovId input = inputs[(t * 131 + i) % inputs.size()];
        if (!client.Checkout(*dop, input, false).ok()) {
          client.AbortDop(*dop).ok();
          continue;
        }
        storage::DesignObject object(plane.cell_dot());
        object.SetAttr("value", static_cast<int64_t>(t * 100000 + i));
        if (client.CheckinCommit(*dop, std::move(object), {input}).ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Migrate mid-storm, once some traffic has already committed.
  std::thread migrator([&] {
    while (acked.load(std::memory_order_relaxed) < kThreads * 2) {
      std::this_thread::yield();
    }
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (plane.cm().MigrateDa(hot, plane.shard(1).node).ok()) {
        migrate_ok.store(true, std::memory_order_release);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    migrated.store(true, std::memory_order_release);  // unblock the storm
  });
  for (std::thread& thread : storm) thread.join();
  migrator.join();
  ASSERT_TRUE(migrate_ok.load()) << "MigrateDa never succeeded mid-storm";
  ASSERT_GT(acked.load(), 0u);

  // Placement converged: the authority and a fresh client both see the
  // new home, and post-migration traffic commits there.
  EXPECT_EQ(plane.placement().HomeOf(hot), plane.shard(1).node);

  uint64_t refreshes = 0;
  for (size_t w = 0; w < plane.workstation_count(); ++w) {
    refreshes += plane.workstation(w).client->stats().placement_refreshes;
  }
  EXPECT_GT(refreshes, 0u) << "no client ever refreshed placement";

  // Exact effect accounting: with zero loss every server commit was
  // acked, so the union of both shards must hold exactly the seeded
  // versions plus one DOV per acked commit — nothing lost, nothing
  // applied twice.
  size_t total = plane.shard(0).repo->DovsOf(hot).size() +
                 plane.shard(1).repo->DovsOf(hot).size();
  EXPECT_EQ(total, seeded + acked.load());

  // And the plane still takes traffic for the migrated DA.
  txn::ClientTm& client = *plane.workstation(0).client;
  auto dop = client.BeginDop(hot);
  ASSERT_TRUE(dop.ok()) << dop.status().ToString();
  ASSERT_TRUE(client.Checkout(*dop, inputs.front(), false).ok());
  storage::DesignObject object(plane.cell_dot());
  object.SetAttr("value", static_cast<int64_t>(4242));
  auto dov = client.CheckinCommit(*dop, std::move(object), {inputs.front()});
  ASSERT_TRUE(dov.ok()) << dov.status().ToString();
  EXPECT_EQ(DovShardClamped(*dov, plane.node_count()), 1u);
}

// --- Checkpoint-during-chaos regression: periodic Checkpoint() sweeps
// run while traffic and crashes are in flight, truncate the WAL
// (bounded records survive a checkpoint), and never checkpoint a
// crashed node's empty volatile image over its log.

TEST(ScaleChaosTest, CheckpointDuringChaosKeepsWalBounded) {
  uint64_t seed = TestSeed(42);
  ScopedSeedReporter reporter(seed);
  ScaleConfig config;
  config.seed = seed;
  config.server_nodes = 3;
  config.partitions = 1;
  config.workstations = 4;
  config.das = 8;
  config.dovs = 4000;
  config.ops_per_workstation = 120;
  config.loss_probability = 0.03;
  config.crash_cycles = 2;
  config.workstation_crashes = 1;
  config.migrations = 0;
  config.checkpoints = 3;
  config.wal_bound = 20000;
  ScaleHarness harness(config);
  ScaleResult result = harness.Run();

  for (const Violation& violation : result.violations) {
    ADD_FAILURE() << ViolationClassName(violation.klass) << ": "
                  << violation.detail;
  }
  EXPECT_EQ(result.violations_total, 0u);
  EXPECT_GE(result.checkpoints_done, 3u);
  EXPECT_EQ(result.violations_by_class[static_cast<size_t>(
                ViolationClass::kWalUnbounded)],
            0u);
  EXPECT_LE(result.wal_records_after_last_checkpoint, config.wal_bound);
}

// --- The deterministic short chaos run the CI gate mirrors: ≥8
// designer threads, message loss, 3 rolling node crash/recover cycles,
// a workstation crash, a mid-traffic migration — zero violations.

TEST(ScaleChaosTest, ShortChaosRunHasZeroViolations) {
  uint64_t seed = TestSeed(42);
  ScopedSeedReporter reporter(seed);
  ScaleConfig config;
  config.seed = seed;
  config.server_nodes = 4;
  config.partitions = 2;
  config.workstations = 8;
  config.das = 16;
  config.dovs = 20000;
  config.ops_per_workstation = 250;
  config.loss_probability = 0.05;
  config.crash_cycles = 3;
  config.workstation_crashes = 2;
  config.migrations = 1;
  config.checkpoints = 2;
  ScaleHarness harness(config);
  ScaleResult result = harness.Run();

  for (const Violation& violation : result.violations) {
    ADD_FAILURE() << ViolationClassName(violation.klass) << ": "
                  << violation.detail;
  }
  EXPECT_EQ(result.violations_total, 0u);
  EXPECT_GT(result.acked_commits, 0u);
  EXPECT_GE(result.crash_cycles_done, 3u);
  EXPECT_GE(result.workstation_crashes_done, 1u);
  EXPECT_GE(result.migrations_done, 1u);
  EXPECT_GE(result.checkpoints_done, 2u);
  EXPECT_EQ(result.dovs_generated, config.dovs);
}

}  // namespace
}  // namespace concord::sim
