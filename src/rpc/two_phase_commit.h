#ifndef CONCORD_RPC_TWO_PHASE_COMMIT_H_
#define CONCORD_RPC_TWO_PHASE_COMMIT_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "rpc/network.h"

namespace concord::rpc {

/// A resource manager taking part in a distributed commit. In CONCORD
/// the participants are the client-TM and server-TM halves of a DOP
/// (checkout/checkin, Begin-of-DOP, End-of-DOP "have to accomplish a
/// two-phase-commit protocol for all their critical interactions",
/// Sect. 5.2).
class TwoPcParticipant {
 public:
  virtual ~TwoPcParticipant() = default;
  /// Machine the participant runs on (determines message cost).
  virtual NodeId node() const = 0;
  /// Phase 1: vote. True = prepared (can commit), false = vote abort.
  virtual bool Prepare(TxnId txn) = 0;
  /// Phase 2 outcomes; must not fail once prepared.
  virtual void Commit(TxnId txn) = 0;
  virtual void Abort(TxnId txn) = 0;
  /// Read-only participants can be excluded from phase 2 (the
  /// "read-only optimization" of [SBCM93], mentioned in Sect. 6).
  virtual bool IsReadOnly(TxnId) const { return false; }
};

struct TwoPcStats {
  uint64_t protocols_run = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t messages = 0;
  uint64_t read_only_skips = 0;
  uint64_t local_fast_paths = 0;
  /// Interactions whose operations spanned more than one server node
  /// (true multi-participant 2PC: phase-1 envelopes + Decide fan-out),
  /// vs. the single-node degenerate case that folds both legs into one
  /// envelope.
  uint64_t multi_node_protocols = 0;
  /// Participant envelopes shipped by the multi-node path (phase 1 and
  /// phase 2 combined) — each is one server round trip.
  uint64_t participant_envelopes = 0;
  /// Commit interactions whose outcome the coordinator could not learn:
  /// the envelope (or a commit decision) went out, and no reply came
  /// back within the transport's retries. The server may have applied
  /// it, so these count as neither committed nor aborted.
  uint64_t in_doubt = 0;
};

/// Presumed-abort two-phase commit coordinator with the two
/// optimizations the paper's Sect. 6 calls out:
///  - read-only participants vote READ-ONLY in phase 1 and drop out of
///    phase 2;
///  - participants co-located with the coordinator use the main-memory
///    fast path (no LAN messages, only local latency).
class TwoPhaseCommitCoordinator {
 public:
  TwoPhaseCommitCoordinator(Network* network, NodeId coordinator_node)
      : network_(network), node_(coordinator_node) {}

  void set_read_only_optimization(bool on) { read_only_opt_ = on; }
  void set_local_optimization(bool on) { local_opt_ = on; }

  /// Runs the full protocol. Returns true if the transaction committed,
  /// false if it aborted (any NO vote or unreachable participant).
  /// Message accounting goes through the Network.
  Result<bool> Execute(TxnId txn,
                       const std::vector<TwoPcParticipant*>& participants);

  const TwoPcStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TwoPcStats{}; }

 private:
  /// One round trip coordinator <-> participant. Returns false if the
  /// participant is unreachable.
  bool RoundTrip(NodeId participant_node);

  Network* network_;
  NodeId node_;
  bool read_only_opt_ = true;
  bool local_opt_ = true;
  TwoPcStats stats_;
};

}  // namespace concord::rpc

#endif  // CONCORD_RPC_TWO_PHASE_COMMIT_H_
