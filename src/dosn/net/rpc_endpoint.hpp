// Shared request/response endpoint on top of sim::Network — the one RPC
// substrate under every overlay (Kademlia, flooding, super-peer, federation,
// replication, gossip anti-entropy). It owns what each overlay used to
// hand-roll separately:
//
//  - rpcId allocation (globally unique: high bits are the node address, so
//    ids can double as flood/query identifiers deduplicated across nodes);
//  - the pending-call map. A pending entry survives retransmissions, so a
//    late reply to an earlier attempt still completes the call;
//  - single-shot and retry-with-backoff timeout handling via the call's
//    RetryPolicy, its only retry budget;
//  - DosnError containment: a corrupted payload that makes a handler or
//    observer throw is dropped, never propagated;
//  - uniform observability into the network's attached Metrics, one
//    counter family per message type:
//      rpc.<type>.sent / .retries / .timeouts / .completed / .failed
//    for calls (keyed by the request or open-call type),
//      rpc.<replyType>.orphans
//    for replies that find no pending call (late or duplicated), plus a
//    per-type round-trip latency histogram rpc.<type>.rtt_ms;
//  - opt-in per-destination adaptivity (CallOptions::adaptiveTimeout): a
//    PeerStateTable keys an RFC 6298-style RttEstimator and an
//    AdaptiveRetryPolicy by destination, so each peer earns its own timeout
//    and a retry budget that grows from the call's attempts with the peer's
//    timeout rate, instead of fleet-global constants. Samples export
//    rpc.rtt.<type>.{srtt,rttvar,timeout} gauges and a
//    rpc.rtt.<type>.samples counter. With the flag off (the default) the
//    fixed-timeout path is byte-identical to the pre-adaptive endpoint.
//
// Two correlation styles cover all six layers:
//
//  - call(): a paired RPC. The request is framed as `u64 rpcId | body`; any
//    message on a registered reply channel whose leading rpcId matches
//    completes it (the responder need not be the node called — super-peer
//    fan-outs answer from third parties). Timeouts retransmit per the
//    RetryPolicy and finally fail the call exactly once.
//  - openCall(): a correlation slot for multi-hop operations (flood search,
//    super-peer query->owner->fetch chains). The overlay sends its own probe
//    messages and completes the slot explicitly via complete(); the endpoint
//    owns the single fixed overall deadline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dosn/net/retry.hpp"
#include "dosn/net/rtt.hpp"
#include "dosn/sim/flat_map.hpp"
#include "dosn/sim/message_type.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/util/bytes.hpp"

namespace dosn::net {

using RpcId = std::uint64_t;

struct CallOptions {
  sim::SimTime timeout = 500 * sim::kMillisecond;
  /// The call's retry budget; attempts=1 preserves classic single-shot
  /// behavior. Adaptive calls keep its backoff shape and use its attempts as
  /// the floor of the destination's budget.
  RetryPolicy retry{};
  /// Opt-in per-destination adaptivity (RFC 6298 semantics, see net/rtt.hpp):
  /// each attempt's timeout comes from the destination's RttEstimator
  /// (`timeout` above is only the pre-sample fallback), the attempt budget
  /// from the destination's own AdaptiveRetryPolicy (at least
  /// `retry.attempts`, growing with its timeout rate up to
  /// AdaptiveRetryPolicy::kMaxAttempts), and completions answered on their
  /// first attempt feed the estimator (Karn's rule: retransmitted calls
  /// never do). Off by default: the classic fixed-timeout path is untouched.
  bool adaptiveTimeout = false;
};

class RpcEndpoint {
 public:
  /// Completion of a call: ok=true with the reply body (after the rpcId for
  /// paired calls, verbatim for complete()), or ok=false on final timeout.
  using ReplyCallback = std::function<void(bool ok, util::BytesView reply)>;
  /// An incoming paired request: `body` is the payload after the rpcId;
  /// answer it with reply(from, <replyType>, rpcId, ...).
  using RequestHandler =
      std::function<void(sim::NodeAddr from, util::BytesView body, RpcId rpcId)>;
  /// An incoming one-way message (flood forwards, gossip pushes, registers).
  using MessageHandler =
      std::function<void(sim::NodeAddr from, util::BytesView payload)>;
  /// Inspects every reply on a channel before correlation (late and duplicate
  /// replies included — Kademlia refreshes routing contacts this way). If the
  /// observer throws a DosnError the reply is dropped and the call stays
  /// pending, so observers double as frame validators.
  using ReplyObserver =
      std::function<void(sim::NodeAddr from, util::BytesView body)>;

  /// Registers a fresh node on the network and claims its handler.
  explicit RpcEndpoint(sim::Network& network);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  sim::NodeAddr addr() const { return addr_; }
  sim::Network& network() { return network_; }

  // --- server side ---
  // Types are interned sim::MessageType handles; string spellings convert
  // implicitly (interning once), and hot paths dispatch on the dense id.
  void onRequest(sim::MessageType type, RequestHandler handler);
  void onMessage(sim::MessageType type, MessageHandler handler);
  /// Frames and sends `body` as the reply to `rpcId`.
  void reply(sim::NodeAddr to, sim::MessageType replyType, RpcId rpcId,
             util::BytesView body);

  // --- client side ---
  /// Marks `type` as a reply channel: incoming messages of this type are
  /// parsed as `u64 rpcId | body` and complete the matching pending call.
  void addReplyChannel(sim::MessageType type);
  void setReplyObserver(sim::MessageType type, ReplyObserver observer);

  /// Starts a paired RPC to `to`. The wire frame is `u64 rpcId | body`.
  RpcId call(sim::NodeAddr to, sim::MessageType type, util::BytesView body,
             const CallOptions& options, ReplyCallback onReply);

  /// Opens a correlation slot with a single overall deadline and no
  /// retransmission. `opType` is the metrics name (e.g. "flood.search");
  /// `tag` is opaque per-call context readable back via tag() (super-peer
  /// chains stash the searched key there).
  RpcId openCall(sim::MessageType opType, sim::SimTime timeout,
                 util::Bytes tag, ReplyCallback onReply);
  /// Completes a pending call with a validated payload; returns false if the
  /// call is no longer pending (timed out, duplicate completion).
  bool complete(RpcId id, util::BytesView payload);
  /// The tag attached at openCall, or nullptr if the call is not pending.
  const util::Bytes* tag(RpcId id) const;

  /// Fire-and-forget message from this endpoint's address.
  void send(sim::NodeAddr to, sim::MessageType type, util::Bytes payload);

  PeerStateTable& peerStates() { return peers_; }
  const PeerStateTable& peerStates() const { return peers_; }

  // Retries and failures of this endpoint's calls, for per-node attribution;
  // the network-wide counts are rpc.<type>.retries / .failed.
  std::uint64_t retries() const { return state_->retries; }
  std::uint64_t failures() const { return state_->failures; }
  std::size_t pendingCalls() const { return state_->pending.size(); }

 private:
  struct PendingCall {
    sim::MessageType type;       // request type (metrics key)
    ReplyCallback onReply;
    sim::SimTime startedAt = 0;
    util::Bytes tag;             // openCall context
    sim::NodeAddr peer = sim::kNoAddr;  // estimator key for adaptive calls
    bool adaptive = false;
    bool retransmitted = false;  // Karn's rule: ambiguous once retransmitted
  };

  // Shared with every closure scheduled on the simulator so timeouts fired
  // after the endpoint is destroyed find the state gone instead of dangling.
  // RpcIds are (addr << 32 | counter), never ~0, so AddrMap's reserved key
  // is safe here too.
  struct State {
    sim::AddrMap<PendingCall> pending;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;
  };

  /// The per-type metric names, built once per type on first use so the
  /// hot path never concatenates strings ("rpc.<type>.sent" et al.).
  struct TypeMetricNames {
    std::string sent, retries, timeouts, completed, failed, orphans;
    std::string rttMs, rttSamples, rttSrtt, rttRttvar, rttTimeout;
  };

  void handleMessage(sim::NodeAddr from, const sim::Message& msg);
  void handleReply(sim::NodeAddr from, const sim::Message& msg);
  void transmit(sim::NodeAddr to, sim::MessageType type, const util::Bytes& frame,
                RpcId id, std::size_t attempt, sim::SimTime timeout,
                const RetryPolicy& retry, bool adaptive);
  void finish(RpcId id, bool ok, util::BytesView payload);
  TypeMetricNames& metricNames(sim::MessageType type);
  void bump(sim::MessageType type, std::string TypeMetricNames::* event);
  /// Feeds a Karn-valid sample to `peer`'s estimator and exports the
  /// rpc.rtt.<type>.{srtt,rttvar,timeout} gauges + sample counter.
  void recordRttSample(sim::NodeAddr peer, sim::MessageType type,
                       sim::SimTime rtt);

  sim::Network& network_;
  sim::NodeAddr addr_;
  std::uint64_t statusToken_ = 0;
  std::shared_ptr<State> state_;
  std::uint32_t nextCallId_ = 1;
  PeerStateTable peers_;
  // Dispatch tables keyed by interned id; handler lists are deques so a
  // handler registering further handlers never invalidates the one running.
  // Endpoints register a handful of types, so lookup is a linear scan.
  std::deque<std::pair<sim::MessageTypeId, RequestHandler>> requestHandlers_;
  std::deque<std::pair<sim::MessageTypeId, MessageHandler>> messageHandlers_;
  std::deque<std::pair<sim::MessageTypeId, ReplyObserver>> replyObservers_;
  std::vector<sim::MessageTypeId> replyChannels_;
  std::vector<std::unique_ptr<TypeMetricNames>> typeMetricNames_;  // by id
};

}  // namespace dosn::net
