#pragma once
// The benchmark's workloads.  Each builds its rig (timed for setup_s),
// measures for Options::seconds, checks its oracles and fills a Report.

#include "common.hpp"
#include "report.hpp"

namespace perfbench {

// All three run in virtual time on the same lossy simulated WAN (kWanLink),
// so CPU speed and machine load cannot move their end-to-end figures.

/// Closed loop: 3 caller threads, each with its own client dapplet and
/// RpcClient, call `echo` with 64 B arguments on one RpcServer; default
/// DappletConfig apart from the clock (threaded runtime, text codec).
Report runWanRpc(const Options& options);

/// One publisher outbox bound to 8 subscriber inboxes, a shared 2-loop
/// Reactor, the binary codec and Inbox::onMessage handlers.  Closed loop
/// with at most 4 messages not yet handled by all 8; payloads are a seeded
/// 3:1 mix of 64 B and 4 KiB.
Report runWanFanout(const Options& options);

/// An initiator and 8 members on distinct hosts run sessions back to back — establish a ring, stream
/// paced ring messages, a token phase on two token networks, await
/// completion, terminate.
Report runWanSession(const Options& options);

}  // namespace perfbench
