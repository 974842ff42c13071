// Frame-stream capture and the two replays that time layers the real run
// gives no outside hook into.
//
//  * capture: Network::set_delivery_hook records each delivered frame (src,
//    dst, type, key, rpc id, payload, send and delivery time), up to a cap.
//    Frames are recorded in delivery order, so a capped capture is a prefix
//    in time that is consistent for every destination.
//  * net replay: the captured frames are sent again, in send-time order and
//    with their captured delays, through a fresh Simulator + Network built
//    with the harness's network options, to inert processes. send_bytes
//    (enqueue) and Simulator::run_until (drain) are timed separately.
//  * server replay: for one shard, each key's replica is rebuilt with
//    Protocol::make_server and fed that replica's captured inbound frames in
//    per-destination delivery order; the handler calls are timed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cluster.h"
#include "core/protocol.h"
#include "sim/network.h"

namespace perfbench {

struct Capture {
  struct Rec {
    mwreg::NodeId src = mwreg::kNoNode;
    mwreg::NodeId dst = mwreg::kNoNode;
    mwreg::MsgType type = 0;
    std::uint32_t key = 0;
    std::uint64_t rpc_id = 0;
    mwreg::Time sent = 0;
    mwreg::Time at = 0;
    std::uint32_t off = 0;  ///< payload offset into `bytes`
    std::uint32_t len = 0;
  };
  std::size_t cap = 0;          ///< frames kept (a prefix in delivery order)
  std::uint64_t delivered = 0;  ///< frames the run delivered in total
  std::vector<Rec> frames;
  std::vector<std::uint8_t> bytes;

  /// Install the capturing hook on `net` (call before the run).
  void attach(mwreg::Network& net);
};

/// Layout and engine settings the replays mirror.
struct ReplayShape {
  int servers = 0;        ///< physical server ids [0, servers)
  mwreg::NodeId first_client = 0;
  int clients = 0;        ///< client ids [first_client, first_client+clients)
  mwreg::Network::Options net;
};

struct NetReplay {
  std::uint64_t frames = 0;     ///< frames sent by the replay
  std::uint64_t delivered = 0;  ///< frames the inert processes received
  double enqueue_ns = 0;        ///< total time inside send_bytes
  double drain_ns = 0;          ///< total time inside Simulator::run_until
};
NetReplay replay_net(const Capture& cap, const ReplayShape& shape);

struct ServerReplay {
  std::uint64_t frames = 0;   ///< inbound frames fed to the replicas
  std::uint64_t replies = 0;  ///< frames the rebuilt replicas sent
  std::uint64_t captured_replies = 0;  ///< frames those replicas sent live
  double handler_ns = 0;      ///< total time inside the handler calls
};
/// Replays shard 0 (keys k with k % shards == 0): `key_cfgs[k]` is key k's
/// quorum group as the harness built it.
ServerReplay replay_servers(const Capture& cap, const ReplayShape& shape,
                            const mwreg::Protocol& proto,
                            const std::vector<mwreg::ClusterConfig>& key_cfgs,
                            int shards);

}  // namespace perfbench
