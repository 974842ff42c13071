#include "replay.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "sim/delay_model.h"
#include "sim/simulator.h"
#include "trace.h"

namespace perfbench {

using mwreg::ByteSpan;
using mwreg::Frame;
using mwreg::FrameSpan;
using mwreg::NodeId;

void Capture::attach(mwreg::Network& net) {
  frames.reserve(cap);
  net.set_delivery_hook([this](const Frame& f, mwreg::Time sent,
                               mwreg::Time at) {
    ++delivered;
    if (frames.size() >= cap) return;
    Rec r;
    r.src = f.src;
    r.dst = f.dst;
    r.type = f.type;
    r.key = f.key;
    r.rpc_id = f.rpc_id;
    r.sent = sent;
    r.at = at;
    r.off = static_cast<std::uint32_t>(bytes.size());
    r.len = static_cast<std::uint32_t>(f.payload.len);
    bytes.insert(bytes.end(), f.payload.ptr, f.payload.ptr + f.payload.len);
    frames.push_back(r);
  });
}

namespace {

/// Hands out the captured delays in send order, so every replayed frame
/// lands on the tick it landed on in the real run.
class ReplayDelay final : public mwreg::DelayModel {
 public:
  explicit ReplayDelay(std::vector<mwreg::Duration> delays)
      : delays_(std::move(delays)) {}
  mwreg::Duration sample(NodeId, NodeId, mwreg::Rng&) override {
    return delays_[next_++];
  }

 private:
  std::vector<mwreg::Duration> delays_;
  std::size_t next_ = 0;
};

/// Receives frames and does nothing with them.
class Inert final : public mwreg::Process {
 public:
  Inert(NodeId id, mwreg::Network& net) : Process(id, net) {}
  void on_message(const Frame&) override { ++frames_; }
  void on_deliver_batch(FrameSpan frames) override { frames_ += frames.size(); }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

 private:
  std::uint64_t frames_ = 0;
};

/// The inert stand-ins for one replay: one process per server id and one
/// process at every client id (as the ClientTable is).
struct InertCluster {
  InertCluster(mwreg::Network& net, const ReplayShape& shape) {
    for (int i = 0; i < shape.servers; ++i) {
      servers.push_back(std::make_unique<Inert>(static_cast<NodeId>(i), net));
    }
    clients = std::make_unique<Inert>(shape.first_client, net);
    for (int i = 0; i < shape.clients; ++i) {
      net.attach(shape.first_client + i, *clients);
    }
  }
  [[nodiscard]] std::uint64_t frames() const {
    std::uint64_t n = clients->frames();
    for (const auto& s : servers) n += s->frames();
    return n;
  }
  std::vector<std::unique_ptr<Inert>> servers;
  std::unique_ptr<Inert> clients;
};

std::unique_ptr<mwreg::Network> make_network(mwreg::Simulator& sim,
                                             std::unique_ptr<mwreg::DelayModel> d,
                                             const ReplayShape& shape) {
  auto net = std::make_unique<mwreg::Network>(sim, std::move(d), mwreg::Rng(1),
                                              shape.net);
  // Same pre-sizing as SimHarness: one batch per destination, 64-frame
  // fan-in seeds (every harness here has at least 64 clients).
  net->reserve_coalescing(
      static_cast<std::size_t>(shape.servers + shape.clients), 64, 64);
  return net;
}

}  // namespace

NetReplay replay_net(const Capture& cap, const ReplayShape& shape) {
  const std::vector<Capture::Rec>& fr = cap.frames;
  std::vector<std::size_t> order(fr.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return fr[a].sent < fr[b].sent;
  });
  std::vector<mwreg::Duration> delays;
  delays.reserve(order.size());
  for (const std::size_t i : order) delays.push_back(fr[i].at - fr[i].sent);

  mwreg::Simulator sim;
  auto net = make_network(
      sim, std::make_unique<ReplayDelay>(std::move(delays)), shape);
  InertCluster inert(*net, shape);

  NetReplay out;
  std::size_t i = 0;
  while (i < order.size()) {
    const mwreg::Time t = fr[order[i]].sent;
    const std::int64_t t0 = SpanRecorder::now_ns();
    sim.run_until(t);
    const std::int64_t t1 = SpanRecorder::now_ns();
    for (; i < order.size() && fr[order[i]].sent == t; ++i) {
      const Capture::Rec& r = fr[order[i]];
      net->send_bytes(r.src, r.dst, r.type, r.key, r.rpc_id,
                      ByteSpan(cap.bytes.data() + r.off, r.len));
      ++out.frames;
    }
    const std::int64_t t2 = SpanRecorder::now_ns();
    out.drain_ns += static_cast<double>(t1 - t0);
    out.enqueue_ns += static_cast<double>(t2 - t1);
  }
  const std::int64_t t0 = SpanRecorder::now_ns();
  sim.run();
  out.drain_ns += static_cast<double>(SpanRecorder::now_ns() - t0);
  out.delivered = inert.frames();
  return out;
}

ServerReplay replay_servers(const Capture& cap, const ReplayShape& shape,
                            const mwreg::Protocol& proto,
                            const std::vector<mwreg::ClusterConfig>& key_cfgs,
                            int shards) {
  const int per_group = key_cfgs.front().s();
  mwreg::Simulator sim;
  auto net = make_network(
      sim,
      std::make_unique<mwreg::UniformDelay>(mwreg::kMillisecond,
                                            10 * mwreg::kMillisecond),
      shape);
  // Replies go to inert clients; the servers' own ids are taken by the
  // rebuilt replicas below (each attaches itself; deliveries are fed by
  // hand, never through the network).
  ReplayShape clients_only = shape;
  clients_only.servers = 0;
  InertCluster inert(*net, clients_only);

  // replicas[i][k / shards]: shard 0's server slot i, key k.
  std::vector<std::vector<std::unique_ptr<mwreg::Process>>> replicas(
      static_cast<std::size_t>(per_group));
  for (int i = 0; i < per_group; ++i) {
    for (std::size_t k = 0; k < key_cfgs.size();
         k += static_cast<std::size_t>(shards)) {
      replicas[static_cast<std::size_t>(i)].push_back(
          proto.make_server(static_cast<NodeId>(i), *net, key_cfgs[k]));
    }
  }

  ServerReplay out;
  const std::vector<Capture::Rec>& fr = cap.frames;
  std::vector<Frame> tick;
  std::size_t i = 0;
  while (i < fr.size()) {
    const mwreg::Time at = fr[i].at;
    tick.clear();
    for (; i < fr.size() && fr[i].at == at; ++i) {
      const Capture::Rec& r = fr[i];
      if (r.src >= 0 && r.src < per_group) ++out.captured_replies;
      if (r.dst < 0 || r.dst >= per_group ||
          r.key % static_cast<std::uint32_t>(shards) != 0) {
        continue;
      }
      Frame f;
      f.src = r.src;
      f.dst = r.dst;
      f.type = r.type;
      f.key = r.key;
      f.rpc_id = r.rpc_id;
      f.payload = ByteSpan(cap.bytes.data() + r.off, r.len);
      tick.push_back(f);
    }
    if (tick.empty()) continue;
    sim.run_until(at);  // deliver earlier replies; untimed
    // Destination-major, as the real drain: stable by server, then maximal
    // same-replica runs (what KeyRouter hands each replica).
    std::stable_sort(tick.begin(), tick.end(),
                     [](const Frame& a, const Frame& b) { return a.dst < b.dst; });
    for (std::size_t j = 0; j < tick.size(); ++j) {
      tick[j].bix = static_cast<std::uint32_t>(j);
    }
    std::size_t a = 0;
    while (a < tick.size()) {
      std::size_t b = a + 1;
      while (b < tick.size() && tick[b].dst == tick[a].dst &&
             tick[b].key == tick[a].key) {
        ++b;
      }
      mwreg::Process& rep =
          *replicas[static_cast<std::size_t>(tick[a].dst)]
                   [tick[a].key / static_cast<std::uint32_t>(shards)];
      const std::int64_t t0 = SpanRecorder::now_ns();
      rep.on_deliver_batch(FrameSpan(tick.data() + a, b - a));
      out.handler_ns += static_cast<double>(SpanRecorder::now_ns() - t0);
      out.frames += b - a;
      a = b;
    }
  }
  sim.run();
  out.replies = net->stats().sent;
  return out;
}

}  // namespace perfbench
