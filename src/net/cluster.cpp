#include "net/cluster.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace psc::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("net::Cluster: " + what);
}

std::string join_csv(const std::vector<std::uint32_t>& values) {
  std::string out;
  for (const std::uint32_t v : values) {
    if (!out.empty()) out.push_back(',');
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  if (options_.brokers == 0) fail("brokers must be > 0");
  // A dead broker's socket raises EPIPE/ECONNRESET on the survivors, never
  // a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);
  members_.resize(options_.brokers);
  for (const auto& [a, b] : options_.links) {
    if (a >= options_.brokers || b >= options_.brokers || a == b) {
      fail("link endpoint out of range");
    }
    members_[a].neighbors.push_back(b);
    members_[b].neighbors.push_back(a);
  }
  // Brokers forward by reverse path with no duplicate check, so a cycle
  // would circulate a publication forever: the links must form a forest.
  try {
    (void)routing::LinkState(universe());
  } catch (const std::logic_error&) {
    fail("links must form a forest");
  }
}

Cluster::~Cluster() {
  for (Member& member : members_) reap(member);
}

void Cluster::reap(Member& member) noexcept {
  if (member.pid > 0) {
    ::kill(member.pid, SIGKILL);
    int status = 0;
    (void)::waitpid(member.pid, &status, 0);
    member.pid = -1;
  }
  member.conn.reset();
  member.alive = false;
}

void Cluster::spawn(routing::BrokerId id) {
  Member& member = members_[id];
  std::vector<std::uint32_t> ports;
  ports.reserve(members_.size());
  for (const Member& m : members_) ports.push_back(m.port);

  std::vector<std::string> args;
  args.push_back(options_.brokerd_path);
  args.push_back("--id=" + std::to_string(id));
  args.push_back("--listen-fd=" + std::to_string(member.listener.get()));
  args.push_back("--seed=" + std::to_string(options_.seed));
  args.push_back("--policy=" + options_.policy);
  args.push_back("--neighbors=" + join_csv(member.neighbors));
  args.push_back("--ports=" + join_csv(ports));

  const int pid = ::fork();
  if (pid < 0) fail("fork failed");
  if (pid == 0) {
    // Child: keep only OUR listener; every other inherited listener would
    // hold dead brokers' accept queues open forever.
    for (std::size_t other = 0; other < members_.size(); ++other) {
      if (other != id) {
        const int fd = members_[other].listener.get();
        if (fd >= 0) ::close(fd);
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(options_.brokerd_path.c_str(), argv.data());
    // Exec failed: exit hard; the supervisor times out waiting for ready.
    ::_exit(127);
  }
  member.pid = pid;
}

void Cluster::start() {
  if (started_) fail("start called twice");
  started_ = true;
  // Bind every listener before any fork: the accept queues exist before
  // any broker (or the supervisor) dials anything.
  for (Member& member : members_) {
    auto [fd, port] = listen_loopback();
    member.listener = std::move(fd);
    member.port = port;
  }
  for (routing::BrokerId id = 0; id < members_.size(); ++id) spawn(id);
  // The children own the listeners now.
  for (Member& member : members_) member.listener.reset();

  for (Member& member : members_) {
    member.conn = connect_loopback(member.port);
    send_message(member, make_hello(kClientSender));
  }
  // A broker reports ready only when all its peer links are handshaken, so
  // N readies == the whole mesh is up.
  for (Member& member : members_) {
    while (!member.ready) {
      const NetMessage msg = read_message(member);
      if (msg.kind == NetMessage::Kind::kEvent &&
          msg.event == EventKind::kReady) {
        member.ready = true;
      } else if (msg.kind == NetMessage::Kind::kHello) {
        // The broker's own hello on the client connection; version-check.
        if (!handshake_version_ok(msg.version)) {
          fail("broker announced unsupported codec version");
        }
      } else {
        fail("unexpected message while waiting for ready");
      }
    }
  }
}

void Cluster::send_message(Member& member, const NetMessage& msg) {
  if (!member.conn.valid()) fail("send to a dead broker");
  const std::vector<std::uint8_t> framed = encode_frame(msg);
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::write(member.conn.get(), framed.data() + off, framed.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    fail(std::string("write failed: ") + std::strerror(errno));
  }
}

NetMessage Cluster::read_message(Member& member) {
  std::vector<std::uint8_t> payload;
  if (member.reader.next(payload)) return decode_frame(payload);
  if (!member.conn.valid()) fail("read from a dead broker");
  const int budget_ms = static_cast<int>(options_.timeout_s * 1000.0);
  int waited_ms = 0;
  std::uint8_t chunk[64 * 1024];
  while (true) {
    pollfd pfd{member.conn.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail("poll failed");
    }
    if (ready == 0) {
      waited_ms += 100;
      if (waited_ms >= budget_ms) fail("timed out waiting for a broker");
      continue;
    }
    const ssize_t n = ::read(member.conn.get(), chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(std::string("read failed: ") + std::strerror(errno));
    }
    if (n == 0) fail("broker closed its client connection mid-wait");
    member.reader.feed(std::span(chunk, static_cast<std::size_t>(n)));
    if (member.reader.next(payload)) return decode_frame(payload);
  }
}

std::vector<core::SubscriptionId> Cluster::run_op(routing::BrokerId broker,
                                                  NetMessage op) {
  if (broker >= members_.size() || !members_[broker].alive) {
    fail("op routed to a dead broker");
  }
  Member& member = members_[broker];
  op.kind = NetMessage::Kind::kClientOp;
  op.op_id = next_op_id_++;
  send_message(member, op);
  while (true) {
    const NetMessage msg = read_message(member);
    if (msg.kind == NetMessage::Kind::kOpResult && msg.op_id == op.op_id) {
      return msg.ids;
    }
    // Late purge events from a prior kill would have been drained there;
    // anything else here is a protocol error.
    fail("unexpected message while waiting for an op result");
  }
}

void Cluster::subscribe(routing::BrokerId broker,
                        const core::Subscription& sub) {
  NetMessage op;
  op.op = ClientOpKind::kSubscribe;
  op.sub = sub;
  (void)run_op(broker, std::move(op));
}

void Cluster::unsubscribe(routing::BrokerId broker, core::SubscriptionId id) {
  NetMessage op;
  op.op = ClientOpKind::kUnsubscribe;
  op.id = id;
  (void)run_op(broker, std::move(op));
}

std::vector<core::SubscriptionId> Cluster::publish(routing::BrokerId broker,
                                                   const core::Publication& pub) {
  NetMessage op;
  op.op = ClientOpKind::kPublish;
  op.pub = pub;
  op.token = next_token_++;
  return run_op(broker, std::move(op));
}

void Cluster::kill_broker(routing::BrokerId broker) {
  if (broker >= members_.size() || !members_[broker].alive) {
    fail("kill of a dead broker");
  }
  Member& victim = members_[broker];
  ::kill(victim.pid, SIGKILL);
  int status = 0;
  (void)::waitpid(victim.pid, &status, 0);
  victim.pid = -1;
  victim.conn.reset();
  victim.alive = false;

  // Every surviving neighbour sees EOF, purges the routes it learned over
  // the dead link, and reports kPeerDown when its purge cascade quiesced.
  for (const routing::BrokerId neighbor : victim.neighbors) {
    if (!members_[neighbor].alive) continue;
    Member& member = members_[neighbor];
    bool purged = false;
    while (!purged) {
      const NetMessage msg = read_message(member);
      if (msg.kind == NetMessage::Kind::kEvent &&
          msg.event == EventKind::kPeerDown && msg.b == broker) {
        purged = true;
      } else {
        fail("unexpected message while waiting for a purge event");
      }
    }
    // The link died with the broker; forget it on both sides.
    auto& back = members_[neighbor].neighbors;
    back.erase(std::remove(back.begin(), back.end(), broker), back.end());
  }
  victim.neighbors.clear();
}

void Cluster::shutdown() {
  for (Member& member : members_) {
    if (!member.alive || member.pid <= 0) continue;
    NetMessage op;
    op.kind = NetMessage::Kind::kClientOp;
    op.op_id = next_op_id_++;
    op.op = ClientOpKind::kShutdown;
    send_message(member, op);
  }
  for (Member& member : members_) {
    if (member.pid > 0) {
      int status = 0;
      (void)::waitpid(member.pid, &status, 0);
      member.pid = -1;
    }
    member.conn.reset();
    member.alive = false;
  }
}

bool Cluster::is_alive(routing::BrokerId broker) const {
  return broker < members_.size() && members_[broker].alive;
}

routing::MembershipUniverse Cluster::universe() const {
  routing::MembershipUniverse universe;
  universe.brokers = members_.size();
  for (auto [a, b] : options_.links) {
    if (a > b) std::swap(a, b);
    universe.links.emplace_back(a, b);
  }
  return universe;
}

}  // namespace psc::net
