#include "serve/net/net_server.h"

#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "common/json.h"
#include "core/ask_types.h"

namespace cqads::serve::net {

using ::cqads::net::Fd;
using ::cqads::net::SetNonBlocking;

/// Per-connection state. The I/O thread owns fd / decoder / writebuf;
/// outbox and closed are shared with completion callbacks under mu. A Conn
/// is held by shared_ptr so a callback completing after the peer vanished
/// still has a (closed) outbox to be dropped at, never a dangling pointer.
struct NetServer::Conn {
  explicit Conn(int fd_in, std::uint32_t max_frame)
      : fd(fd_in), decoder(max_frame) {}

  const int fd;
  FrameDecoder decoder;
  std::string writebuf;  ///< I/O-thread staging, flushed on POLLOUT

  std::mutex mu;
  std::string outbox;  ///< encoded frames queued by callbacks, under mu
  bool closed = false;  ///< under mu; set exactly once by the I/O thread
};

Result<std::unique_ptr<NetServer>> NetServer::Start(
    const core::CqadsEngine* engine, Options options) {
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument(
        "NetServer needs a unix_path or a tcp_port");
  }
  std::unique_ptr<NetServer> server(
      new NetServer(engine, std::move(options)));
  CQADS_RETURN_NOT_OK(server->Bind());
  server->running_.store(true, std::memory_order_release);
  server->io_thread_ = std::thread([raw = server.get()] { raw->Loop(); });
  return server;
}

NetServer::NetServer(const core::CqadsEngine* engine, Options options)
    : engine_(engine),
      options_(std::move(options)),
      server_(std::make_unique<ConcurrentServer>(engine_, options_.serve)) {}

Status NetServer::Bind() {
  if (options_.tcp_port >= 0) {
    auto fd = cqads::net::TcpListen(
        options_.tcp_host, static_cast<std::uint16_t>(options_.tcp_port),
        &tcp_port_);
    if (!fd.ok()) return fd.status();
    tcp_listener_ = std::move(fd).value();
    CQADS_RETURN_NOT_OK(SetNonBlocking(tcp_listener_.get(), true));
  }
  if (!options_.unix_path.empty()) {
    auto fd = cqads::net::UnixListen(options_.unix_path);
    if (!fd.ok()) return fd.status();
    unix_listener_ = std::move(fd).value();
    CQADS_RETURN_NOT_OK(SetNonBlocking(unix_listener_.get(), true));
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);
  CQADS_RETURN_NOT_OK(SetNonBlocking(wake_read_.get(), true));
  CQADS_RETURN_NOT_OK(SetNonBlocking(wake_write_.get(), true));
  return Status::OK();
}

NetServer::~NetServer() { Stop(); }

void NetServer::Stop() {
  running_.store(false, std::memory_order_release);
  if (io_thread_.joinable()) {
    Wake();
    io_thread_.join();
  }
  // Close every connection. Acquiring each mu here means any callback that
  // observed closed == false has already finished queuing (including its
  // wakeup write, done under mu); callbacks arriving later drop their
  // response at the closed flag without touching the fd or the wake pipe —
  // so the member destructors (wake pipe, listeners, then the
  // ConcurrentServer whose teardown drains in-flight requests) are safe in
  // any order after this loop.
  for (auto& [fd, conn] : conns_) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
    }
    ::close(fd);
    disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  conns_.clear();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void NetServer::Wake() {
  if (!wake_write_.valid()) return;
  const char byte = 1;
  // Non-blocking: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_write_.get(), &byte, 1);
}

void NetServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<int> conn_fds;  // parallel to fds entries past the fixed ones
  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    conn_fds.clear();
    const auto poll_in = [&fds](int fd) {
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      fds.push_back(p);
    };
    poll_in(wake_read_.get());
    const std::size_t tcp_index = fds.size();
    if (tcp_listener_.valid()) poll_in(tcp_listener_.get());
    const std::size_t unix_index = fds.size();
    if (unix_listener_.valid()) poll_in(unix_listener_.get());
    const std::size_t first_conn = fds.size();
    for (auto& [fd, conn] : conns_) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->outbox.empty()) {
          conn->writebuf.append(conn->outbox);
          conn->outbox.clear();
        }
      }
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      if (!conn->writebuf.empty()) p.events |= POLLOUT;
      fds.push_back(p);
      conn_fds.push_back(fd);
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; daemon exits its loop
    }
    if (!running_.load(std::memory_order_acquire)) break;

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_read_.get(), drain, sizeof(drain)) > 0) {
      }
    }
    if (tcp_listener_.valid() && (fds[tcp_index].revents & POLLIN) != 0) {
      AcceptAll(tcp_listener_.get());
    }
    if (unix_listener_.valid() && (fds[unix_index].revents & POLLIN) != 0) {
      AcceptAll(unix_listener_.get());
    }
    for (std::size_t i = first_conn; i < fds.size(); ++i) {
      const int fd = conn_fds[i - first_conn];
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn> conn = it->second;
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      bool alive = true;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        alive = ReadConn(conn);
      }
      if (alive && (revents & POLLOUT) != 0) {
        alive = WriteConn(conn);
      }
      if (!alive) CloseConn(fd);
    }
  }
}

void NetServer::AcceptAll(int listener_fd) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error: try next poll round
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd, true).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    // Best effort; meaningless (and harmless) on Unix-domain sockets.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.emplace(fd,
                   std::make_shared<Conn>(fd, options_.max_frame_bytes));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool NetServer::ReadConn(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    if (n == 0) return false;  // peer closed
    conn->decoder.Feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    while (true) {
      const FrameDecoder::Next next = conn->decoder.Pop(&payload);
      if (next == FrameDecoder::Next::kFrame) {
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        HandleFrame(conn, payload);
        continue;
      }
      if (next == FrameDecoder::Next::kError) {
        // The byte stream cannot be resynchronized after a framing
        // violation; drop the connection.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      break;  // kNeedMore
    }
    if (static_cast<std::size_t>(n) < sizeof(buf)) {
      // Likely drained; poll will tell us about the rest.
      return true;
    }
  }
}

bool NetServer::WriteConn(const std::shared_ptr<Conn>& conn) {
  while (!conn->writebuf.empty()) {
    const ssize_t n = ::send(conn->fd, conn->writebuf.data(),
                             conn->writebuf.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn->writebuf.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

void NetServer::QueueResponse(const std::shared_ptr<Conn>& conn,
                              const Response& response) {
  const std::string payload = EncodeResponse(response);
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) {
    dropped_responses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  AppendFrame(payload, &conn->outbox);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  // Wakeup inside the lock: Stop()'s close loop acquires every mu, so once
  // it finishes, no late callback can touch the (soon-closed) wake pipe.
  Wake();
}

namespace {

Response MakeAskResponse(std::uint64_t id,
                         const Result<core::AskResult>& result) {
  Response response;
  response.id = id;
  if (result.ok()) {
    response.status = WireStatusName(StatusCode::kOk);
    response.degraded = result.value().degraded;
    response.domain = result.value().domain;
    response.canonical = core::CanonicalAskResultString(result.value());
  } else {
    response.status = WireStatusName(result.status().code());
    response.error = result.status().message();
  }
  return response;
}

}  // namespace

void NetServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                            const std::string& payload) {
  auto decoded = DecodeRequest(payload);
  if (!decoded.ok()) {
    // The framing was sound, so the connection survives; only this
    // request fails. id 0: an unparseable request has no usable id.
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.id = 0;
    response.status = WireStatusName(decoded.status().code());
    response.error = decoded.status().message();
    QueueResponse(conn, response);
    return;
  }
  const Request& request = decoded.value();
  if (request.method == "ping") {
    Response response;
    response.id = request.id;
    QueueResponse(conn, response);
    return;
  }
  if (request.method == "statsz") {
    Response response;
    response.id = request.id;
    response.stats_json = StatsJson();
    QueueResponse(conn, response);
    return;
  }
  if (request.method == "ask" || request.method == "ask_in_domain") {
    Response bad;
    bad.id = request.id;
    bad.status = WireStatusName(StatusCode::kInvalidArgument);
    if (request.question.empty()) {
      bad.error = "empty question";
      QueueResponse(conn, bad);
      return;
    }
    if (request.question.size() > kMaxQuestionBytes) {
      bad.error = "question longer than " +
                  std::to_string(kMaxQuestionBytes) + " bytes";
      QueueResponse(conn, bad);
      return;
    }
    if (request.method == "ask_in_domain" && request.domain.empty()) {
      bad.error = "ask_in_domain without a domain";
      QueueResponse(conn, bad);
      return;
    }
    const std::string domain =
        request.method == "ask" ? std::string() : request.domain;
    const std::uint64_t id = request.id;
    // The callback runs on a serving worker (or inline right here when the
    // request is shed). conn is a shared_ptr: a peer that disconnects
    // before completion leaves a closed outbox, not a dangling pointer.
    server_->AskAsyncInDomain(
        domain, request.question, BudgetToDeadline(request.budget_ms),
        [this, conn, id](Result<core::AskResult> result) {
          QueueResponse(conn, MakeAskResponse(id, result));
        });
    return;
  }
  Response response;
  response.id = request.id;
  response.status = WireStatusName(StatusCode::kInvalidArgument);
  response.error = "unknown method: " + request.method;
  QueueResponse(conn, response);
}

void NetServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->mu);
    it->second->closed = true;
  }
  conns_.erase(it);
  ::close(fd);
  disconnects_.fetch_add(1, std::memory_order_relaxed);
}

NetServer::NetStats NetServer::net_stats() const {
  NetStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.active_connections =
      s.accepted - disconnects_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.dropped_responses =
      dropped_responses_.load(std::memory_order_relaxed);
  return s;
}

std::string NetServer::StatsJson() const {
  // Server-side counters first (they parse back to a JsonValue), then the
  // wire-level block nested under "net".
  auto base = JsonValue::Parse(server_->StatsJson());
  JsonValue v = base.ok() ? std::move(base).value() : JsonValue::Object();
  const NetStats s = net_stats();
  JsonValue net = JsonValue::Object();
  auto num = [](std::uint64_t n) {
    return JsonValue::Number(static_cast<double>(n));
  };
  net.Set("accepted", num(s.accepted));
  net.Set("active_connections", num(s.active_connections));
  net.Set("frames_in", num(s.frames_in));
  net.Set("frames_out", num(s.frames_out));
  net.Set("protocol_errors", num(s.protocol_errors));
  net.Set("bad_requests", num(s.bad_requests));
  net.Set("disconnects", num(s.disconnects));
  net.Set("dropped_responses", num(s.dropped_responses));
  v.Set("net", std::move(net));
  return v.Dump();
}

}  // namespace cqads::serve::net
