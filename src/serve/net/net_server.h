// The network serving front-end: a poll(2) event loop accepting TCP and
// Unix-domain connections and speaking the length-prefixed JSON protocol
// (serve/net/protocol.h) over them, wrapping a ConcurrentServer. This is
// the layer that turns "q/s on one thread" into the fleet metric: N client
// processes (or hosts) multiplex requests over persistent connections into
// one serving process, each request carrying its own latency budget.
//
// Threading model. ONE I/O thread owns every socket: it polls the
// listeners, the per-connection fds, and a self-wakeup pipe; reads are
// non-blocking and feed per-connection FrameDecoders; complete request
// frames dispatch into ConcurrentServer::AskAsyncInDomain, so parsing,
// planning, execution, and ranking all run on the SERVING POOL, never on
// the I/O thread — a slow query cannot stall accepts or other connections.
// Completion callbacks (worker threads) append the encoded response to the
// connection's locked outbox and tickle the wakeup pipe; the I/O thread
// drains outboxes into per-connection write buffers and flushes them as
// POLLOUT allows. Responses on one connection may therefore leave in
// completion order, not request order — the protocol's `id` correlates.
//
// Deadline propagation: a request's budget_ms becomes a Deadline
// (BudgetToDeadline, protocol.h) at dispatch time, flowing into the same
// Deadline checks the in-process path uses (expired-in-queue drop,
// cooperative cancellation at stage and block boundaries, graceful rank
// degradation).
// Admission control is the ConcurrentServer's: past max_queue,
// AskAsyncInDomain sheds with kOverloaded in O(1) and the client gets
// status "overloaded" — overload degrades by shedding, never by unbounded
// buffering.
//
// Failure containment, per connection:
//   framing violation (zero/oversized frame)  close the connection
//   malformed JSON payload                    error response, stay open
//   peer disconnect with requests in flight   in-flight results are dropped
//                                             at the closed outbox; the
//                                             server and other connections
//                                             are unaffected
#ifndef CQADS_SERVE_NET_NET_SERVER_H_
#define CQADS_SERVE_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket_io.h"
#include "common/status.h"
#include "core/cqads_engine.h"
#include "serve/concurrent_server.h"
#include "serve/net/protocol.h"

namespace cqads::serve::net {

// The socket helpers live in cqads::net (common/); inside
// cqads::serve::net the unqualified name `net` means THIS namespace, so
// pull the fd type in explicitly.
using ::cqads::net::Fd;

class NetServer {
 public:
  struct Options {
    /// Unix-domain listener path; empty = none.
    std::string unix_path;
    /// TCP listener; port < 0 = none, 0 = kernel-assigned (read it back
    /// from tcp_port()). Binds loopback by default — fronting a public
    /// interface is a deployment decision, not a default.
    std::string tcp_host = "127.0.0.1";
    int tcp_port = -1;
    /// The wrapped ConcurrentServer (workers, cache, default budget,
    /// admission bound).
    ConcurrentServer::Options serve;
    /// Per-frame payload cap; a frame above it closes the connection.
    std::uint32_t max_frame_bytes = kMaxFrameBytes;
    /// Accepted connections beyond this are closed immediately (fd-table
    /// protection; 0 = unbounded).
    std::size_t max_connections = 1024;
  };

  /// Wire-level counters (relaxed; monotonic except active_connections).
  struct NetStats {
    std::uint64_t accepted = 0;
    std::uint64_t active_connections = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t protocol_errors = 0;   ///< framing violations (closed)
    std::uint64_t bad_requests = 0;      ///< malformed JSON (answered)
    std::uint64_t disconnects = 0;
    std::uint64_t dropped_responses = 0; ///< completed after peer left
  };

  /// Binds the listeners, spawns the I/O thread, and starts serving the
  /// engine's current snapshot (later snapshot swaps are picked up per
  /// request, exactly like in-process serving). The engine must outlive
  /// the returned server. At least one listener must be configured.
  static Result<std::unique_ptr<NetServer>> Start(
      const core::CqadsEngine* engine, Options options);

  /// Stops accepting, closes every connection, and drains the worker pool
  /// (in-flight requests finish; their responses are dropped).
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  void Stop();

  /// The bound TCP port (resolves port 0); 0 when no TCP listener.
  std::uint16_t tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  ConcurrentServer::Stats stats() const { return server_->stats(); }
  std::string StatsJson() const;
  NetStats net_stats() const;

 private:
  struct Conn;

  NetServer(const core::CqadsEngine* engine, Options options);

  Status Bind();
  void Loop();
  void AcceptAll(int listener_fd);
  /// Reads until EAGAIN; returns false when the connection must close.
  bool ReadConn(const std::shared_ptr<Conn>& conn);
  /// Flushes the write buffer until EAGAIN; false when the peer died.
  bool WriteConn(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn,
                   const std::string& payload);
  /// Queues an encoded response on the connection (thread-safe; drops it
  /// when the connection already closed) and wakes the I/O thread.
  void QueueResponse(const std::shared_ptr<Conn>& conn,
                     const Response& response);
  void CloseConn(int fd);
  void Wake();

  const core::CqadsEngine* engine_;
  Options options_;

  Fd tcp_listener_;
  Fd unix_listener_;
  std::uint16_t tcp_port_ = 0;
  Fd wake_read_;
  Fd wake_write_;

  std::atomic<bool> running_{false};
  std::thread io_thread_;
  /// Owned by the I/O thread between Start and Stop.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> dropped_responses_{0};

  /// Declared LAST: its destructor drains the worker pool, and the draining
  /// requests' completion callbacks touch the counters, connections, and
  /// wake pipe above — all of which must still be alive at that point.
  std::unique_ptr<ConcurrentServer> server_;
};

}  // namespace cqads::serve::net

#endif  // CQADS_SERVE_NET_NET_SERVER_H_
