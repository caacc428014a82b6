// HttpServer: a zero-dependency epoll HTTP/1.1 transport.
//
// Topology:
//
//   acceptor thread ──round-robin──▶ IO thread 0 (epoll loop)
//     accept4 + refuse over cap      IO thread 1 (epoll loop) ...
//
// Each IO thread owns an epoll instance, an eventfd, and the
// connections assigned to it; connections never migrate, so all
// per-connection state (parser, write buffer) is thread-private and
// lock-free. The only cross-thread traffic is the IO queue: the
// acceptor posts new fds, and Responders fired on other threads post
// finished responses, both under one mutex with an eventfd wake.
//
// The handler is invoked on the IO thread with a Responder — a small
// completion handle fired either before the handler returns or later,
// from another thread. A response fired inside the handler (health,
// stats, errors, mutation receipts, and the small in-memory batches
// EnginePool::ServeBatch serves on this thread) completes on the spot:
// Pump writes it and goes on to the next pipelined request, with no
// mailbox, eventfd or epoll interest change. A connection gets at most
// 16 such responses per turn; with more requests buffered it yields to
// the other connections on its loop and resumes from a ready list. A
// handler that hands its Responder on (a batch for a pool worker, a
// path query, a sharded fan-out) returns at once, and the connection is
// parked — EPOLLIN paused, one request in flight per connection, so
// responses can never be reordered — until the Responder posts back.
// So the loop runs only the work a handler chooses to run inline, and
// never waits for a pool worker to pick a request up.
//
// Reads, writes, and accepts are all non-blocking. Short writes park
// the remainder under EPOLLOUT, and until it drains the connection
// reads and dispatches nothing more, so a client that pipelines
// without reading is owed at most one buffered response. Overload
// behavior: beyond max_connections the acceptor refuses (accept +
// immediate close — draining the backlog beats letting SYNs time out),
// and request-level shedding is the service layer's job (HTTP 429 via
// the pool's admission controller).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "util/status.h"

namespace hopi::net {

struct HttpServerOptions {
  /// IPv4 address to bind ("0.0.0.0" for all interfaces).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks; read it back via port().
  uint16_t port = 0;
  /// Epoll loops. One saturates loopback benches; a NIC-facing deploy
  /// wants a few.
  size_t num_io_threads = 1;
  /// Accepted-connection cap; beyond it the acceptor refuses new
  /// connections immediately.
  size_t max_connections = 1024;
  HttpParserLimits parser = {};
};

/// Monotonic counters plus the open-connection gauge.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< over max_connections
  uint64_t connections_closed = 0;
  uint64_t requests = 0;        ///< complete requests handed to the handler
  uint64_t responses = 0;       ///< responses fully serialized into a socket
  uint64_t parse_errors = 0;    ///< requests refused with 4xx/5xx at parse
  uint64_t open_connections = 0;  ///< gauge
};

class HttpServer {
 public:
  /// Completion handle for exactly one request. Copyable (the copy that
  /// reaches an EnginePool callback fires it); Send is thread-safe and
  /// idempotent — the first call wins, later calls are dropped, and a
  /// Send after the connection died or the server stopped is silently
  /// discarded (the client is gone; there is nobody to tell). A Send
  /// made inside the handler, on the IO thread, completes there without
  /// the mailbox.
  class Responder {
   public:
    void Send(HttpResponse response) const;

   private:
    friend class HttpServer;
    struct IoQueue;
    Responder(std::shared_ptr<IoQueue> queue, uint64_t conn_id);
    std::shared_ptr<IoQueue> queue_;
    uint64_t conn_id_ = 0;
    std::shared_ptr<std::atomic<bool>> sent_;
  };

  /// Runs on the IO thread owning the connection. Must not block; fire
  /// the Responder now or hand it to an async completion. Whatever it
  /// runs inline stalls every connection on the loop for as long.
  using Handler = std::function<void(HttpRequest, Responder)>;

  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();  // Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, spawns the acceptor and IO threads. IOError /
  /// InvalidArgument on socket failures; FailedPrecondition if already
  /// started.
  Status Start();

  /// Closes the listener, joins all threads, closes every connection.
  /// In-flight Responders outlive the server safely (their sends are
  /// dropped). Idempotent.
  void Stop();

  /// The bound port (resolves port 0). Valid after Start().
  uint16_t port() const { return bound_port_; }

  ServerStats Stats() const;

 private:
  struct Conn;
  struct IoLoop;

  void AcceptorLoop();
  void IoThreadLoop(IoLoop* loop);
  void HandleReadable(IoLoop* loop, Conn* conn);
  void HandleWritable(IoLoop* loop, Conn* conn);
  /// Serves the buffered requests in order, in a loop: a response the
  /// handler fires inline is written at once and the next request goes.
  /// Stops at a request answered later (reads paused until its
  /// Responder posts back), a parse reject, bytes the socket refused,
  /// or the end of the buffered bytes — or, with bytes still buffered,
  /// after kInlineResponsesPerTurn inline responses: then reads pause
  /// and the connection waits on the loop's ready list for its next
  /// turn, so one deep pipeline cannot hold the loop.
  void Pump(IoLoop* loop, Conn* conn);
  /// A response posted through the mailbox: write it, then Pump.
  void CompleteResponse(IoLoop* loop, Conn* conn, HttpResponse response);
  /// Serializes the awaited response and flushes it. The functions
  /// returning bool return false when they closed the connection.
  bool WriteResponse(IoLoop* loop, Conn* conn, HttpResponse response);
  /// Writes what the socket takes. The rest waits under EPOLLOUT with
  /// reads paused; once it drains, reads resume unless a request is
  /// in flight.
  bool FlushWrites(IoLoop* loop, Conn* conn);
  bool UpdateInterest(IoLoop* loop, Conn* conn, bool want_read,
                      bool want_write);
  void CloseConn(IoLoop* loop, Conn* conn);

  Handler handler_;
  HttpServerOptions options_;

  int listen_fd_ = -1;
  int acceptor_wake_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<IoLoop>> io_loops_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_io_{0};

  // ServerStats counters.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> open_{0};
};

}  // namespace hopi::net
