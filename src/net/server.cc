#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "net/wire.h"

namespace hopi::net {

namespace {

constexpr uint64_t kWakeConnId = 0;  // epoll user-data id of the eventfd
constexpr int kListenBacklog = 512;
/// Responses one Pump call completes inline before the connection
/// yields the loop to the others (see Pump). An inline /v1/batch of
/// EnginePool::kMaxInlinePairs pairs costs the loop ~30 µs on a 4-vCPU
/// host, so one client's turn stays near half a millisecond.
constexpr size_t kInlineResponsesPerTurn = 16;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Where Pump catches a response the handler fires before it returns.
/// Pump points the IO thread's slot at the connection it dispatches for
/// the length of the handler call; a Send on any other thread, or for
/// any other connection, finds no match and takes the mailbox.
struct InlineSlot {
  const void* queue = nullptr;  // the connection's IO queue
  uint64_t conn_id = 0;
  std::optional<HttpResponse> response;
};

thread_local InlineSlot* t_inline_slot = nullptr;

}  // namespace

// ---- cross-thread mailbox ----

// Shared between one IO thread and everything that may post to it (the
// acceptor, Responders riding inside EnginePool callbacks). Responders
// hold it by shared_ptr so a completion that arrives after Stop() finds
// `stopped` set and is dropped without touching freed state.
struct HttpServer::Responder::IoQueue {
  std::mutex mu;
  bool stopped = false;                  // guarded by mu
  std::vector<int> new_fds;              // from the acceptor
  std::vector<std::pair<uint64_t, HttpResponse>> completions;
  int wake_fd = -1;  // eventfd; owned, closed with the queue

  ~IoQueue() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void Wake() {
    uint64_t one = 1;
    // Best-effort: EAGAIN means the counter is already hot, which is a
    // wake-up in itself.
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }
};

// ---- per-connection state (touched only by the owning IO thread) ----

struct HttpServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  HttpParser parser;
  std::string out;        // serialized bytes not yet written
  size_t out_off = 0;
  bool awaiting = false;  // a request is with the handler; reads paused
  bool keep_alive_after_response = true;
  bool close_after_write = false;
  bool want_read = true;   // current epoll interest
  bool want_write = false;

  explicit Conn(HttpParserLimits limits) : parser(limits) {}
};

struct HttpServer::IoLoop {
  int epoll_fd = -1;
  std::shared_ptr<Responder::IoQueue> queue;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  /// Connections whose Pump used up its turn with requests still
  /// buffered, reads paused: pumped again once every connection with an
  /// event has had its turn. `pumping` is the list being served.
  std::vector<uint64_t> ready;
  std::vector<uint64_t> pumping;
  std::thread thread;

  ~IoLoop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

// ---- Responder ----

HttpServer::Responder::Responder(std::shared_ptr<IoQueue> queue,
                                 uint64_t conn_id)
    : queue_(std::move(queue)),
      conn_id_(conn_id),
      sent_(std::make_shared<std::atomic<bool>>(false)) {}

void HttpServer::Responder::Send(HttpResponse response) const {
  if (sent_->exchange(true)) return;  // first Send wins
  InlineSlot* slot = t_inline_slot;
  if (slot != nullptr && slot->queue == queue_.get() &&
      slot->conn_id == conn_id_) {
    // Fired inside the handler on the connection's own IO thread: Pump
    // writes it the moment the handler returns.
    slot->response = std::move(response);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_->mu);
    if (queue_->stopped) return;
    queue_->completions.emplace_back(conn_id_, std::move(response));
  }
  queue_->Wake();
}

// ---- lifecycle ----

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  if (options_.num_io_threads == 0) options_.num_io_threads = 1;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address \"" +
                                   options_.bind_address + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Errno("bind " + options_.bind_address + ":" +
                          std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    Status status = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  bound_port_ = ntohs(bound.sin_port);

  acceptor_wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (acceptor_wake_fd_ < 0) {
    Status status = Errno("eventfd");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  io_loops_.reserve(options_.num_io_threads);
  for (size_t i = 0; i < options_.num_io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->queue = std::make_shared<Responder::IoQueue>();
    loop->queue->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->queue->wake_fd < 0) {
      Status status = Errno("epoll_create1/eventfd");
      io_loops_.push_back(std::move(loop));  // let Stop() clean up
      Stop();
      return status;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeConnId;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->queue->wake_fd, &ev) <
        0) {
      Status status = Errno("epoll_ctl(wake)");
      io_loops_.push_back(std::move(loop));
      Stop();
      return status;
    }
    io_loops_.push_back(std::move(loop));
  }
  for (auto& loop : io_loops_) {
    IoLoop* raw = loop.get();
    loop->thread = std::thread([this, raw] { IoThreadLoop(raw); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) {
    // A second caller (or the destructor after an explicit Stop) just
    // waits for the first to have finished joining.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (acceptor_wake_fd_ >= 0) {
    uint64_t bump = 1;
    [[maybe_unused]] ssize_t n =
        ::write(acceptor_wake_fd_, &bump, sizeof(bump));
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (acceptor_wake_fd_ >= 0) {
    ::close(acceptor_wake_fd_);
    acceptor_wake_fd_ = -1;
  }
  for (auto& loop : io_loops_) {
    if (loop->queue != nullptr) {
      {
        std::lock_guard<std::mutex> lock(loop->queue->mu);
        loop->queue->stopped = true;
      }
      loop->queue->Wake();
    }
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Queues (and their eventfds) stay alive as long as any Responder
  // still holds them; stray fds posted after `stopped` are closed by
  // the poster.
  io_loops_.clear();
}

ServerStats HttpServer::Stats() const {
  ServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.connections_closed = closed_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  stats.open_connections = open_.load(std::memory_order_relaxed);
  return stats;
}

// ---- acceptor ----

void HttpServer::AcceptorLoop() {
  pollfd fds[2];
  fds[0] = {listen_fd_, POLLIN, 0};
  fds[1] = {acceptor_wake_fd_, POLLIN, 0};
  while (!stopping_.load(std::memory_order_acquire)) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // woken for shutdown
    while (true) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN: drained; anything else: retry on poll
      if (open_.load(std::memory_order_relaxed) >= options_.max_connections) {
        // Refuse over capacity: accepting and closing drains the SYN
        // backlog so clients see a prompt reset, not a hung handshake.
        refused_.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      open_.fetch_add(1, std::memory_order_relaxed);
      size_t target =
          next_io_.fetch_add(1, std::memory_order_relaxed) % io_loops_.size();
      auto& queue = io_loops_[target]->queue;
      bool delivered = false;
      {
        std::lock_guard<std::mutex> lock(queue->mu);
        if (!queue->stopped) {
          queue->new_fds.push_back(fd);
          delivered = true;
        }
      }
      if (delivered) {
        queue->Wake();
      } else {
        ::close(fd);
        open_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
}

// ---- IO loop ----

void HttpServer::IoThreadLoop(IoLoop* loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool running = true;
  while (running) {
    // Connections waiting for another turn: poll, do not sleep.
    int ready = ::epoll_wait(loop->epoll_fd, events, kMaxEvents,
                             loop->ready.empty() ? -1 : 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      uint64_t id = events[i].data.u64;
      if (id == kWakeConnId) {
        // Drain the eventfd, then the mailbox. A (non-semaphore) eventfd
        // read returns and zeroes the whole counter, so one read does.
        uint64_t counter = 0;
        [[maybe_unused]] ssize_t n =
            ::read(loop->queue->wake_fd, &counter, sizeof(counter));
        std::vector<int> new_fds;
        std::vector<std::pair<uint64_t, HttpResponse>> completions;
        bool stopped = false;
        {
          std::lock_guard<std::mutex> lock(loop->queue->mu);
          new_fds.swap(loop->queue->new_fds);
          completions.swap(loop->queue->completions);
          stopped = loop->queue->stopped;
        }
        for (int fd : new_fds) {
          if (stopped) {
            ::close(fd);
            open_.fetch_sub(1, std::memory_order_relaxed);
            continue;
          }
          auto conn = std::make_unique<Conn>(options_.parser);
          conn->fd = fd;
          conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u64 = conn->id;
          if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
            ::close(fd);
            open_.fetch_sub(1, std::memory_order_relaxed);
            continue;
          }
          loop->conns.emplace(conn->id, std::move(conn));
        }
        for (auto& [conn_id, response] : completions) {
          auto it = loop->conns.find(conn_id);
          // Stale completion (connection died first): drop.
          if (it == loop->conns.end()) continue;
          CompleteResponse(loop, it->second.get(), std::move(response));
        }
        if (stopped) running = false;
        continue;
      }
      auto it = loop->conns.find(id);
      if (it == loop->conns.end()) continue;  // closed earlier this batch
      Conn* conn = it->second.get();
      uint32_t mask = events[i].events;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0 && (mask & EPOLLIN) == 0) {
        CloseConn(loop, conn);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) {
        HandleWritable(loop, conn);
        if (loop->conns.find(id) == loop->conns.end()) continue;
      }
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        HandleReadable(loop, conn);
      }
    }
    loop->pumping.swap(loop->ready);
    for (uint64_t id : loop->pumping) {
      auto it = loop->conns.find(id);
      if (it != loop->conns.end()) Pump(loop, it->second.get());
    }
    loop->pumping.clear();
  }
  for (auto& [id, conn] : loop->conns) {
    ::close(conn->fd);
    closed_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_sub(1, std::memory_order_relaxed);
  }
  loop->conns.clear();
}

void HttpServer::HandleReadable(IoLoop* loop, Conn* conn) {
  char buf[16384];
  while (true) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;  // drained
      continue;
    }
    if (n == 0) {  // EOF — peer is gone, even mid-request
      CloseConn(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(loop, conn);
    return;
  }
  Pump(loop, conn);
}

void HttpServer::Pump(IoLoop* loop, Conn* conn) {
  // A loop, not recursion: every response the handler completes inline
  // lets the next pipelined request go at once, and a client may
  // pipeline thousands.
  for (size_t served = 0; !conn->awaiting;) {
    // Bytes the socket refused (FlushWrites paused reads for them): read
    // and dispatch nothing more until HandleWritable drains them, so a
    // client that pipelines without reading cannot make the server
    // buffer its answers.
    if (!conn->out.empty()) return;
    if (served == kInlineResponsesPerTurn && conn->parser.BufferedBytes() > 0) {
      // Turn used up: the loop's other connections go first, and this
      // one carries on from the ready list. Reads pause meanwhile, so
      // what it has buffered cannot grow.
      if (UpdateInterest(loop, conn, /*want_read=*/false, conn->want_write)) {
        loop->ready.push_back(conn->id);
      }
      return;
    }
    HttpRequest request;
    HttpError error;
    switch (conn->parser.Next(&request, &error)) {
      case HttpParser::Step::kNeedMore:
        if (conn->parser.TakeContinueNeeded()) {
          conn->out += "HTTP/1.1 100 Continue\r\n\r\n";
          if (!FlushWrites(loop, conn) || !conn->out.empty()) return;
        }
        // Reads may still be paused from the last request.
        UpdateInterest(loop, conn, /*want_read=*/true, conn->want_write);
        return;
      case HttpParser::Step::kRequest: {
        if (conn->parser.TakeContinueNeeded()) {
          // The body raced in with the headers; the interim response is
          // still owed (and must precede the final one).
          conn->out += "HTTP/1.1 100 Continue\r\n\r\n";
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        conn->awaiting = true;
        conn->keep_alive_after_response = request.keep_alive;
        InlineSlot slot{loop->queue.get(), conn->id, std::nullopt};
        InlineSlot* outer = std::exchange(t_inline_slot, &slot);
        handler_(std::move(request), Responder(loop->queue, conn->id));
        t_inline_slot = outer;
        if (!slot.response.has_value()) {
          // Answered later, from another thread: park the connection,
          // reads paused, until its Responder posts back.
          UpdateInterest(loop, conn, /*want_read=*/false, conn->want_write);
          return;
        }
        if (!WriteResponse(loop, conn, std::move(*slot.response))) return;
        ++served;
        break;
      }
      case HttpParser::Step::kError: {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        HttpResponse response;
        response.status = error.http_status;
        response.body = JsonWire::SerializeError(error.status);
        response.close = true;
        conn->close_after_write = true;
        conn->out += SerializeResponse(response);
        responses_.fetch_add(1, std::memory_order_relaxed);
        FlushWrites(loop, conn);
        return;
      }
    }
  }
}

bool HttpServer::WriteResponse(IoLoop* loop, Conn* conn,
                               HttpResponse response) {
  conn->awaiting = false;
  if (!conn->keep_alive_after_response) response.close = true;
  if (response.close) conn->close_after_write = true;
  conn->out += SerializeResponse(response);
  responses_.fetch_add(1, std::memory_order_relaxed);
  return FlushWrites(loop, conn);
}

void HttpServer::CompleteResponse(IoLoop* loop, Conn* conn,
                                  HttpResponse response) {
  if (!conn->awaiting) return;  // defensive: unexpected double completion
  if (!WriteResponse(loop, conn, std::move(response))) return;  // closed
  // Pipelined bytes may already be buffered; the socket will never
  // re-signal EPOLLIN for them.
  Pump(loop, conn);
}

bool HttpServer::FlushWrites(IoLoop* loop, Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection fails this write
    // with EPIPE instead of killing the process with SIGPIPE.
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                       conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Park the rest under EPOLLOUT; reads pause with it (see Pump).
      return UpdateInterest(loop, conn, /*want_read=*/false,
                            /*want_write=*/true);
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(loop, conn);
    return false;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->close_after_write) {
    CloseConn(loop, conn);
    return false;
  }
  if (conn->want_write) {
    return UpdateInterest(loop, conn, /*want_read=*/!conn->awaiting,
                          /*want_write=*/false);
  }
  return true;
}

void HttpServer::HandleWritable(IoLoop* loop, Conn* conn) {
  if (!FlushWrites(loop, conn)) return;  // closed
  // Once drained, serve what the client pipelined while the socket was
  // full (Pump returns at once while bytes remain).
  Pump(loop, conn);
}

bool HttpServer::UpdateInterest(IoLoop* loop, Conn* conn, bool want_read,
                                bool want_write) {
  if (conn->want_read == want_read && conn->want_write == want_write) {
    return true;
  }
  conn->want_read = want_read;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev) < 0) {
    CloseConn(loop, conn);
    return false;
  }
  return true;
}

void HttpServer::CloseConn(IoLoop* loop, Conn* conn) {
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  open_.fetch_sub(1, std::memory_order_relaxed);
  loop->conns.erase(conn->id);  // destroys *conn
}

}  // namespace hopi::net
