#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <ctime>
#include <string_view>

namespace hopi::layerbench {
namespace {

constexpr uint64_t kTimerTag = UINT64_MAX;
/// How long a phase may wait for its last responses after its deadline.
constexpr int64_t kDrainNs = 10'000'000'000;

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

bool EqualsLower(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower[i]) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// The parts of a response head the generator needs. False when the
/// head is malformed.
bool ParseHead(std::string_view head, uint16_t* status, size_t* length,
               bool* close) {
  if (head.size() < 12 || !head.starts_with("HTTP/1.")) return false;
  *status = 0;
  for (size_t i = 9; i < 12; ++i) {
    char c = head[i];
    if (c < '0' || c > '9') return false;
    *status = static_cast<uint16_t>(*status * 10 + (c - '0'));
  }
  *length = 0;
  *close = false;
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    size_t start = pos + 2;
    size_t eol = head.find("\r\n", start);
    std::string_view line = head.substr(
        start, eol == std::string_view::npos ? std::string_view::npos
                                             : eol - start);
    pos = eol;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    std::string_view name = Trim(line.substr(0, colon));
    std::string_view value = Trim(line.substr(colon + 1));
    if (EqualsLower(name, "content-length")) {
      *length = 0;
      for (char c : value) {
        if (c < '0' || c > '9') return false;
        *length = *length * 10 + static_cast<size_t>(c - '0');
      }
    } else if (EqualsLower(name, "connection") && EqualsLower(value, "close")) {
      *close = true;
    }
  }
  return true;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) CloseConn(&conn);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadGenerator::AddLane(const std::vector<WireRequest>* ring,
                            size_t connections, bool keep_all_bodies) {
  Lane lane;
  lane.ring = ring;
  lane.keep_all_bodies = keep_all_bodies;
  for (size_t i = 0; i < connections; ++i) {
    Conn conn;
    conn.lane = lanes_.size();
    conns_.push_back(std::move(conn));
  }
  lanes_.push_back(std::move(lane));
}

Status LoadGenerator::Connect() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) return Errno("timerfd_create");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) < 0) {
    return Errno("epoll_ctl(timer)");
  }
  for (Conn& conn : conns_) {
    if (Status s = OpenConn(&conn); !s.ok()) return s;
  }
  return Status::OK();
}

Status LoadGenerator::OpenConn(Conn* conn) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<uint64_t>(conn - conns_.data());
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    Status s = Errno("epoll_ctl(conn)");
    ::close(fd);
    return s;
  }
  conn->fd = fd;
  conn->busy = false;
  conn->rbuf.clear();
  return Status::OK();
}

void LoadGenerator::CloseConn(Conn* conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
}

void LoadGenerator::WatchWrite(Conn* conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = static_cast<uint64_t>(conn - conns_.data());
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

bool LoadGenerator::FlushWrite(Conn* conn) {
  const std::string& bytes = *conn->request;
  bool was_partial = conn->written > 0;
  while (conn->written < bytes.size()) {
    ssize_t n = ::send(conn->fd, bytes.data() + conn->written,
                       bytes.size() - conn->written, MSG_NOSIGNAL);
    if (n > 0) {
      conn->written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!was_partial) WatchWrite(conn, true);
      return true;
    }
    return false;
  }
  if (was_partial) WatchWrite(conn, false);
  return true;
}

void LoadGenerator::Send(size_t conn_index, int64_t due_ns,
                         uint32_t ring_index, int64_t now, uint8_t phase,
                         PhaseLog* log) {
  Conn& conn = conns_[conn_index];
  const WireRequest& request = (*lanes_[conn.lane].ring)[ring_index];
  Span span;
  span.due_ns = due_ns;
  span.sent_ns = now;
  span.ring_index = ring_index;
  span.lane = static_cast<uint8_t>(conn.lane);
  span.conn = static_cast<uint8_t>(conn_index);
  span.endpoint = static_cast<uint8_t>(request.endpoint);
  span.phase = phase;
  conn.span = log->spans.size();
  log->spans.push_back(span);
  conn.busy = true;
  conn.request = &request.bytes;
  conn.written = 0;
  if (!FlushWrite(&conn)) Fail(conn_index, log);
}

void LoadGenerator::Fail(size_t conn_index, PhaseLog* log) {
  Conn& conn = conns_[conn_index];
  if (conn.busy) {
    log->spans[conn.span].status = 0;
    log->spans[conn.span].done_ns = 0;
    conn.busy = false;
  }
  conn.free_since = NowNs();
  CloseConn(&conn);
  // A failed reconnect leaves the connection dead (fd -1): it is simply
  // skipped from then on, and its lane runs on fewer connections.
  (void)OpenConn(&conn);
}

bool LoadGenerator::HandleReadable(size_t conn_index, size_t keep_every,
                                   PhaseLog* log, size_t* completed) {
  Conn& conn = conns_[conn_index];
  char buf[16384];
  bool eof = false;
  while (true) {
    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.rbuf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  if (!conn.rbuf.empty()) {
    if (!conn.busy) return false;  // bytes nobody asked for
    size_t head_end = conn.rbuf.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      uint16_t status = 0;
      size_t length = 0;
      bool close = false;
      if (!ParseHead(std::string_view(conn.rbuf).substr(0, head_end), &status,
                     &length, &close)) {
        return false;
      }
      size_t total = head_end + 4 + length;
      if (conn.rbuf.size() >= total) {
        if (conn.rbuf.size() > total) return false;  // one request in flight
        int64_t done = NowNs();
        Span& span = log->spans[conn.span];
        span.done_ns = done;
        span.status = status;
        const Lane& lane = lanes_[conn.lane];
        bool keep = lane.keep_all_bodies;
        if (!lane.keep_all_bodies && keep_every > 0) {
          keep = ++*completed % keep_every == 0;
        }
        if (keep) {
          log->bodies.push_back({conn.span, conn.rbuf.substr(head_end + 4)});
        }
        conn.rbuf.clear();
        conn.busy = false;
        conn.free_since = done;
        if (close) {
          CloseConn(&conn);
          return OpenConn(&conn).ok();
        }
      }
    }
  }
  if (eof) {
    if (conn.busy) return false;
    // The server dropped an idle connection: reopen quietly.
    CloseConn(&conn);
    return OpenConn(&conn).ok();
  }
  return true;
}

PhaseStats LoadGenerator::Run(const std::vector<LaneMode>& modes,
                              double seconds, uint8_t phase,
                              size_t keep_every, PhaseLog* log) {
  PhaseStats stats;
  stats.first_span = log->spans.size();
  const int64_t cpu_before = ThreadCpuNs();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  stats.seconds = seconds;
  stats.start_ns = start;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    lane.rate = l < modes.size() ? modes[l].rate : 0.0;
    lane.start_ns = start;
    lane.issued = 0;
    lane.backlog.clear();
  }
  for (Conn& conn : conns_) {
    if (!conn.busy) conn.free_since = start;
  }
  auto due_of = [](const Lane& lane, uint64_t k) {
    return lane.start_ns +
           static_cast<int64_t>(static_cast<double>(k) * 1e9 / lane.rate);
  };
  auto next_index = [](Lane* lane) {
    auto index = static_cast<uint32_t>(lane->cursor);
    lane->cursor = (lane->cursor + 1) % lane->ring->size();
    return index;
  };

  size_t completed = 0;
  bool stopping = false;
  int64_t drain_deadline = 0;
  int64_t armed_at = -1;
  epoll_event events[64];
  while (true) {
    int64_t now = NowNs();
    if (!stopping && now >= end) {
      stopping = true;
      drain_deadline = now + kDrainNs;
    }
    // Release every open-loop request that fell due before the deadline.
    for (Lane& lane : lanes_) {
      if (lane.rate <= 0.0) continue;
      while (true) {
        int64_t due = due_of(lane, lane.issued);
        if (due > now || due >= end) break;
        lane.backlog.push_back({due, next_index(&lane)});
        ++lane.issued;
      }
    }
    bool busy = false;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (conn.fd < 0) continue;
      Lane& lane = lanes_[conn.lane];
      if (!conn.busy) {
        if (lane.rate > 0.0) {
          if (!lane.backlog.empty()) {
            Pending p = lane.backlog.front();
            lane.backlog.pop_front();
            Send(i, p.due_ns, p.ring_index, now, phase, log);
          }
        } else if (!stopping) {
          Send(i, conn.free_since, next_index(&lane), now, phase, log);
        }
      }
      busy = busy || conn.busy;
    }
    bool backlog = false;
    for (const Lane& lane : lanes_) backlog = backlog || !lane.backlog.empty();
    if (stopping && !busy && !backlog) break;
    if (stopping && now >= drain_deadline) {
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].busy) Fail(i, log);
      }
      for (Lane& lane : lanes_) {
        for (const Pending& p : lane.backlog) {
          Span span;
          span.due_ns = p.due_ns;
          span.ring_index = p.ring_index;
          span.lane = static_cast<uint8_t>(&lane - lanes_.data());
          span.endpoint =
              static_cast<uint8_t>((*lane.ring)[p.ring_index].endpoint);
          span.phase = phase;
          log->spans.push_back(span);
        }
        lane.backlog.clear();
      }
      break;
    }
    // Sleep until the next response, the next due request, or the
    // phase deadline, whichever comes first.
    int64_t wake = stopping ? drain_deadline : end;
    if (!stopping) {
      for (const Lane& lane : lanes_) {
        if (lane.rate > 0.0) wake = std::min(wake, due_of(lane, lane.issued));
      }
    }
    if (wake != armed_at) {
      itimerspec spec{};
      spec.it_value.tv_sec = wake / 1'000'000'000;
      spec.it_value.tv_nsec = wake % 1'000'000'000;
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
      armed_at = wake;
    }
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    for (int e = 0; e < n; ++e) {
      uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        uint64_t expirations = 0;
        ssize_t r = ::read(timer_fd_, &expirations, sizeof(expirations));
        (void)r;
        armed_at = -1;  // a fired timer must be re-armed
        continue;
      }
      auto i = static_cast<size_t>(tag);
      if (conns_[i].fd < 0) continue;
      uint32_t flags = events[e].events;
      if ((flags & EPOLLOUT) && conns_[i].busy &&
          conns_[i].written < conns_[i].request->size()) {
        if (!FlushWrite(&conns_[i])) {
          Fail(i, log);
          continue;
        }
      }
      if (flags & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        if (!HandleReadable(i, keep_every, log, &completed)) Fail(i, log);
      }
    }
  }
  stats.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  stats.cpu_s = static_cast<double>(ThreadCpuNs() - cpu_before) / 1e9;
  stats.end_span = log->spans.size();
  return stats;
}

}  // namespace hopi::layerbench
