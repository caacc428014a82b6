// Load generator for the layer benchmark: one thread, a handful of
// keep-alive connections, all multiplexed with epoll.
//
// Requests come from pre-serialized rings (full HTTP/1.1 request bytes
// built before any phase starts), so the generator never formats JSON
// on the timed path. Connections are grouped into lanes; each lane
// cycles through its own ring and runs either
//
//   closed — each connection sends its next request the moment the
//            previous response lands (rate = 0), or
//   open   — requests fall due on a fixed schedule at `rate` per
//            second regardless of how fast answers come back. A due
//            request goes out on an idle connection of its lane; when
//            every connection is busy it waits in the lane's backlog.
//            Latency is measured from the due time, so a stall is
//            charged to every request it delayed (no coordinated
//            omission).
//
// Every request leaves one Span. Bodies are copied only for responses
// the caller asked to keep (every k-th response of a phase, or every
// response of a lane flagged keep_all_bodies).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/status.h"

namespace hopi::layerbench {

enum class Endpoint : uint8_t { kBatch = 0, kPath = 1, kMutate = 2 };

/// One pre-serialized request.
struct WireRequest {
  std::string bytes;  // request line + headers + body
  Endpoint endpoint = Endpoint::kBatch;
};

/// One request as the generator saw it. Times are steady-clock
/// nanoseconds. `done_ns == 0` means the request never completed.
struct Span {
  int64_t due_ns = 0;   // open: scheduled send; closed: connection free
  int64_t sent_ns = 0;  // first byte written
  int64_t done_ns = 0;  // last response byte read
  uint32_t ring_index = 0;
  uint16_t status = 0;  // HTTP status; 0 = transport failure
  uint8_t lane = 0;
  uint8_t conn = 0;
  uint8_t endpoint = 0;
  uint8_t phase = 0;
};

/// A kept response body and the span it belongs to.
struct KeptBody {
  size_t span = 0;  // index into PhaseLog::spans
  std::string body;
};

/// Everything recorded across phases.
struct PhaseLog {
  std::vector<Span> spans;
  std::vector<KeptBody> bodies;
};

/// Per-phase lane settings.
struct LaneMode {
  double rate = 0.0;  // requests/s; 0 = closed loop
};

/// Totals of one phase.
struct PhaseStats {
  double seconds = 0.0;          // the phase's length as requested
  int64_t start_ns = 0;          // NowNs() at the phase start
  double wall_s = 0.0;           // phase start to last completion
  double cpu_s = 0.0;            // generator thread CPU time
  size_t first_span = 0;         // spans[first_span, end_span)
  size_t end_span = 0;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(uint16_t port) : port_(port) {}
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Adds a lane of `connections` connections cycling through `ring`
  /// (which must outlive the generator). `keep_all_bodies` keeps every
  /// response body of the lane (the mutation lane's receipts).
  void AddLane(const std::vector<WireRequest>* ring, size_t connections,
               bool keep_all_bodies);

  /// Opens every connection. IOError on failure.
  Status Connect();

  /// Runs one phase: lanes[i] behaves per modes[i] for `seconds`, then
  /// the generator stops issuing closed-loop requests, sends whatever
  /// open-loop requests already fell due, and waits (up to a bounded
  /// drain) for every in-flight response. Spans land in `log`; with
  /// `keep_every > 0` the body of every keep_every-th completed
  /// response is kept too. `phase` tags the spans.
  PhaseStats Run(const std::vector<LaneMode>& modes, double seconds,
                 uint8_t phase, size_t keep_every, PhaseLog* log);

 private:
  struct Conn {
    int fd = -1;
    size_t lane = 0;
    bool busy = false;
    int64_t free_since = 0;
    size_t span = 0;            // in-flight span index
    const std::string* request = nullptr;
    size_t written = 0;
    std::string rbuf;
  };
  struct Pending {
    int64_t due_ns;
    uint32_t ring_index;
  };
  struct Lane {
    const std::vector<WireRequest>* ring = nullptr;
    bool keep_all_bodies = false;
    size_t cursor = 0;
    // open-loop schedule of the current phase
    double rate = 0.0;
    int64_t start_ns = 0;
    uint64_t issued = 0;
    std::deque<Pending> backlog;
  };

  Status OpenConn(Conn* conn);
  void CloseConn(Conn* conn);
  void Send(size_t conn_index, int64_t due_ns, uint32_t ring_index,
            int64_t now, uint8_t phase, PhaseLog* log);
  /// Writes as much of the in-flight request as the socket takes.
  bool FlushWrite(Conn* conn);
  /// Reads and completes responses. Returns false on a dead connection.
  bool HandleReadable(size_t conn_index, size_t keep_every, PhaseLog* log,
                      size_t* completed);
  void Fail(size_t conn_index, PhaseLog* log);
  void WatchWrite(Conn* conn, bool want_write);

  uint16_t port_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Lane> lanes_;
};

/// steady_clock now in nanoseconds (the clock every Span uses).
int64_t NowNs();

}  // namespace hopi::layerbench
