#include "host_probe.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>

namespace hopi::layerbench {
namespace {

// Per-CPU rates of the reference host (4-vCPU Xeon VM, see README.md)
// on an ordinary day: the medians over the probe samples of 30 runs.
constexpr double kReferenceText = 180'000.0;
constexpr double kReferencePingpong = 30'000.0;

constexpr size_t kMessage = 512;

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PinTo(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::pair<int, int> LoopbackPair() {
  int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 1) < 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    std::abort();
  }
  int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (client < 0 ||
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::abort();
  }
  int server = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  if (server < 0) std::abort();
  ::close(listener);
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return {client, server};
}

/// Sends or receives one whole message; false when the peer is gone.
bool Transfer(int fd, char* buf, bool send) {
  size_t done = 0;
  while (done < kMessage) {
    ssize_t n = send ? ::send(fd, buf + done, kMessage - done, MSG_NOSIGNAL)
                     : ::recv(fd, buf + done, kMessage - done, 0);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Text operations until `end`: each formats 32 pseudo-random integers,
/// parses them back, sorts them and counts them in a hash map (cleared
/// at 50,000 keys, about 2 MiB).
uint64_t TextKernel(uint64_t seed, int64_t end) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1, n = 0, sink = 0;
  std::unordered_map<uint64_t, uint64_t> seen;
  std::string text;
  std::vector<uint64_t> values;
  while (Now() < end) {
    for (int op = 0; op < 16; ++op) {
      text.clear();
      for (int i = 0; i < 32; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        char buf[24];
        text.append(buf, std::to_chars(buf, buf + sizeof(buf), x % 100000).ptr);
        text += ',';
      }
      values.clear();
      const char* at = text.data();
      const char* stop = at + text.size();
      while (at < stop) {
        uint64_t v = 0;
        at = std::from_chars(at, stop, v).ptr + 1;  // skip the comma
        values.push_back(v);
      }
      std::sort(values.begin(), values.end());
      for (uint64_t v : values) sink += ++seen[v];
      if (seen.size() > 50000) seen.clear();
    }
    n += 16;
  }
  asm volatile("" : : "r"(sink));
  return n;
}

}  // namespace

HostProbe::HostProbe() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned cpu = 0; cpu < cpus; ++cpu) {
    cpus_.push_back(cpu);
    pairs_.push_back(LoopbackPair());
  }
}

HostProbe::~HostProbe() {
  for (auto [a, b] : pairs_) {
    ::close(a);
    ::close(b);
  }
}

HostProbe::Sample HostProbe::Measure(double seconds) {
  const auto span = static_cast<int64_t>(seconds * 1e9);
  const size_t n = cpus_.size();
  // One thread per CPU runs `kernel(k, end)`; returns the mean rate.
  auto rate = [&](auto&& kernel) {
    std::vector<uint64_t> ops(n, 0);
    std::vector<std::thread> threads;
    const int64_t start = Now() + 2'000'000;  // after every thread is up
    for (size_t k = 0; k < n; ++k) {
      threads.emplace_back([&, k] {
        PinTo(cpus_[k]);
        while (Now() < start) std::this_thread::yield();
        ops[k] = kernel(k, start + span);
      });
    }
    for (std::thread& t : threads) t.join();
    uint64_t total = 0;
    for (uint64_t v : ops) total += v;
    return static_cast<double>(total) / seconds / static_cast<double>(n);
  };
  Sample sample;
  sample.text = rate([](size_t k, int64_t end) { return TextKernel(k, end); });
  // CPU k's client talks to an echo thread on CPU k+1 (the same CPU when
  // there is only one). The client ends the exchange with a message
  // whose first byte is 1.
  sample.pingpong = rate([this, n](size_t k, int64_t end) {
    std::thread echo([this, k, n] {
      PinTo(cpus_[(k + 1) % n]);
      char buf[kMessage];
      while (Transfer(pairs_[k].second, buf, false) &&
             Transfer(pairs_[k].second, buf, true)) {
        if (buf[0] == 1) break;
      }
    });
    char buf[kMessage] = {};
    uint64_t count = 0;
    while (true) {
      buf[0] = Now() < end ? 0 : 1;
      const bool last = buf[0] == 1;
      if (!Transfer(pairs_[k].first, buf, true) ||
          !Transfer(pairs_[k].first, buf, false)) {
        // Unblock the echo thread; the pair stays dead and counts 0.
        ::shutdown(pairs_[k].first, SHUT_RDWR);
        count = 0;
        break;
      }
      if (last) break;
      ++count;
    }
    echo.join();
    return count;
  });
  return sample;
}

double HostProbe::Index(const Sample& sample) {
  return std::sqrt(sample.text / kReferenceText *
                   sample.pingpong / kReferencePingpong);
}

}  // namespace hopi::layerbench
