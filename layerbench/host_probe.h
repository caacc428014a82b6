// Host speed probe for the layer benchmark.
//
// The benchmark runs on a virtual machine that shares its host, and the
// host's speed drifts: a single-threaded loop runs up to 1.5x slower for
// minutes at a time, and the serving stack slows by up to 2x with it.
// The probe times two fixed kernels that belong to the benchmark, so that
// nothing in them changes with the code under test, on every CPU at once:
//
//   text      format 32 integers as text, parse them back, sort them and
//             count them in a hash map: short-lived allocations, branches
//             and a cache footprint like the stack's request handling
//   pingpong  512-byte round trips over loopback TCP between threads on
//             neighbouring CPUs: system calls, the kernel's TCP path and
//             cross-CPU wake-ups, as between the stack's threads
//
// Their geometric mean, relative to the reference host, is the speed
// index bench_layers scales its timings by (see README.md, "Host speed").
#pragma once

#include <utility>
#include <vector>

namespace hopi::layerbench {

class HostProbe {
 public:
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Kernel rates per CPU: text operations and round trips per second.
  struct Sample {
    double text = 0.0;
    double pingpong = 0.0;
  };

  /// Runs each kernel for `seconds` on every CPU at once.
  Sample Measure(double seconds);

  /// The speed index of a sample: the geometric mean of its two rates,
  /// each over the reference host's typical rate (1 = the reference host
  /// on an ordinary day; 0.8 = 20% slower).
  static double Index(const Sample& sample);

 private:
  std::vector<unsigned> cpus_;
  std::vector<std::pair<int, int>> pairs_;  // loopback connection per CPU
};

}  // namespace hopi::layerbench
