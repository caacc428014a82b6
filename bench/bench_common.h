// Shared helpers for the benchmark harnesses.
//
// Every bench binary prints rows shaped like the paper's tables and
// accepts --docs / --seed flags to scale the synthetic collections. Each
// prints the measured table plus the workload parameters, and writes the
// same numbers with the host they ran on (BenchReport), so runs are
// self-describing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "datagen/dblp.h"
#include "datagen/inex.h"
#include "graph/closure.h"
#include "util/cli.h"
#include "util/table_printer.h"

// Build identity, passed in by bench/CMakeLists.txt.
#ifndef HOPI_BENCH_GIT_SHA
#define HOPI_BENCH_GIT_SHA "unknown"
#endif
#ifndef HOPI_BENCH_GIT_DIRTY
#define HOPI_BENCH_GIT_DIRTY -1
#endif
#ifndef HOPI_BENCH_BUILD_TYPE
#define HOPI_BENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define HOPI_BENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define HOPI_BENCH_COMPILER "gcc " __VERSION__
#else
#define HOPI_BENCH_COMPILER "unknown"
#endif

namespace hopi::bench {

/// The first "model name" line of /proc/cpuinfo; "unknown" elsewhere.
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    size_t value = line.find_first_not_of(" \t", colon + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

/// Machine-readable twin of the printed tables: a flat, ordered
/// key -> value map written as `BENCH_<name>.json` in the working
/// directory, so CI and the experiment notes can diff runs without
/// scraping stdout. Hand-rolled writer — two value kinds (number,
/// string), no dependencies, deterministic field order. Every file
/// opens with a `host` block (cores, CPU model, build type, compiler,
/// commit and whether the tree had uncommitted changes), so two files
/// say whether their numbers can be compared.
///
///   BenchReport report("storage_io");
///   report.Add("v4_bytes_per_entry", 3.71);
///   report.Add("format", "v4");
///   report.Write();          // -> BENCH_storage_io.json
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, std::string(buf));
  }
  void Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + Escaped(value) + "\"");
  }

  /// Writes BENCH_<name>.json; reports (but tolerates) IO failure on
  /// stderr so a read-only working directory never fails a bench run.
  void Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::cerr << "BenchReport: cannot write " << path << "\n";
      return;
    }
    std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::cout << "\nwrote " << path << "\n";
  }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"" + Escaped(name_) + "\"";
    out += ",\n  \"host\": {";
    out += "\n    \"nproc\": ";
    out += std::to_string(std::thread::hardware_concurrency());
    out += ",\n    \"cpu_model\": \"" + Escaped(CpuModel()) + "\"";
    out += ",\n    \"build_type\": \"" +
           Escaped(HOPI_BENCH_BUILD_TYPE) + "\"";
    out += ",\n    \"compiler\": \"" + Escaped(HOPI_BENCH_COMPILER) + "\"";
    out += ",\n    \"git_sha\": \"" + Escaped(HOPI_BENCH_GIT_SHA) + "\"";
    out += ",\n    \"git_dirty\": ";
    out += std::to_string(HOPI_BENCH_GIT_DIRTY);
    out += "\n  }";
    for (const auto& [key, value] : fields_) {
      out += ",\n  \"" + Escaped(key) + "\": " + value;
    }
    out += "\n}\n";
    return out;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Scaled stand-in for the paper's DBLP subset (6,210 docs / 168,991
/// elements / 25,368 links). Default 800 docs keeps every bench binary in
/// the tens of seconds; pass --docs=6210 to approach paper scale.
inline collection::Collection MakeDblp(size_t docs, uint64_t seed) {
  collection::Collection c;
  datagen::DblpConfig config;
  config.num_docs = docs;
  config.seed = seed;
  auto report = datagen::GenerateDblpCollection(config, &c);
  if (!report.ok()) {
    std::cerr << "datagen failed: " << report.status() << "\n";
    std::exit(1);
  }
  return c;
}

/// Scaled INEX stand-in (paper: 12,232 docs / 12M elements / no links).
inline collection::Collection MakeInex(size_t docs, size_t elements_per_doc,
                                       uint64_t seed) {
  collection::Collection c;
  datagen::InexConfig config;
  config.num_docs = docs;
  config.mean_elements_per_doc = elements_per_doc;
  config.seed = seed;
  auto report = datagen::GenerateInexCollection(config, &c);
  if (!report.ok()) {
    std::cerr << "datagen failed: " << report.status() << "\n";
    std::exit(1);
  }
  return c;
}

/// Paper compression metric: closure connections per stored cover entry
/// (345M / 15.9M = 21.6 for the EDBT'04 baseline, 267 for the global
/// cover — Sec 7.2).
inline double Compression(uint64_t closure_connections,
                          uint64_t cover_entries) {
  if (cover_entries == 0) return 0.0;
  return static_cast<double>(closure_connections) /
         static_cast<double>(cover_entries);
}

inline CommandLine ParseFlagsOrDie(int argc, char** argv,
                                   const std::vector<std::string>& known) {
  CommandLine cli;
  Status s = CommandLine::Parse(argc, argv, known, &cli);
  if (!s.ok()) {
    std::cerr << s << "\n";
    std::exit(2);
  }
  return cli;
}

inline void PrintHeader(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace hopi::bench
