// Runtime-dispatched join kernels for the 2-hop label intersection —
// the one function every reachability probe in the tree bottoms out
// in.
//
// JoinViews is the one 2-hop join in the tree. Its rule (paper Sec
// 3.4): (u, v) with u != v is connected when Lout(u) and Lin(v) share
// a center, u appears as a center in Lin(v), or v appears as a center
// in Lout(u); the distance is the minimum over those witnesses of the
// summed entry distances. Callers handle the reflexive u == v case.
//
// Layering:
//
//   kernels    — a scalar two-pointer merge, SSE2/AVX2 block-compare
//                intersection over packed uint32 center columns, and a
//                galloping (exponential-search) kernel for skewed
//                |Lout|/|Lin| ratios. All kernels give bit-identical
//                results: implicit self entries, min-plus distance
//                accumulation (with uint32 wraparound on dist sums),
//                first-match early-out when distances are not wanted.
//   layout     — kernels run over twohop::JoinView (join_view.h):
//                packed columns (TwoHopCover labels, DecodedBlock
//                rows).
//   prefilter  — each view carries an 8-byte LabelSummary; a probe
//                whose summaries prove disjointness (including the
//                self-entry memberships) is rejected in O(1) before
//                any kernel runs.
//
// Dispatch: JoinViews picks a kernel from (a) the explicit `kernel`
// argument, else (b) the process-wide force (HOPI_JOIN_KERNEL env var
// or SetForcedJoinKernel), else (c) a size-ratio heuristic over the
// CPU features util::CpuInfo() detected. A kernel the host cannot run
// (missing ISA) degrades to the best kernel that can — forcing "avx2"
// on an SSE-only box runs SSE2, then scalar. Forcing is how the CI
// matrix pins each implementation without special test builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/digraph.h"
#include "twohop/cover.h"
#include "twohop/join_view.h"

namespace hopi::twohop {

enum class JoinKernel : uint8_t {
  kAuto = 0,   // heuristic dispatch (the default everywhere)
  kScalar,     // two-pointer merge
  kGallop,     // exponential search from the smaller side
  kSSE2,       // 4-wide block-compare
  kAVX2,       // 8-wide block-compare
};

/// "auto", "scalar", "gallop", "sse2", "avx2" (as HOPI_JOIN_KERNEL and
/// the bench --kernel flag spell them); nullopt for anything else.
std::optional<JoinKernel> ParseJoinKernel(std::string_view name);
std::string_view JoinKernelName(JoinKernel kernel);

/// Process-wide kernel force. Defaults to the HOPI_JOIN_KERNEL
/// environment variable (read once, unparsable values warn and mean
/// auto); SetForcedJoinKernel overrides it from code (tests, the bench
/// --kernel flag). kAuto restores heuristic dispatch. The setter is an
/// atomic store — safe to call between batches, though tests should
/// set it before spawning probe threads.
JoinKernel ForcedJoinKernel();
void SetForcedJoinKernel(JoinKernel kernel);

/// True when this process can execute `kernel` (ISA present and the
/// variant was compiled in). kAuto/kScalar/kGallop are always true.
bool JoinKernelSupported(JoinKernel kernel);

/// Every kernel JoinKernelSupported() admits, scalar first — the
/// rotation order for parity tests and the bench sweep.
std::vector<JoinKernel> SupportedJoinKernels();

/// The kernel JoinViews would actually run for these label sizes:
/// `requested` (or the process force when kAuto) clamped to ISA
/// support, with the size-ratio heuristic deciding genuine autos.
/// Exposed so tests can pin the dispatch rules and the bench can label
/// its rows.
JoinKernel ResolveJoinKernel(JoinKernel requested, size_t lout_n,
                             size_t lin_n);

/// The 2-hop join of Lout(u) and Lin(v) under the implicit-self-entry
/// rule above, through the summary prefilter and the dispatched
/// kernels. Both views must be sorted by center.
LabelJoinResult JoinViews(NodeId u, NodeId v, const JoinView& lout,
                          const JoinView& lin, bool want_distance,
                          JoinKernel kernel = JoinKernel::kAuto);

/// Sorted-set intersection of two ascending unique id sequences,
/// galloping when the sizes are skewed (the query/path_query frontier
/// filter). Returns the common ids, ascending.
std::vector<uint32_t> IntersectSorted(std::span<const uint32_t> a,
                                      std::span<const uint32_t> b,
                                      JoinKernel kernel = JoinKernel::kAuto);

}  // namespace hopi::twohop
