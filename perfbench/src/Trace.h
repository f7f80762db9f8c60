//===- perfbench/src/Trace.h - In-memory spans for the benchmark *- C++ -*-===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. Spans are taken from the benchmark's own
/// code, around each call into a library layer; nothing inside the library
/// is instrumented. A span's layer is the part of its name before the first
/// '.', so "gpusim.launch" is charged to gpusim. Job roots ("ladder.job",
/// "service.job") carry no layer: their self time is the job's unattributed
/// time. Spans stay in memory and are written at exit as Chrome trace-event
/// JSON, which Perfetto and chrome://tracing open.
///
//===----------------------------------------------------------------------===//

#ifndef OMPGPU_PERFBENCH_TRACE_H
#define OMPGPU_PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call in this process.
double nowUs();

/// CPU time of this process in microseconds. On a paravirtualized guest
/// the kernel leaves out the time the hypervisor ran other guests on the
/// vCPU, which wall time includes.
double cpuUs();

/// A small, stable id for the calling thread (the trace's "tid").
unsigned threadId();

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint64_t Job = 0;    ///< The job the span belongs to (0: none).
  unsigned Tid = 0;
  bool JobRoot = false;
  std::string Name;
  double BeginUs = 0.0;
  double EndUs = 0.0;
  std::string Detail; ///< What the job ran, on job roots.
};

/// Self time per layer over every job root and its descendants.
struct SelfTimes {
  std::map<std::string, double> LayerUs; ///< layer -> summed self time
  double UnattributedUs = 0.0;           ///< self time of the job roots
  double JobUs = 0.0;                    ///< summed job-root durations
  uint64_t Jobs = 0;
};

class Tracer {
public:
  uint64_t newId() { return NextId.fetch_add(1) + 1; }
  /// Records a finished span; thread-safe.
  void add(Span S);
  /// Inclusive duration per span name, summed.
  std::map<std::string, double> inclusiveUs() const;
  SelfTimes selfTimes() const;
  size_t size() const;
  /// Writes every span as a complete ("X") trace event.
  bool writeChromeTrace(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::atomic<uint64_t> NextId{0};
};

/// RAII span on the calling thread. A null tracer makes it a no-op, so an
/// untraced pass pays one branch per layer call.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Parent, uint64_t Job,
        bool JobRoot = false, const std::string &Detail = "");
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  uint64_t id() const { return S.Id; }

private:
  Tracer *T;
  Span S;
};

} // namespace perfbench

#endif // OMPGPU_PERFBENCH_TRACE_H
