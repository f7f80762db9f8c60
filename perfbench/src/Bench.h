//===- perfbench/src/Bench.h - Benchmark workloads interface ----*- C++ -*-===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark's three workloads (ladder, fuzz-cold, fuzz-warm)
/// share: run options, the record of one measured pass, and the workload
/// interface main.cpp times. See perfbench/NOTES.md.
///
//===----------------------------------------------------------------------===//

#ifndef OMPGPU_PERFBENCH_BENCH_H
#define OMPGPU_PERFBENCH_BENCH_H

#include "Trace.h"
#include "driver/Pipeline.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  /// Compile-service worker threads (fuzz workloads). With one, the
  /// service runs every job on the calling thread, which is what lets the
  /// benchmark time each job in CPU time.
  unsigned Workers = 1;
  /// Recipes per fuzz pass; each gives one job per fuzz preset.
  unsigned Recipes = 60;
  /// Scratch directory for the fuzz workloads' on-disk caches.
  std::string WorkDir;
  /// Spliced into every compiled pipeline; the self-test injects a
  /// miscompiling pass here.
  std::vector<ompgpu::PipelineOptions::ExtraPass> ExtraPasses;
};

/// Counters that must repeat exactly in every pass of every run.
using Counters = std::map<std::string, uint64_t>;

/// One pass over a workload's jobs. Host time is process CPU time (see
/// cpuUs); wall time is kept for the traces and the printout.
struct PassResult {
  double CpuMs = 0.0;
  double WallMs = 0.0;
  unsigned Jobs = 0;
  unsigned Failed = 0;
  /// Host CPU time of every job, in the same job order in every pass.
  std::vector<double> JobMs;
  Counters Deterministic;
  /// Other measurements, summed over the pass: pass timings, batch
  /// statistics, the ladder's cycle speedup.
  std::map<std::string, double> Layer;
  /// The first few failure messages.
  std::vector<std::string> Failures;

  void fail(std::string Message) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(std::move(Message));
  }
};

class BenchWorkload {
public:
  BenchWorkload() = default;
  BenchWorkload(const BenchWorkload &) = delete;
  BenchWorkload &operator=(const BenchWorkload &) = delete;
  virtual ~BenchWorkload() = default;
  /// Builds the inputs and runs one counted reference pass. Reference
  /// counts (emitted and optimized instruction counts) are added to
  /// Deterministic only here, so measured passes do not pay for them.
  virtual PassResult setUp() = 0;
  /// One measured pass; spans go to \p T when it is non-null.
  virtual PassResult runPass(unsigned Index, Tracer *T) = 0;
};

std::unique_ptr<BenchWorkload> makeLadder(const RunOptions &O);
std::unique_ptr<BenchWorkload> makeFuzzCold(const RunOptions &O);
std::unique_ptr<BenchWorkload> makeFuzzWarm(const RunOptions &O);

/// Instruction count of every function in \p M.
uint64_t countInstructions(const ompgpu::Module &M);

/// Adds the OpenMPOpt counters the benchmark tracks to \p C.
void addOptStats(Counters &C, const ompgpu::OpenMPOptStats &S);

/// CPU milliseconds of one run of a fixed reference loop that slows down
/// with the shared host the way the workloads do; see Calibrate.cpp.
double calibrationMs();

/// The `--self-test` entry point; returns the process exit code.
int runSelfTest(const std::string &WorkDir);

} // namespace perfbench

#endif // OMPGPU_PERFBENCH_BENCH_H
