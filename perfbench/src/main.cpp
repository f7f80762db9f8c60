//===- perfbench/src/main.cpp - Repository benchmark program --------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload: set-up three times (the median is
/// setup_s), then measured passes in a closed loop until the time is up.
/// Every pass checks its outputs and its deterministic counters against
/// the set-up pass; the counters are also checked against the previous run
/// of the same build. Host times are process CPU time (see cpuUs), scaled
/// to the reference host's speed by a calibration loop run between passes
/// (see Calibrate.cpp). Prints every metric with its unit, then one JSON
/// line with the result. With --trace 1 passes alternate between untraced
/// and traced, the per-layer metrics come from the traced ones, and the
/// difference between the two kinds is the tracing overhead.
///
/// Usage: perfbench --workload <ladder|fuzz-cold|fuzz-warm> --seed <n>
///          --seconds <s> --trace <0|1> --work-dir <dir>
///          [--state-dir <dir>] [--trace-out <file>]
///        perfbench --self-test --work-dir <dir>
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Hashing.h"
#include "support/JSON.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace perfbench;

namespace {

constexpr unsigned SetupRepeats = 3;

/// Typical median CPU time of calibrationMs() per run on the reference
/// host (4-core Xeon VM). End-to-end host times are scaled by this over the
/// run's own median, so they read as on that host at its usual speed.
constexpr double CalibrationRefMs = 14.0;

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// Pass names behind pipeline.pass.<name>_ms, in pipeline order.
const char *const PassNames[] = {
    "link-device-rtl", "openmp-opt",         "function-attrs",
    "internalize",     "heap-to-stack",      "heap-to-shared",
    "spmdization",     "custom-state-machine", "fold-runtime-calls",
    "simplify",        "inline-parallel-regions", "mem2reg",
    "store-to-load-forwarding", "map-inference", "omp-lint"};

const char *const Layers[] = {"frontend", "pipeline", "gpusim", "fuzz",
                              "service"};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * (double)(V.size() - 1);
  size_t Lo = (size_t)Pos;
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - (double)Lo);
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

double peakRSSMegabytes() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Hash of this executable, so counters recorded by one build are never
/// compared with another build's.
uint64_t buildId() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  uint64_t H = 0;
  std::vector<char> Buf(1 << 20);
  while (In.read(Buf.data(), (std::streamsize)Buf.size()) || In.gcount())
    H = ompgpu::hashCombine(H, ompgpu::hashBytes(std::string_view(
                                   Buf.data(), (size_t)In.gcount())));
  return H;
}

/// Compares \p Now with the counters the previous run of this build stored
/// in \p Path, then stores \p Now. Returns drift messages.
std::vector<std::string> checkAcrossRuns(const std::string &Path,
                                         const Counters &Now) {
  std::vector<std::string> Drift;
  std::string Build = std::to_string(buildId());
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  ompgpu::json::Value Old;
  if (In && ompgpu::json::parse(SS.str(), Old) && Old.isObject() &&
      Old.at("build").asString() == Build) {
    const ompgpu::json::Value &C = Old.at("counters");
    for (const auto &[Name, V] : Now)
      if (const ompgpu::json::Value *P = C.find(Name);
          P && P->asString() != std::to_string(V))
        Drift.push_back("counter " + Name + " is " + std::to_string(V) +
                        ", an earlier run of this build had " +
                        P->asString());
  }
  ompgpu::json::Value Doc = ompgpu::json::Value::makeObject();
  ompgpu::json::Value C = ompgpu::json::Value::makeObject();
  for (const auto &[Name, V] : Now)
    C.set(Name, std::to_string(V)); // strings: counters exceed 2^53
  Doc.set("build", Build).set("counters", std::move(C));
  std::ofstream(Path) << Doc.str() << "\n";
  return Drift;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool SelfTest = false;
  std::string WorkDir;
  std::string StateDir;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    try {
      if (K == "--workload")
        A.Workload = V;
      else if (K == "--seed")
        A.Seed = std::stoull(V);
      else if (K == "--seconds")
        A.Seconds = std::stod(V);
      else if (K == "--trace")
        A.Trace = std::stoi(V) != 0;
      else if (K == "--work-dir")
        A.WorkDir = V;
      else if (K == "--state-dir")
        A.StateDir = V;
      else if (K == "--trace-out")
        A.TraceOut = V;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  if (A.WorkDir.empty())
    return false;
  return A.SelfTest || ((A.Workload == "ladder" || A.Workload == "fuzz-cold" ||
                         A.Workload == "fuzz-warm") &&
                        A.Seconds > 0);
}

std::unique_ptr<BenchWorkload> makeWorkload(const std::string &Name,
                                            const RunOptions &O) {
  if (Name == "ladder")
    return makeLadder(O);
  if (Name == "fuzz-cold")
    return makeFuzzCold(O);
  return makeFuzzWarm(O);
}

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-40s %18s %s\n", M.Name.c_str(), number(M.Value).c_str(),
                M.Unit.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ladder|fuzz-cold|fuzz-warm> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--state-dir <dir>] [--trace-out <file>]\n"
                 "       perfbench --self-test --work-dir <dir>\n");
    return 2;
  }
  std::filesystem::create_directories(A.WorkDir);
  if (A.SelfTest)
    return runSelfTest(A.WorkDir);

  RunOptions O;
  O.Seed = A.Seed;
  O.WorkDir = A.WorkDir;

  unsigned Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  auto Absorb = [&](const PassResult &P) {
    Attempted += P.Jobs;
    Failed += P.Failed;
    for (const std::string &F : P.Failures)
      if (Failures.size() < 20)
        Failures.push_back(F);
  };

  // Set-up, repeated; the last workload instance is the one measured. Like
  // every host time, set-up time is CPU time.
  std::vector<double> SetupS, SetupCalibrationMs, CalibrationMs;
  std::unique_ptr<BenchWorkload> W;
  PassResult Ref;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    double Begin = cpuUs();
    W = makeWorkload(A.Workload, O);
    Ref = W->setUp();
    SetupS.push_back((cpuUs() - Begin) / 1e6);
    Absorb(Ref);
    SetupCalibrationMs.push_back(calibrationMs());
  }

  // Measured passes in a closed loop. With tracing, odd passes are traced.
  Tracer Trace;
  std::vector<PassResult> Untraced, Traced;
  double Deadline = nowUs() + A.Seconds * 1e6;
  for (unsigned I = 0;; ++I) {
    bool IsTraced = A.Trace && I % 2 == 1;
    PassResult P = W->runPass(I, IsTraced ? &Trace : nullptr);
    Absorb(P);
    // A counter the set-up pass does not produce is pinned by the first
    // measured pass.
    for (const auto &[Name, V] : P.Deterministic) {
      auto [It, New] = Ref.Deterministic.emplace(Name, V);
      if (!New && It->second != V) {
        ++Failed;
        if (Failures.size() < 20)
          Failures.push_back("pass " + std::to_string(I) + ": counter " +
                             Name + " is " + std::to_string(V) +
                             ", it was " + std::to_string(It->second));
      }
    }
    // Once per pass, right after it: a second loop in a row finds its code
    // and data still cached and runs up to a third faster.
    CalibrationMs.push_back(calibrationMs());
    (IsTraced ? Traced : Untraced).push_back(std::move(P));
    if (nowUs() >= Deadline && !Untraced.empty() &&
        (!A.Trace || !Traced.empty()))
      break;
  }

  // Before the cross-run check, whose reading of the executable is the
  // benchmark's own cost.
  double PeakRSS = peakRSSMegabytes();
  if (!A.StateDir.empty()) {
    std::filesystem::create_directories(A.StateDir);
    std::string Name = A.Workload == "ladder"
                           ? A.Workload
                           : A.Workload + "-seed" + std::to_string(A.Seed);
    for (const std::string &D : checkAcrossRuns(
             A.StateDir + "/" + Name + ".json", Ref.Deterministic)) {
      ++Failed;
      if (Failures.size() < 20)
        Failures.push_back(D);
    }
  }

  const Counters &C = Ref.Deterministic;
  auto Count = [&](const char *Name) {
    auto It = C.find(Name);
    return It == C.end() ? 0.0 : (double)It->second;
  };
  bool IsLadder = A.Workload == "ladder";
  // Above 1 while the host runs faster than the reference, below 1 while
  // other tenants slow it down. Set-up has its own: the host's speed often
  // changes within the first seconds of a run.
  double HostSpeed = CalibrationRefMs / median(CalibrationMs);
  double SetupHostSpeed = CalibrationRefMs / median(SetupCalibrationMs);
  double FailRatio = Attempted ? (double)Failed / Attempted : 1.0;

  std::vector<Metric> EndToEnd;
  {
    // Medians over passes: one slow stretch of a shared host moves one
    // pass, not the result. Every pass runs the same jobs, so each job's
    // latency is its median over the passes, and p50 and p95 are taken
    // over jobs. Pooled samples would let a few slow samples in the
    // ladder's very uneven mix of 31 jobs move the p50 from one group of
    // similar jobs to the next, 30% higher.
    std::vector<double> Rates, WallRates, PerJob;
    size_t Latencies = 0;
    for (const PassResult &P : Untraced) {
      Rates.push_back(P.Jobs / (P.CpuMs / 1000.0));
      WallRates.push_back(P.Jobs / (P.WallMs / 1000.0));
      Latencies += P.JobMs.size();
    }
    for (size_t J = 0; J < Untraced.front().JobMs.size(); ++J) {
      std::vector<double> Samples;
      for (const PassResult &P : Untraced)
        Samples.push_back(P.JobMs[J]);
      PerJob.push_back(median(Samples));
    }
    EndToEnd = {
        {"jobs_per_s", "1/s", median(Rates) / HostSpeed},
        {"job_ms_p50", "ms", percentile(PerJob, 50) * HostSpeed},
        {"job_ms_p95", "ms", percentile(PerJob, 95) * HostSpeed},
        {"ok_ratio", "ratio", 1.0 - FailRatio},
        {"peak_rss_mb", "MB", PeakRSS},
        // Simulated cycles exist on ladder only; elsewhere both read 1.
        {"sim_cycles_total", "cycles",
         IsLadder ? Count("sim_cycles_total") : 1.0},
        {"speedup_vs_llvm12_geomean", "x",
         IsLadder ? Untraced.front().Layer.at("speedup_vs_llvm12_geomean")
                  : 1.0},
        {"setup_s", "s", median(SetupS) * SetupHostSpeed},
    };
    std::printf("perfbench %s seed=%llu: %zu untraced passes, %zu job "
                "latencies\n",
                A.Workload.c_str(), (unsigned long long)A.Seed,
                Untraced.size(), Latencies);
    auto Spread = [](const char *What, std::vector<double> V) {
      std::sort(V.begin(), V.end());
      std::printf("  %s: min %.4g, median %.4g, max %.4g\n",
                  What, V.front(), median(V), V.back());
    };
    Spread("jobs per CPU second over passes", Rates);
    Spread("jobs per wall second over passes", WallRates);
    Spread("calibration loop ms after passes", CalibrationMs);
    Spread("calibration loop ms after set-ups", SetupCalibrationMs);
    std::printf("  host speed %.4g, in set-up %.4g (reference %.4g ms over "
                "the median); unscaled: jobs_per_s %.4g, job_ms_p50 %.4g, "
                "job_ms_p95 %.4g, setup_s %.4g\n",
                HostSpeed, SetupHostSpeed, CalibrationRefMs, median(Rates),
                percentile(PerJob, 50), percentile(PerJob, 95),
                median(SetupS));
    std::printf("  fail_ratio %s (%u failed of %u attempted)\n",
                number(FailRatio).c_str(), Failed, Attempted);
    if (IsLadder)
      std::printf("  note: simulated cycles come from an unvalidated model; "
                  "the repository holds no reference measurements\n");
  }

  std::vector<Metric> PerLayer;
  if (A.Trace) {
    double TJobs = 0;
    std::vector<double> TPassMs, UPassMs, ServiceJobMs;
    std::map<std::string, double> Layer;
    for (const PassResult &P : Traced) {
      TJobs += P.Jobs;
      TPassMs.push_back(P.CpuMs / P.Jobs);
      for (const auto &[K, V] : P.Layer)
        Layer[K] += V;
      if (!IsLadder)
        ServiceJobMs.insert(ServiceJobMs.end(), P.JobMs.begin(),
                            P.JobMs.end());
    }
    for (const PassResult &P : Untraced) {
      UPassMs.push_back(P.CpuMs / P.Jobs);
    }
    double NPasses = (double)Traced.size();
    std::map<std::string, double> Inc = Trace.inclusiveUs();
    SelfTimes Self = Trace.selfTimes();
    auto PerJobMs = [&](const char *Span) {
      return Inc[Span] / 1000.0 / TJobs;
    };
    double SimInsts = Count("gpusim.sim_insts");
    double Hits = Count("service.cache_hits");
    double Misses = Count("service.cache_misses");
    double Corrupt = 0, DiskErrors = 0, Retries = 0, ServiceFailed = 0;
    for (const auto *Set : {&Traced, &Untraced})
      for (const PassResult &P : *Set) {
        auto Get = [&](const char *K) {
          auto It = P.Layer.find(K);
          return It == P.Layer.end() ? 0.0 : It->second;
        };
        Corrupt += Get("service.cache_corrupt_entries");
        DiskErrors += Get("service.cache_disk_errors");
        Retries += Get("service.retries");
        ServiceFailed += Get("service.failed");
      }

    PerLayer = {
        {"gpusim.launch_ms", "ms", PerJobMs("gpusim.launch")},
        {"gpusim.sim_insts", "count", SimInsts},
        {"gpusim.host_ns_per_sim_inst", "ns",
         SimInsts ? Inc["gpusim.launch"] * 1000.0 / (SimInsts * NPasses) : 0},
        {"gpusim.barriers", "count", Count("gpusim.barriers")},
        {"gpusim.runtime_calls", "count", Count("gpusim.runtime_calls")},
        {"gpusim.indirect_calls", "count", Count("gpusim.indirect_calls")},
        {"gpusim.heap_fallback_bytes", "bytes",
         Count("gpusim.heap_fallback_bytes")},
        {"gpusim.shared_bytes", "bytes", Count("gpusim.shared_bytes")},
        {"gpusim.regs_per_thread_max", "count",
         Count("gpusim.regs_per_thread_max")},
        {"pipeline.optimize_ms", "ms", PerJobMs("pipeline.optimize")},
        {"pipeline.out_insts", "count", Count("pipeline.out_insts")},
        {"pipeline.pass_executions", "count",
         Layer["pipeline.pass_executions"] / NPasses},
    };
    for (const char *Pass : PassNames) {
      std::string K = std::string("pipeline.pass.") + Pass + "_ms";
      PerLayer.push_back({K, "ms", Layer[K] / TJobs});
    }
    std::vector<Metric> Rest = {
        {"core.heap_to_stack", "count", Count("core.heap_to_stack")},
        {"core.heap_to_shared", "count", Count("core.heap_to_shared")},
        {"core.spmdized_kernels", "count", Count("core.spmdized_kernels")},
        {"core.custom_state_machines", "count",
         Count("core.custom_state_machines")},
        {"core.guarded_regions", "count", Count("core.guarded_regions")},
        {"core.folded_calls", "count", Count("core.folded_calls")},
        {"frontend.emit_ms", "ms", PerJobMs("frontend.emit")},
        {"frontend.emitted_insts", "count", Count("frontend.emitted_insts")},
        {"fuzz.judge_ms", "ms", PerJobMs("fuzz.judge")},
        {"fuzz.mismatches", "count", Count("fuzz.mismatches")},
        {"service.batch_ms", "ms", Layer["service.batch_ms"] / NPasses},
        {"service.job_ms_p50", "ms", percentile(ServiceJobMs, 50)},
        {"service.lookup_ms", "ms", PerJobMs("service.lookup")},
        {"service.store_ms", "ms", PerJobMs("service.store")},
        {"service.cache_hits", "count", Hits},
        {"service.cache_misses", "count", Misses},
        {"service.hit_ratio", "ratio",
         Hits + Misses ? Hits / (Hits + Misses) : 0},
        {"service.cache_corrupt_entries", "count", Corrupt},
        {"service.cache_disk_errors", "count", DiskErrors},
        {"service.retries", "count", Retries},
        {"service.failed", "count", ServiceFailed},
        {"service.parallel_efficiency", "ratio",
         Layer["service.batch_ms"]
             ? Layer["service.job_ms_sum"] /
                   (Layer["service.batch_ms"] * O.Workers)
             : 0},
    };
    PerLayer.insert(PerLayer.end(), Rest.begin(), Rest.end());
    for (const char *L : Layers)
      PerLayer.push_back({std::string("self.") + L + "_ms", "ms",
                          Self.LayerUs[L] / 1000.0 / TJobs});
    PerLayer.push_back(
        {"self.unattributed_ms", "ms", Self.UnattributedUs / 1000.0 / TJobs});
    double Covered = Self.JobUs - Self.UnattributedUs;
    PerLayer.push_back({"trace.coverage_pct", "%",
                        Self.JobUs ? 100.0 * Covered / Self.JobUs : 0});
    PerLayer.push_back({"trace.overhead_pct", "%",
                        100.0 * (median(TPassMs) / median(UPassMs) - 1.0)});
    PerLayer.push_back({"trace.spans", "count", (double)Trace.size()});
    PerLayer.push_back({"fail_ratio", "ratio", FailRatio});

    std::printf("self time per job, %zu traced passes (%s jobs):\n",
                Traced.size(), number(TJobs).c_str());
    double JobMs = Self.JobUs / 1000.0 / TJobs;
    for (const char *L : Layers)
      std::printf("  %-14s %10.4f ms  %5.1f%%\n", L,
                  Self.LayerUs[L] / 1000.0 / TJobs,
                  JobMs ? 100.0 * Self.LayerUs[L] / Self.JobUs : 0.0);
    std::printf("  %-14s %10.4f ms  %5.1f%%\n", "unattributed",
                Self.UnattributedUs / 1000.0 / TJobs,
                JobMs ? 100.0 * Self.UnattributedUs / Self.JobUs : 0.0);
    if (!A.TraceOut.empty() && !Trace.writeChromeTrace(A.TraceOut)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                   A.TraceOut.c_str());
      ++Failed;
    } else if (!A.TraceOut.empty()) {
      std::printf("  trace: %s (%zu spans)\n", A.TraceOut.c_str(),
                  Trace.size());
    }
  }

  for (const std::string &F : Failures)
    std::printf("FAIL %s\n", F.c_str());
  printMetrics("end-to-end:", EndToEnd);
  if (A.Trace)
    printMetrics("per-layer (traced passes):", PerLayer);

  bool Correct = Failed == 0;
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : A.Trace ? PerLayer : EndToEnd) {
    Line += (First ? "\"" : ", \"") + M.Name + "\": {\"value\": " +
            number(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
