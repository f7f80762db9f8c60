//===- perfbench/src/Ladder.cpp - The `ladder` workload -------------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation as a closed loop: the four proxies at
/// ProblemSize::Small times the Fig. 11 configuration ladder, one job at a
/// time. Every job emits, optimizes and launches the whole grid, so every
/// output is checked against the proxy's host reference. The seed only
/// permutes the job order of each pass.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Presets.h"
#include "fuzz/FuzzRNG.h"
#include "ir/IRContext.h"
#include "ir/Module.h"
#include "support/Hashing.h"
#include "workloads/Harness.h"

#include <algorithm>
#include <cmath>

using namespace ompgpu;
using namespace perfbench;

namespace {

struct LadderJob {
  unsigned Proxy = 0;
  unsigned Preset = 0;
};

class Ladder final : public BenchWorkload {
public:
  explicit Ladder(const RunOptions &O) : Opts(O) {}

  PassResult setUp() override {
    Proxies.clear();
    Proxies.push_back(createXSBench(ProblemSize::Small));
    Proxies.push_back(createRSBench(ProblemSize::Small));
    Proxies.push_back(createSU3Bench(ProblemSize::Small));
    Proxies.push_back(createMiniQMC(ProblemSize::Small));
    Presets = evaluationPresetLadder();
    for (PresetSpec &S : Presets)
      for (const PipelineOptions::ExtraPass &E : Opts.ExtraPasses)
        S.Pipeline.ExtraPasses.push_back(E);

    Jobs.clear();
    for (unsigned W = 0; W < Proxies.size(); ++W)
      for (unsigned P = 0; P < Presets.size(); ++P) {
        if (Presets[P].UseCUDA && !hasCUDAVersion(*Proxies[W]))
          continue; // miniQMC: the paper has no CUDA version either
        Jobs.push_back({W, P});
      }
    return run(0, nullptr, /*Reference=*/true);
  }

  PassResult runPass(unsigned Index, Tracer *T) override {
    return run(Index + 1, T, /*Reference=*/false);
  }

private:
  static bool hasCUDAVersion(Workload &W) {
    IRContext Ctx;
    Module M(Ctx, "cuda-probe");
    return W.buildCUDA(M) != nullptr;
  }

  /// Job order of pass \p Index: a seeded Fisher-Yates shuffle.
  std::vector<unsigned> order(unsigned Index) const {
    std::vector<unsigned> Order(Jobs.size());
    for (unsigned I = 0; I < Order.size(); ++I)
      Order[I] = I;
    FuzzRNG RNG(hashCombine(Opts.Seed, Index));
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[RNG.next(I)]);
    return Order;
  }

  PassResult run(unsigned Index, Tracer *T, bool Reference);

  RunOptions Opts;
  std::vector<std::unique_ptr<Workload>> Proxies;
  std::vector<PresetSpec> Presets;
  std::vector<LadderJob> Jobs;
  uint64_t JobCounter = 0;
};

} // namespace

PassResult Ladder::run(unsigned Index, Tracer *T, bool Reference) {
  PassResult R;
  // Per-job counters in canonical job order, hashed into one digest so a
  // drift in any single job shows even when pass sums happen to agree.
  std::vector<uint64_t> JobDigest(Jobs.size(), 0);
  std::vector<uint64_t> Cycles(Jobs.size(), 0);
  R.JobMs.assign(Jobs.size(), 0.0); // canonical order, like the digests
  Counters &C = R.Deterministic;
  double PassBegin = nowUs(), PassCpuBegin = cpuUs();

  for (unsigned Idx : order(Index)) {
    const LadderJob &J = Jobs[Idx];
    Workload &W = *Proxies[J.Proxy];
    const PresetSpec &S = Presets[J.Preset];
    PipelineOptions P = S.Pipeline;
    // Pass timing feeds pipeline.pass.<name>_ms. It is cheap and does not
    // change what is compiled; ladder compiles are not cached.
    P.Instrument.TimePasses = T != nullptr;
    std::string Label = W.getName() + "/" + S.Label;
    uint64_t JobNo = ++JobCounter;

    double JobCpuBegin = cpuUs();
    // One job; an early return records a failure and ends the job.
    auto RunJob = [&] {
      Scope Job(T, "ladder.job", 0, JobNo, /*JobRoot=*/true, Label);
      IRContext Ctx;
      Module M(Ctx, W.getName());
      Function *Kernel = nullptr;
      {
        Scope Span(T, "frontend.emit", Job.id(), JobNo);
        Kernel = emitWorkloadModule(W, M, P, S.UseCUDA);
      }
      if (!Kernel) {
        R.fail(Label + ": no kernel emitted");
        return;
      }
      if (Reference)
        C["frontend.emitted_insts"] += countInstructions(M);
      std::string KernelName = Kernel->getName();

      CompileResult CR;
      {
        Scope Span(T, "pipeline.optimize", Job.id(), JobNo);
        CR = optimizeDeviceModule(M, P);
      }
      Kernel = M.getFunction(KernelName);
      if (CR.VerifyFailed || !Kernel) {
        R.fail(Label + ": compile failed: " + CR.VerifyError);
        return;
      }
      if (Reference)
        C["pipeline.out_insts"] += countInstructions(M);
      for (const PassExecution &E : CR.Passes)
        R.Layer["pipeline.pass." + E.Name + "_ms"] += E.WallMillis;
      R.Layer["pipeline.pass_executions"] += CR.Passes.size();
      addOptStats(C, CR.Stats);

      LaunchCheckResult L;
      {
        Scope Span(T, "gpusim.launch", Job.id(), JobNo);
        L = launchAndCheckWorkload(W, M, Kernel, P);
      }
      const KernelStats &K = L.Stats;
      if (!K.ok() || K.OutOfMemory || !L.Checked || !L.Correct)
        R.fail(Label + ": " +
               (!K.ok()          ? "trap: " + K.Trap
                : K.OutOfMemory  ? std::string("out of memory")
                : !L.Checked     ? std::string("outputs not checked")
                                 : std::string("wrong outputs")));

      uint64_t H = hashBytes(Label);
      K.forEachCounter(
          [&](const char *, uint64_t V) { H = hashCombine(H, V); });
      H = hashCombine(H, K.RegsPerThread);
      H = hashCombine(H, K.StaticSharedBytes + K.DynamicSharedBytes);
      JobDigest[Idx] = H;
      Cycles[Idx] = K.Cycles;

      C["sim_cycles_total"] += K.Cycles;
      C["gpusim.sim_insts"] += K.DynamicInstructions;
      C["gpusim.barriers"] += K.Barriers;
      C["gpusim.runtime_calls"] += K.RuntimeCalls;
      C["gpusim.indirect_calls"] += K.IndirectCalls;
      C["gpusim.heap_fallback_bytes"] += K.HeapFallbackBytes;
      C["gpusim.shared_bytes"] += K.StaticSharedBytes + K.DynamicSharedBytes;
      C["gpusim.regs_per_thread_max"] =
          std::max<uint64_t>(C["gpusim.regs_per_thread_max"], K.RegsPerThread);
    };
    RunJob();
    R.JobMs[Idx] = (cpuUs() - JobCpuBegin) / 1000.0;
    ++R.Jobs;
  }
  R.CpuMs = (cpuUs() - PassCpuBegin) / 1000.0;
  R.WallMs = (nowUs() - PassBegin) / 1000.0;

  uint64_t Digest = 0;
  for (uint64_t H : JobDigest)
    Digest = hashCombine(Digest, H);
  C["ladder.job_digest"] = Digest;

  // Fig. 11's headline ratio per proxy: kernel cycles of LLVM 12 over
  // LLVM Dev 0 (the full ladder), combined by geometric mean.
  double LogSum = 0.0;
  unsigned N = 0;
  for (unsigned W = 0; W < Proxies.size(); ++W) {
    uint64_t Base = 0, Dev = 0;
    for (unsigned I = 0; I < Jobs.size(); ++I) {
      if (Jobs[I].Proxy != W)
        continue;
      const std::string &L = Presets[Jobs[I].Preset].Label;
      if (L == "LLVM 12")
        Base = Cycles[I];
      else if (L.find("(LLVM Dev 0)") != std::string::npos)
        Dev = Cycles[I];
    }
    if (Base && Dev) {
      LogSum += std::log((double)Base / (double)Dev);
      ++N;
    }
  }
  if (N != Proxies.size())
    R.fail("ladder: LLVM 12 or LLVM Dev 0 cycles missing for a proxy");
  R.Layer["speedup_vs_llvm12_geomean"] = N ? std::exp(LogSum / N) : 0.0;
  return R;
}

std::unique_ptr<BenchWorkload> perfbench::makeLadder(const RunOptions &O) {
  return std::make_unique<Ladder>(O);
}

uint64_t perfbench::countInstructions(const Module &M) {
  uint64_t N = 0;
  for (Function *F : M.functions())
    for (BasicBlock *BB : *F)
      N += BB->size();
  return N;
}

void perfbench::addOptStats(Counters &C, const OpenMPOptStats &S) {
  C["core.heap_to_stack"] += S.HeapToStack;
  C["core.heap_to_shared"] += S.HeapToShared;
  C["core.spmdized_kernels"] += S.SPMDzedKernels;
  C["core.custom_state_machines"] += S.CustomStateMachines;
  C["core.guarded_regions"] += S.GuardedRegions;
  C["core.folded_calls"] +=
      S.FoldedExecMode + S.FoldedParallelLevel + S.FoldedLaunchParams;
}
