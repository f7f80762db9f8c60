//===- perfbench/src/Fuzz.cpp - The `fuzz-cold`/`fuzz-warm` workloads -----===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded fuzz recipes times the fuzz preset matrix, compiled and judged
/// through the compile service the way bench/fuzz runs a campaign.
/// fuzz-cold gives every pass a fresh, empty on-disk cache, so every job
/// compiles, judges and writes an entry. fuzz-warm fills one cache during
/// set-up and gives every pass a fresh service on it, so every job is a
/// disk-tier read.
///
/// A job runs inside the service, which the benchmark sees only through
/// its Emit and Evaluate callbacks, so spans come from those: emit and
/// judge are measured directly, and the rest of each job is split at their
/// boundaries. Before Evaluate a miss spends its time in the pipeline (the
/// IR hash and the missed lookup are part of it); after Evaluate it stores
/// the entry. A hit spends everything after Emit on the lookup.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/Oracle.h"
#include "service/CompileService.h"
#include "support/Hashing.h"

#include <filesystem>

using namespace ompgpu;
using namespace perfbench;

namespace {

/// What the callbacks of one request observed.
struct JobRecord {
  double EmitBegin = 0.0, EmitEnd = 0.0, EvalBegin = 0.0, EvalEnd = 0.0;
  double EmitBeginCpu = 0.0;
  unsigned Tid = 0;
  uint64_t EmittedInsts = 0;
  uint64_t OutInsts = 0;
  std::vector<PassExecution> Passes;
};

class FuzzWorkload final : public BenchWorkload {
public:
  FuzzWorkload(const RunOptions &O, bool Warm) : Opts(O), Warm(Warm) {}

  PassResult setUp() override {
    Recipes.clear();
    // The seed picks the recipe range.
    for (unsigned I = 0; I < Opts.Recipes; ++I)
      Recipes.push_back(KernelRecipe::sample(Opts.Seed * Opts.Recipes + I + 1));
    Presets = defaultFuzzPresets();

    std::string Dir = cacheDir("fill");
    PassResult R = runBatch(Dir, nullptr, /*Count=*/true);
    if (Warm) {
      WarmDir = Dir;
      FillKeys = LastKeys;
      // The fill misses where measured passes hit; only the recipe-level
      // counts are shared with them.
      R.Deterministic.erase("service.cache_hits");
      R.Deterministic.erase("service.cache_misses");
    } else {
      std::filesystem::remove_all(Dir);
    }
    return R;
  }

  PassResult runPass(unsigned Index, Tracer *T) override {
    if (Warm)
      return runBatch(WarmDir, T, /*Count=*/false);
    std::string Dir = cacheDir("cold-" + std::to_string(Index));
    PassResult R = runBatch(Dir, T, /*Count=*/false);
    std::filesystem::remove_all(Dir);
    return R;
  }

private:
  /// A fresh, empty cache directory under the work directory.
  std::string cacheDir(const std::string &Name) const {
    std::string Dir = Opts.WorkDir + "/" + (Warm ? "warm-" : "cold-") + Name;
    std::filesystem::remove_all(Dir);
    return Dir;
  }

  CompileRequest makeRequest(const KernelRecipe &R,
                             const PipelineOptions &Preset, JobRecord *Rec,
                             bool Record, bool Count) const;
  PassResult runBatch(const std::string &Dir, Tracer *T, bool Count);

  RunOptions Opts;
  bool Warm;
  std::vector<KernelRecipe> Recipes;
  std::vector<PipelineOptions> Presets;
  std::string WarmDir;
  std::vector<std::string> FillKeys;
  std::vector<std::string> LastKeys;
  uint64_t JobCounter = 0;
};

} // namespace

/// One (recipe, preset) job, as bench/fuzz builds it for a campaign: the
/// oracle's effective pipeline, the recipe's identity as salt, and the
/// judged verdict as the cached evaluation.
CompileRequest FuzzWorkload::makeRequest(const KernelRecipe &R,
                                         const PipelineOptions &Preset,
                                         JobRecord *Rec, bool Record,
                                         bool Count) const {
  FuzzOracleOptions O;
  O.ExtraPasses = Opts.ExtraPasses;
  CompileRequest Q;
  Q.Id = "seed-" + std::to_string(R.Seed) + "/" + Preset.Name;
  Q.Pipeline = effectiveFuzzPipeline(Preset, O);
  Q.Salt = hashBytes(R.toJSON().str());
  Q.Emit = [R, Preset, Rec, Record, Count](Module &M) {
    Rec->EmitBeginCpu = cpuUs();
    if (Record) {
      Rec->Tid = threadId();
      Rec->EmitBegin = nowUs();
    }
    std::string Kernel = emitFuzzKernel(M, R, Preset);
    if (Record)
      Rec->EmitEnd = nowUs();
    if (Count)
      Rec->EmittedInsts = countInstructions(M);
    return Kernel;
  };
  Q.Evaluate = [R, Preset, Rec, Record, Count](Module &M,
                                               const CompileResult &CR,
                                               const std::string &Kernel) {
    if (Count)
      Rec->OutInsts = countInstructions(M);
    if (Record) {
      Rec->Passes = CR.Passes;
      Rec->EvalBegin = nowUs();
    }
    json::Value V = fuzzPresetOutcomeToJSON(
        judgeCompiledPreset(R, Preset, M, Kernel, CR));
    if (Record)
      Rec->EvalEnd = nowUs();
    return V;
  };
  Q.IsTransient = [](const json::Value &Evaluation) {
    return Evaluation.at("watchdog_timeout").asBool();
  };
  return Q;
}

PassResult FuzzWorkload::runBatch(const std::string &Dir, Tracer *T,
                                  bool Count) {
  std::vector<JobRecord> Records(Recipes.size() * Presets.size());
  std::vector<CompileRequest> Requests;
  for (size_t RI = 0; RI < Recipes.size(); ++RI)
    for (size_t PI = 0; PI < Presets.size(); ++PI)
      Requests.push_back(makeRequest(Recipes[RI], Presets[PI],
                                     &Records[Requests.size()], T != nullptr,
                                     Count));

  CompileService::Options SO;
  SO.Workers = Opts.Workers;
  SO.Cache.Dir = Dir;
  CompileService Service(SO);
  uint64_t BatchId = T ? T->newId() : 0;
  double Begin = nowUs(), CpuBegin = cpuUs();
  std::vector<CompileOutcome> Out = Service.compileBatch(Requests);
  double End = nowUs(), CpuEnd = cpuUs();
  const BatchStats &B = Service.lastBatchStats();

  PassResult R;
  R.CpuMs = (CpuEnd - CpuBegin) / 1000.0;
  R.WallMs = (End - Begin) / 1000.0;
  Counters &C = R.Deterministic;
  C["fuzz.mismatches"] = 0;
  uint64_t Digest = 0;
  LastKeys.clear();
  for (size_t I = 0; I < Out.size(); ++I) {
    const CompileOutcome &O = Out[I];
    ++R.Jobs;
    // One worker runs the jobs in request order on this thread, so a job's
    // CPU time lasts until the next job's Emit (or the batch's end).
    if (Opts.Workers == 1)
      R.JobMs.push_back(((I + 1 < Out.size() ? Records[I + 1].EmitBeginCpu
                                              : CpuEnd) -
                         Records[I].EmitBeginCpu) /
                        1000.0);
    else
      R.JobMs.push_back(O.WallMillis);
    std::string Key = O.resultKey();
    if (Warm && !FillKeys.empty() && Key != FillKeys[I])
      R.fail(O.Id + ": served result differs from the one the fill stored");
    Digest = hashCombine(Digest, hashBytes(Key));
    LastKeys.push_back(std::move(Key));
    if (!O.Error.empty()) {
      R.fail(O.Id + ": service error: " + O.Error);
      continue;
    }
    Expected<FuzzPresetOutcome> V = fuzzPresetOutcomeFromJSON(O.evaluation());
    if (!V) {
      R.fail(O.Id + ": " + V.message());
      continue;
    }
    if (!V->OK) {
      ++C["fuzz.mismatches"];
      R.fail(O.Id + ": " + V->Reason);
    }

    const json::Value &Stats = O.summary().at("openmp_opt_stats");
    OpenMPOptStats S;
    S.HeapToStack = (unsigned)Stats.at("heap_to_stack").asInt();
    S.HeapToShared = (unsigned)Stats.at("heap_to_shared").asInt();
    S.SPMDzedKernels = (unsigned)Stats.at("spmdzed_kernels").asInt();
    S.CustomStateMachines =
        (unsigned)Stats.at("custom_state_machines").asInt();
    S.GuardedRegions = (unsigned)Stats.at("guarded_regions").asInt();
    S.FoldedExecMode = (unsigned)Stats.at("folded_exec_mode").asInt();
    S.FoldedParallelLevel = (unsigned)Stats.at("folded_parallel_level").asInt();
    S.FoldedLaunchParams = (unsigned)Stats.at("folded_launch_params").asInt();
    addOptStats(C, S);

    const JobRecord &Rec = Records[I];
    if (Count) {
      C["frontend.emitted_insts"] += Rec.EmittedInsts;
      C["pipeline.out_insts"] += Rec.OutInsts;
    }
    for (const PassExecution &E : Rec.Passes)
      R.Layer["pipeline.pass." + E.Name + "_ms"] += E.WallMillis;
    R.Layer["pipeline.pass_executions"] += Rec.Passes.size();
  }
  C["fuzz.result_digest"] = Digest;
  C["service.cache_hits"] = B.CacheHits;
  C["service.cache_misses"] = B.CacheMisses;

  R.Layer["service.batch_ms"] = R.WallMs;
  R.Layer["service.job_ms_sum"] = B.JobMillis;
  R.Layer["service.cache_corrupt_entries"] = (double)B.CacheCorruptEntries;
  R.Layer["service.cache_disk_errors"] = (double)B.CacheDiskErrors;
  R.Layer["service.retries"] = B.Retries;
  R.Layer["service.failed"] = B.Failed;

  if (!T)
    return R;
  // Rebuild each job's spans from its callback boundaries. The service
  // times a job from just before Emit, so Emit's start plus the job's wall
  // time ends at or slightly after the job's real end.
  T->add({BatchId, 0, 0, threadId(), false, "service.batch", Begin, End, ""});
  for (size_t I = 0; I < Out.size(); ++I) {
    const JobRecord &Rec = Records[I];
    if (Rec.EmitBegin == 0.0)
      continue; // failed before Emit: nothing to place
    uint64_t JobNo = ++JobCounter;
    uint64_t JobId = T->newId();
    double JobEnd = Rec.EmitBegin + Out[I].WallMillis * 1000.0;
    T->add({JobId, BatchId, JobNo, Rec.Tid, true, "service.job",
            Rec.EmitBegin, JobEnd, Out[I].Id});
    auto Child = [&](const char *Name, double B, double E) {
      if (E > B)
        T->add({T->newId(), JobId, JobNo, Rec.Tid, false, Name, B, E, ""});
    };
    Child("frontend.emit", Rec.EmitBegin, Rec.EmitEnd);
    if (Out[I].CacheHit || Rec.EvalBegin == 0.0) {
      Child("service.lookup", Rec.EmitEnd, JobEnd);
      continue;
    }
    Child("pipeline.optimize", Rec.EmitEnd, Rec.EvalBegin);
    Child("fuzz.judge", Rec.EvalBegin, Rec.EvalEnd);
    Child("service.store", Rec.EvalEnd, JobEnd);
  }
  return R;
}

std::unique_ptr<BenchWorkload> perfbench::makeFuzzCold(const RunOptions &O) {
  return std::make_unique<FuzzWorkload>(O, /*Warm=*/false);
}

std::unique_ptr<BenchWorkload> perfbench::makeFuzzWarm(const RunOptions &O) {
  return std::make_unique<FuzzWorkload>(O, /*Warm=*/true);
}
