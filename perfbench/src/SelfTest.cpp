//===- perfbench/src/SelfTest.cpp - The benchmark's own checks ------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shows that the benchmark's checks can fail: counters repeat across
/// worker counts, an injected miscompile fails ladder and fuzz-cold jobs,
/// and a corrupted fuzz-warm cache entry is recomputed instead of served.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "support/Casting.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace ompgpu;
using namespace perfbench;

/// Deletes every floating-point store: verifier-clean, but every proxy and
/// every fuzz kernel computes wrong outputs.
static bool dropFloatingPointStores(Module &M) {
  bool Changed = false;
  for (Function *F : M.functions())
    for (BasicBlock *BB : F->getBlocks())
      for (Instruction *I : BB->getInstructions())
        if (auto *St = dyn_cast<StoreInst>(I);
            St && St->getAccessType()->isFloatingPointTy()) {
          St->eraseFromParent();
          Changed = true;
        }
  return Changed;
}

int perfbench::runSelfTest(const std::string &WorkDir) {
  unsigned Bad = 0;
  auto Check = [&](bool OK, const std::string &What) {
    std::printf("%s %s\n", OK ? "ok  " : "FAIL", What.c_str());
    Bad += !OK;
  };
  auto Ratio = [](const PassResult &P) {
    return std::to_string(P.Failed) + "/" + std::to_string(P.Jobs);
  };

  RunOptions Small;
  Small.Recipes = 4;
  Small.WorkDir = WorkDir + "/self-test";
  std::filesystem::remove_all(Small.WorkDir);
  std::filesystem::create_directories(Small.WorkDir);

  {
    RunOptions One = Small, Many = Small;
    One.Workers = 1;
    Many.Workers = 4;
    auto A = makeFuzzCold(One), B = makeFuzzCold(Many);
    PassResult RA = A->setUp(), RB = B->setUp();
    PassResult PA = A->runPass(0, nullptr), PB = B->runPass(0, nullptr);
    Check(RA.Failed + RB.Failed + PA.Failed + PB.Failed == 0,
          "fuzz-cold passes are clean with 1 and 4 workers");
    Check(RA.Deterministic == RB.Deterministic &&
              PA.Deterministic == PB.Deterministic,
          "counters repeat exactly across 1 and 4 service workers");
  }

  {
    RunOptions Sabotaged = Small;
    Sabotaged.ExtraPasses.push_back(
        {"drop-fp-stores", dropFloatingPointStores});
    PassResult L = makeLadder(Sabotaged)->setUp();
    Check(L.Failed > 0, "a miscompiling pass fails ladder jobs (" + Ratio(L) +
                            " failed)");
    PassResult F = makeFuzzCold(Sabotaged)->setUp();
    Check(F.Failed > 0, "a miscompiling pass fails fuzz-cold jobs (" +
                            Ratio(F) + " failed)");
  }

  {
    auto W = makeFuzzWarm(Small);
    PassResult Fill = W->setUp();
    std::string Victim;
    for (const auto &E : std::filesystem::directory_iterator(
             Small.WorkDir + "/warm-fill"))
      if (E.path().extension() == ".json" &&
          (Victim.empty() || E.path().string() < Victim))
        Victim = E.path().string();
    std::ofstream(Victim, std::ios::trunc) << "{\"cache_schema\": ";
    PassResult P = W->runPass(0, nullptr);
    Check(Fill.Failed == 0 && !Victim.empty() && P.Failed == 0,
          "a corrupted fuzz-warm entry is recomputed to the fill's result");
    Check(P.Layer["service.cache_corrupt_entries"] == 1 &&
              P.Deterministic["service.cache_misses"] == 1,
          "it is counted in service.cache_corrupt_entries, not served");
  }

  std::filesystem::remove_all(Small.WorkDir);
  std::printf("self-test: %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}
