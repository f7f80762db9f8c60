//===- perfbench/src/Trace.cpp - In-memory spans for the benchmark --------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <unordered_map>

using namespace perfbench;

double perfbench::nowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

double perfbench::cpuUs() {
  timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return (double)TS.tv_sec * 1e6 + (double)TS.tv_nsec / 1e3;
}

unsigned perfbench::threadId() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Id = ++Next;
  return Id;
}

void Tracer::add(Span S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(S));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::map<std::string, double> Tracer::inclusiveUs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    Out[S.Name] += S.EndUs - S.BeginUs;
  return Out;
}

/// Escapes \p S for a JSON string literal.
static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if ((unsigned char)C >= 0x20)
      Out += C;
  }
  return Out;
}

static std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

SelfTimes Tracer::selfTimes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Children of one span run one after another on one thread, so the part
  // of the parent they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> ChildUs;
  std::unordered_map<uint64_t, const Span *> ById;
  for (const Span &S : Spans) {
    ById[S.Id] = &S;
    if (S.Parent)
      ChildUs[S.Parent] += S.EndUs - S.BeginUs;
  }
  auto UnderJob = [&](const Span &S) {
    for (const Span *P = &S; P; P = P->Parent ? ById[P->Parent] : nullptr)
      if (P->JobRoot)
        return true;
    return false;
  };

  SelfTimes T;
  for (const Span &S : Spans) {
    if (!UnderJob(S))
      continue;
    double Dur = S.EndUs - S.BeginUs;
    double Self = Dur - ChildUs[S.Id];
    if (Self < 0)
      Self = 0;
    if (S.JobRoot) {
      T.UnattributedUs += Self;
      T.JobUs += Dur;
      ++T.Jobs;
    } else {
      T.LayerUs[layerOf(S.Name)] += Self;
    }
  }
  return T;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool First = true;
  for (const Span &S : Spans) {
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"job\":%llu,"
                 "\"detail\":\"%s\"}}",
                 First ? "" : ",", S.Name.c_str(),
                 S.JobRoot ? "job" : layerOf(S.Name).c_str(), S.BeginUs,
                 S.EndUs - S.BeginUs, S.Tid, (unsigned long long)S.Id,
                 (unsigned long long)S.Parent, (unsigned long long)S.Job,
                 jsonEscape(S.Detail).c_str());
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

Scope::Scope(Tracer *T, const char *Name, uint64_t Parent, uint64_t Job,
             bool JobRoot, const std::string &Detail)
    : T(T) {
  if (!T)
    return;
  S.Id = T->newId();
  S.Parent = Parent;
  S.Job = Job;
  S.Tid = threadId();
  S.JobRoot = JobRoot;
  S.Name = Name;
  S.Detail = Detail;
  S.BeginUs = nowUs();
}

Scope::~Scope() {
  if (!T)
    return;
  S.EndUs = nowUs();
  T->add(std::move(S));
}
