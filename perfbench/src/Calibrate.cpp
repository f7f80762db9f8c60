//===- perfbench/src/Calibrate.cpp - Host speed reference loop ------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of work whose CPU time tells how fast the shared host runs
/// the benchmark at the moment. On the reference host, other tenants'
/// use of the shared caches slows allocation-heavy code with a large code
/// footprint by up to 40% for minutes at a time, while plain arithmetic
/// stays within a few percent; process CPU time does not hide it. So the
/// loop does the kinds of work the workloads' host time is made of. String
/// formatting, hashed containers, sorting and regular expressions run much
/// code over little data, as the fuzz workloads' emit, hashing and parsing
/// do; a 20000-node ordered map of strings, about 1.6 MB, most of a core's
/// L2 cache on the reference host, chases pointers through much data, as
/// gpusim's interpreter does. Either half alone tracked only one kind of workload. The loop uses
/// only the standard library and is built with the benchmark's own flags,
/// so no change to the program under test changes its speed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <map>
#include <regex>
#include <sstream>
#include <unordered_map>

double perfbench::calibrationMs() {
  double Begin = cpuUs();
  uint64_t X = 88172645463325252ull; // xorshift64: the same work every time
  auto Next = [&] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::vector<std::string> Words;
  std::ostringstream OS;
  for (int I = 0; I < 4000; ++I) {
    OS.str("");
    OS << "w" << Next() % 100000 << "_" << (double)(Next() % 1000) / 7.0;
    Words.push_back(OS.str());
  }
  std::unordered_map<std::string, std::vector<int>> ByWord;
  for (size_t I = 0; I < Words.size(); ++I)
    ByWord[Words[I]].push_back((int)I);
  std::map<std::string, size_t> Ordered;
  for (const auto &[W, Positions] : ByWord)
    Ordered[W] = Positions.size();
  std::sort(Words.begin(), Words.end());
  static const std::regex Pattern("w([0-9]+)_([0-9]+)\\.([0-9]{2})");
  size_t Matched = 0;
  for (size_t I = 0; I < Words.size(); I += 8) {
    std::smatch M;
    if (std::regex_match(Words[I], M, Pattern))
      Matched += (size_t)M[1].length();
  }
  std::map<std::string, unsigned> Large;
  for (unsigned I = 0; I < 20000; ++I)
    Large[std::to_string(I * 7919u % 100003u) + "-key"] = I;
  size_t Sum = 0;
  for (const auto &[Key, Value] : Large)
    Sum += Value + Key.size();
  // Keeps the compiler from dropping the work.
  volatile size_t Sink = Matched + Ordered.size() + Sum;
  (void)Sink;
  return (cpuUs() - Begin) / 1000.0;
}
