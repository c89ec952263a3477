#ifndef PROXDET_BENCH_SUPPORT_BENCH_JSON_H_
#define PROXDET_BENCH_SUPPORT_BENCH_JSON_H_

#include <string>

namespace proxdet {

/// Resolves the output path for a benchmark JSON artifact from the
/// PROXDET_BENCH_JSON environment variable, the convention every bench
/// binary shares: "0" disables emission (returns the empty string),
/// unset/""/"1" writes `filename` to the current directory, and any other
/// value is the target directory.
std::string BenchJsonPath(const std::string& filename);

/// The machine a benchmark ran on, as one JSON object for a BENCH file's
/// "machine" block: online CPUs ("nproc"), the CPU model, the active SIMD
/// kernel backend and the build type the library was compiled with.
std::string MachineJson();

}  // namespace proxdet

#endif  // PROXDET_BENCH_SUPPORT_BENCH_JSON_H_
