#include "bench_support/bench_json.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "geom/simd/simd.h"
#include "obs/report.h"

namespace proxdet {

std::string BenchJsonPath(const std::string& filename) {
  const char* env = std::getenv("PROXDET_BENCH_JSON");
  if (env != nullptr && std::strcmp(env, "0") == 0) return "";
  std::string dir;
  if (env != nullptr && std::strcmp(env, "1") != 0 && env[0] != '\0') {
    dir = env;
    if (dir.back() != '/') dir.push_back('/');
  }
  return dir + filename;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    const size_t begin = colon == std::string::npos
                             ? std::string::npos
                             : line.find_first_not_of(' ', colon + 1);
    if (begin != std::string::npos) return line.substr(begin);
  }
  return "unknown";
}

}  // namespace

std::string MachineJson() {
  const auto quoted = [](const std::string& v) {
    return "\"" + obs::JsonEscape(v) + "\"";
  };
  std::string s = "{\"nproc\": ";
  s += std::to_string(std::thread::hardware_concurrency());
  s += ", \"cpu_model\": " + quoted(CpuModel());
  s += ", \"simd_backend\": " +
       quoted(simd::BackendName(simd::ActiveBackend()));
  s += ", \"build_type\": " + quoted(PROXDET_BUILD_TYPE);
  return s + "}";
}

}  // namespace proxdet
