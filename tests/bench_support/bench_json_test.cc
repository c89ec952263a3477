// The PROXDET_BENCH_JSON path convention every bench binary shares:
// "0" disables emission, unset/""/"1" resolve to the current directory,
// anything else is the target directory (with or without a trailing '/').

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bench_support/bench_json.h"

namespace proxdet {
namespace {

class BenchJsonPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("PROXDET_BENCH_JSON");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  void TearDown() override {
    if (had_old_) {
      ::setenv("PROXDET_BENCH_JSON", old_.c_str(), 1);
    } else {
      ::unsetenv("PROXDET_BENCH_JSON");
    }
  }
  void Set(const char* value) { ::setenv("PROXDET_BENCH_JSON", value, 1); }
  void Unset() { ::unsetenv("PROXDET_BENCH_JSON"); }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST_F(BenchJsonPathTest, UnsetWritesToCurrentDirectory) {
  Unset();
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "BENCH_x.json");
}

TEST_F(BenchJsonPathTest, ZeroDisablesEmission) {
  Set("0");
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "");
}

TEST_F(BenchJsonPathTest, OneAndEmptyMeanCurrentDirectory) {
  Set("1");
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "BENCH_x.json");
  Set("");
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "BENCH_x.json");
}

TEST_F(BenchJsonPathTest, OtherValuesAreTargetDirectories) {
  Set("/tmp/artifacts");
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "/tmp/artifacts/BENCH_x.json");
  // A trailing slash is not doubled.
  Set("/tmp/artifacts/");
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "/tmp/artifacts/BENCH_x.json");
  // Relative directories pass through untouched.
  Set("out");
  EXPECT_EQ(BenchJsonPath("BENCH_x.json"), "out/BENCH_x.json");
}

TEST_F(BenchJsonPathTest, FilenameIsNotInterpreted) {
  Set("/tmp");
  EXPECT_EQ(BenchJsonPath("REPORT_fig9.json"), "/tmp/REPORT_fig9.json");
  Unset();
  EXPECT_EQ(BenchJsonPath("TRACE_net.json"), "TRACE_net.json");
}

// The machine block every BENCH file records: one JSON object naming the
// CPU count, CPU model, SIMD backend and build type, on one line.
TEST(MachineJsonTest, NamesTheMachineInOneObject) {
  const std::string machine = MachineJson();
  EXPECT_EQ(machine.rfind("{\"nproc\": ", 0), 0u) << machine;
  EXPECT_EQ(machine.back(), '}');
  for (const char* key : {"\"cpu_model\": \"", "\"simd_backend\": \"",
                          "\"build_type\": \""}) {
    EXPECT_NE(machine.find(key), std::string::npos) << key << " in " << machine;
  }
  EXPECT_EQ(machine.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace proxdet
