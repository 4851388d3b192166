// TCB_TUNE_CACHE round-trip: gemm_autotune_all() persists the per-class
// blocking selections, and a process started on the same machine (simulated
// here with gemm_tuning_reset_for_test) must reload selections that produce
// a bit-identical gemm_tuning_summary(). Autotuning is forced OFF for the
// whole suite — trial timings would make the selection depend on machine
// load, and the round-trip only needs *some* deterministic selection to
// survive the write -> reload cycle.

#include "tensor/tuning.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace tcb {
namespace {

class TuneCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_autotune_ = save("TCB_GEMM_AUTOTUNE");
    saved_cache_ = save("TCB_TUNE_CACHE");
    ::setenv("TCB_GEMM_AUTOTUNE", "0", 1);
    // One file per case: ctest runs the cases as concurrent processes, and
    // a shared path would let one case's remove or bogus write land between
    // another's write and reload.
    const char* test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    cache_path_ =
        ::testing::TempDir() + "tcb_tune_cache_" + test_name + ".json";
    std::remove(cache_path_.c_str());
    ::setenv("TCB_TUNE_CACHE", cache_path_.c_str(), 1);
    gemm_tuning_reset_for_test();
  }

  void TearDown() override {
    std::remove(cache_path_.c_str());
    restore("TCB_GEMM_AUTOTUNE", saved_autotune_);
    restore("TCB_TUNE_CACHE", saved_cache_);
    // Later suites in this binary must re-resolve from the pristine env,
    // not inherit a selection made under the temp cache file.
    gemm_tuning_reset_for_test();
  }

  static std::optional<std::string> save(const char* name) {
    const char* v = std::getenv(name);
    return v ? std::optional<std::string>(v) : std::nullopt;
  }

  static void restore(const char* name, const std::optional<std::string>& v) {
    if (v)
      ::setenv(name, v->c_str(), 1);
    else
      ::unsetenv(name);
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string cache_path_;
  std::optional<std::string> saved_autotune_;
  std::optional<std::string> saved_cache_;
};

TEST_F(TuneCacheTest, WriteThenReloadGivesIdenticalSummary) {
  gemm_autotune_all();  // selects every class and writes the cache file
  const std::string first = gemm_tuning_summary();

  const std::string doc = slurp(cache_path_);
  ASSERT_FALSE(doc.empty()) << "gemm_autotune_all did not write "
                            << cache_path_;
  EXPECT_NE(doc.find("\"l1d_bytes\""), std::string::npos);
  EXPECT_NE(doc.find("\"l2_bytes\""), std::string::npos);

  // Every class's selected tag (as reported by the summary) must appear in
  // the file under that class's key, so a future process resolves the same
  // candidate by tag lookup.
  for (int c = 0; c < kGemmShapeClassCount; ++c) {
    const std::string name =
        gemm_shape_class_name(static_cast<GemmShapeClass>(c));
    const std::string marker = " " + name + "=";
    const auto pos = first.find(marker);
    ASSERT_NE(pos, std::string::npos) << name << " missing from: " << first;
    const auto start = pos + marker.size();
    const std::string tag =
        first.substr(start, first.find(' ', start) - start);
    EXPECT_NE(doc.find("\"" + name + "\": \"" + tag + "\""),
              std::string::npos)
        << "cache file lacks " << name << " -> " << tag << ":\n"
        << doc;
  }

  // "Restart": forget the published selections; the next summary must
  // resolve every class from the cache file and match bit for bit.
  gemm_tuning_reset_for_test();
  EXPECT_EQ(gemm_tuning_summary(), first);
}

TEST_F(TuneCacheTest, CacheFromDifferentGeometryIsIgnored) {
  // Baseline: selection with no cache file at all.
  ::unsetenv("TCB_TUNE_CACHE");
  gemm_tuning_reset_for_test();
  const std::string no_cache = gemm_tuning_summary();

  // A cache recorded on a machine with different cache sizes must not steer
  // the selection — its geometry stamp fails the match and the loader falls
  // back as if the file were absent.
  {
    std::ofstream out(cache_path_);
    out << "{\n  \"l1d_bytes\": 1,\n  \"l2_bytes\": 2,\n"
        << "  \"square\": \"bogus/kc256\",\n  \"tall\": \"bogus/kc256\",\n"
        << "  \"wide\": \"bogus/kc256\"\n}\n";
  }
  ::setenv("TCB_TUNE_CACHE", cache_path_.c_str(), 1);
  gemm_tuning_reset_for_test();
  EXPECT_EQ(gemm_tuning_summary(), no_cache);
}

TEST_F(TuneCacheTest, MissingCacheFileFallsBackToDefault) {
  // TCB_TUNE_CACHE pointing at a nonexistent file must behave exactly like
  // no cache var at all (and not create the file as a side effect of
  // reading).
  gemm_tuning_reset_for_test();
  (void)gemm_tuning_summary();
  std::ifstream probe(cache_path_);
  EXPECT_FALSE(probe.good())
      << "selection alone must not create the cache file";
}

}  // namespace
}  // namespace tcb
