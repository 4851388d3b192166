#include "tensor/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace tcb {
namespace {

class TensorIoTest : public ::testing::Test {
 protected:
  // One file per test case: ctest runs the cases as concurrent processes,
  // and a shared path let one case's TearDown delete another's file.
  std::string path_ =
      ::testing::TempDir() + "tcb_tensor_io_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TensorIoTest, SingleTensorRoundTrip) {
  Rng rng(9);
  const Tensor original = Tensor::random_uniform(Shape{3, 5, 2}, rng, 1.0f);
  save_tensor(path_, original);
  const Tensor loaded = load_tensor(path_);
  EXPECT_EQ(loaded.shape(), original.shape());
  EXPECT_EQ(max_abs_diff(loaded, original), 0.0f);
}

TEST_F(TensorIoTest, BundleRoundTrip) {
  Rng rng(11);
  std::map<std::string, Tensor> bundle;
  bundle.emplace("weights", Tensor::random_uniform(Shape{4, 4}, rng, 1.0f));
  bundle.emplace("bias", Tensor::random_uniform(Shape{4}, rng, 1.0f));
  save_tensor_bundle(path_, bundle);
  const auto loaded = load_tensor_bundle(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(max_abs_diff(loaded.at("weights"), bundle.at("weights")), 0.0f);
  EXPECT_EQ(max_abs_diff(loaded.at("bias"), bundle.at("bias")), 0.0f);
}

TEST_F(TensorIoTest, EmptyTensor) {
  const Tensor empty(Shape{0, 4});
  save_tensor(path_, empty);
  const Tensor loaded = load_tensor(path_);
  EXPECT_EQ(loaded.shape(), (Shape{0, 4}));
}

TEST_F(TensorIoTest, CorruptedPayloadFailsChecksum) {
  Rng rng(13);
  save_tensor(path_, Tensor::random_uniform(Shape{8, 8}, rng, 1.0f));
  {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(40);  // inside the payload
    const char garbage = 0x5A;
    file.write(&garbage, 1);
  }
  EXPECT_THROW((void)load_tensor(path_), std::runtime_error);
}

TEST_F(TensorIoTest, TruncatedFileFails) {
  Rng rng(15);
  save_tensor(path_, Tensor::random_uniform(Shape{8, 8}, rng, 1.0f));
  // Truncate to the first 20 bytes.
  std::string head;
  {
    std::ifstream in(path_, std::ios::binary);
    head.resize(20);
    in.read(head.data(), 20);
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(head.data(), 20);
  }
  EXPECT_THROW((void)load_tensor(path_), std::runtime_error);
}

TEST_F(TensorIoTest, BadMagicFails) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOPE-this-is-not-a-tensor-file";
  }
  EXPECT_THROW((void)load_tensor(path_), std::runtime_error);
}

TEST_F(TensorIoTest, MissingFileFails) {
  EXPECT_THROW((void)load_tensor("/nonexistent/tensor.bin"),
               std::runtime_error);
}

TEST(Fnv1aTest, KnownVectorsAndSensitivity) {
  // FNV-1a of the empty input is the offset basis.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_NE(fnv1a(a, 5), fnv1a(b, 5));
}

}  // namespace
}  // namespace tcb
