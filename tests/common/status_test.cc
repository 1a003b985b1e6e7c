#include "common/status.h"

#include <gtest/gtest.h>

namespace gammadb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad field");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad field");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad field");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

TEST(StatusTest, RecoveryCodesRenderCanonically) {
  // kUnavailable and kAborted are the recovery triggers (sim/fault.h):
  // join::ExecuteJoin restarts the operator on exactly these codes.
  EXPECT_EQ(Status::Unavailable("disk gave up").ToString(),
            "Unavailable: disk gave up");
  EXPECT_EQ(Status::Aborted("node 3 crashed").ToString(),
            "Aborted: node 3 crashed");
}

TEST(StatusTest, IgnoreErrorIsANoOp) {
  const Status s = Status::Aborted("phase aborted");
  s.IgnoreError();  // documents a deliberate discard; changes nothing
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.message(), "phase aborted");
  Status::OK().IgnoreError();
}

TEST(StatusTest, UpdateKeepsTheFirstError) {
  Status st;
  st.Update(Status::OK());
  EXPECT_TRUE(st.ok());
  st.Update(Status::Unavailable("first"));
  st.Update(Status::Aborted("second"));
  st.Update(Status::OK());
  EXPECT_EQ(st, Status::Unavailable("first"));
}

TEST(StatusTest, CopyIsCheapAndEqualityHolds) {
  Status a = Status::Internal("boom");
  Status b = a;  // shared rep
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Status::OK());
  EXPECT_EQ(Status(), Status::OK());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Result<int> DoubleIfPositive(int x) {
  GAMMA_RETURN_IF_ERROR(FailIfNegative(x));
  return x * 2;
}

Result<int> ChainWithAssign(int x) {
  GAMMA_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(StatusMacrosTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(DoubleIfPositive(3).ok());
  EXPECT_EQ(DoubleIfPositive(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusMacrosTest, AssignOrReturnBindsAndPropagates) {
  auto ok = ChainWithAssign(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 11);
  EXPECT_FALSE(ChainWithAssign(-5).ok());
}

}  // namespace
}  // namespace gammadb
