// End-to-end contract of `merchctl sweep --fused`: routing a sweep
// through PlacementService::SubmitFused (one pool job per shared app
// instance) must change throughput only, never answers. We exec the
// real binary both ways and require the outputs byte-identical after
// dropping the two wall-clock lines ("pass N: ... in X.XXs" and the
// "service:" stats line, whose coalesced/cached counters legitimately
// differ between submission paths). `merchctl run` on a workload that
// does not fit the scaled machine must be a bad request, not a crash.
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace merch {
namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout only — stderr goes to the test log
};

CmdResult RunCtl(const std::string& args) {
  CmdResult r;
  const std::string cmd = std::string(MERCHCTL_BIN) + " " + args;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// Strips the wall-clock reporting lines so the comparison covers only
// simulation answers (makespans, CoVs, placements).
std::string Answers(const std::string& output) {
  std::istringstream in(output);
  std::string line;
  std::string kept;
  while (std::getline(in, line)) {
    if (line.rfind("pass ", 0) == 0) continue;
    if (line.rfind("service:", 0) == 0) continue;
    kept += line;
    kept += '\n';
  }
  return kept;
}

TEST(RunCli, UnfittableScaleExitsTwoWithMessage) {
  // At scale 1e-6 the merch policy's homogeneous bound runs use 2 MiB
  // pages, which no longer fit the scaled tiers.
  const CmdResult r = RunCtl(
      "run --app SpGEMM --policy merch --scale 1e-6 --train-regions 4 2>&1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("merchctl: workload object"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("does not fit"), std::string::npos) << r.output;
}

TEST(SweepCli, FusedAndUnfusedAnswersAreByteIdentical) {
  // All five apps x all five defined policies at two scales: fused groups
  // span the policy axis, each scale is its own group. "sparta" is
  // undefined for some apps; those ERROR lines must match byte for byte.
  const std::string grid =
      "sweep --apps all --policies pm,mm,mo,sparta,merch "
      "--scales 0.02,0.05 --work 0.1 --train-regions 6 --threads 2";
  const CmdResult plain = RunCtl(grid);
  const CmdResult fused = RunCtl(grid + " --fused");
  // The sparta ERROR rows make both exits 1; what matters is that the
  // paths agree, line for line.
  EXPECT_EQ(plain.exit_code, 1) << plain.output;
  EXPECT_EQ(plain.exit_code, fused.exit_code);

  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(fused.output));
  // Guard the filter itself: real answers must survive it.
  EXPECT_NE(plain_answers.find("makespan"), std::string::npos)
      << plain.output;
  EXPECT_NE(plain_answers.find("ERROR"), std::string::npos) << plain.output;
}

TEST(SweepCli, FusedSweepWithPlacementsPrintsIdenticalPlans) {
  const std::string grid =
      "sweep --apps DMRG,WarpX --policies pm,mo,merch --scales 0.02 "
      "--work 0.1 --train-regions 6 --threads 2 --placements";
  const CmdResult plain = RunCtl(grid);
  const CmdResult fused = RunCtl(grid + " --fused");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(fused.exit_code, 0) << fused.output;
  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(fused.output));
  EXPECT_NE(plain_answers.find("DRAM"), std::string::npos) << plain.output;
}

}  // namespace
}  // namespace merch
