// Tests for the paper's extensibility claim (Section 5.3): porting
// Merchandiser to a different HM system needs only (1) regenerated
// training data, (2) a re-trained scaling function, (3) re-measured
// basic-block times — all automated here via MachineSpec swap.
#include <gtest/gtest.h>

#include "baselines/pm_only.h"
#include "core/merchandiser.h"
#include "sim/engine.h"

namespace merch {
namespace {

sim::MachineSpec CxlMachine() {
  sim::MachineSpec m = sim::MachineSpec::Paper();
  m.hm = hm::HmSpec::CxlLike();
  return m;
}

sim::Workload SmallWorkload() {
  sim::Workload w;
  w.name = "ext";
  w.objects.push_back(
      sim::ObjectDecl{.name = "a", .bytes = 8 * GiB, .owner = 0});
  w.objects.push_back(
      sim::ObjectDecl{.name = "b", .bytes = 4 * GiB, .owner = 1});
  for (int r = 0; r < 3; ++r) {
    sim::Region region;
    region.name = "r";
    region.name += std::to_string(r);
    for (int t = 0; t < 2; ++t) {
      sim::Kernel k;
      k.name = "k";
      k.instructions = 10000000;
      trace::ObjectAccess a;
      a.object = static_cast<ObjectId>(t);
      a.pattern = trace::AccessPattern::kRandom;
      a.program_accesses =
          static_cast<std::uint64_t>((t == 0 ? 6e7 : 2.5e7) * (1.0 + 0.1 * r));
      k.accesses.push_back(a);
      region.tasks.push_back(
          sim::TaskProgram{.task = static_cast<TaskId>(t), .kernels = {k}});
    }
    region.active_bytes = {8 * GiB, 4 * GiB};
    w.regions.push_back(region);
  }
  return w;
}

TEST(Extensibility, CxlSpecIsFasterSlowTierThanOptane) {
  const hm::HmSpec cxl = hm::HmSpec::CxlLike();
  const hm::HmSpec optane = hm::HmSpec::PaperOptane();
  EXPECT_GT(cxl[hm::Tier::kPm].read_bandwidth_gbps,
            optane[hm::Tier::kPm].read_bandwidth_gbps);
  EXPECT_LT(cxl[hm::Tier::kPm].rand_latency_ns,
            optane[hm::Tier::kPm].rand_latency_ns);
  EXPECT_LT(cxl[hm::Tier::kPm].write_latency_factor,
            optane[hm::Tier::kPm].write_latency_factor);
}

TEST(Extensibility, RetrainedSystemImprovesOnCxl) {
  // Step 1+2: regenerate training data on the CXL machine and retrain f.
  workloads::TrainingConfig training;
  training.num_regions = 40;
  training.placements_per_region = 6;
  training.machine = CxlMachine();
  const auto system = core::MerchandiserSystem::Train(training);
  EXPECT_GT(system.correlation().test_r2(), 0.3);

  // Step 3: per-application preparation happens inside MakePolicy.
  const sim::Workload w = SmallWorkload();
  sim::MachineSpec machine = CxlMachine();
  machine.hm[hm::Tier::kDram].capacity_bytes = 6 * GiB;
  machine.hm[hm::Tier::kPm].capacity_bytes = 48 * GiB;
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.01;
  cfg.interval_seconds = 0.25;
  cfg.page_bytes = 16 * MiB;

  baselines::PmOnlyPolicy slow_only;
  const double base =
      sim::Engine(w, machine, cfg, &slow_only).Run().total_seconds;
  auto policy = system.MakePolicy(w, machine);
  const double merch =
      sim::Engine(w, machine, cfg, policy.get()).Run().total_seconds;
  EXPECT_LT(merch, base);
}

TEST(Extensibility, CxlGainsSmallerThanOptaneGains) {
  // CXL's slow tier is much closer to DRAM, so the placement upside is
  // smaller than on Optane — the tier gap drives the opportunity.
  const sim::Workload w = SmallWorkload();
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.01;
  cfg.interval_seconds = 1e9;

  const auto gap = [&](const sim::MachineSpec& machine) {
    const auto pm =
        sim::SimulateHomogeneous(w, machine, hm::Tier::kPm, cfg);
    const auto dram =
        sim::SimulateHomogeneous(w, machine, hm::Tier::kDram, cfg);
    return pm.total_seconds / dram.total_seconds;
  };
  EXPECT_LT(gap(CxlMachine()), gap(sim::MachineSpec::Paper()));
}

}  // namespace
}  // namespace merch
