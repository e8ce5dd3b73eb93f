// Tests for the static analysis subsystem (src/analysis): parser
// round-trips, pattern-classification edge cases, analytic-vs-profiled
// alpha agreement on the five applications, footprint/reuse derivation,
// the placement lint, and the whole-program dependence analysis (access
// summaries, task-DAG inference, race detection) — including a dynamic
// soundness gate that replays a sampled access oracle over every
// examples/*.kir program and demands a static edge for every observed
// inter-task overlap.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/depgraph.h"
#include "analysis/ir.h"
#include "analysis/lint.h"
#include "analysis/parser.h"
#include "analysis/passes.h"
#include "analysis/report.h"
#include "analysis/summaries.h"
#include "apps/registry.h"
#include "core/pattern_classifier.h"
#include "hm/tier.h"

namespace merch {
namespace {

using analysis::PatternClass;
using core::Subscript;
using trace::AccessPattern;

core::ArrayRef Affine(std::size_t object, std::int64_t stride,
                      bool write = false) {
  core::ArrayRef ref;
  ref.object = object;
  ref.subscript.kind = Subscript::Kind::kAffine;
  ref.subscript.stride = stride;
  ref.is_write = write;
  return ref;
}

core::ArrayRef Neighborhood(std::size_t object,
                            std::vector<std::int64_t> offsets) {
  core::ArrayRef ref;
  ref.object = object;
  ref.subscript.kind = Subscript::Kind::kNeighborhood;
  ref.subscript.offsets = std::move(offsets);
  return ref;
}

core::ArrayRef Indirect(std::size_t object, std::size_t via,
                        bool write = false) {
  core::ArrayRef ref;
  ref.object = object;
  ref.subscript.kind = Subscript::Kind::kIndirect;
  ref.subscript.index_object = via;
  ref.is_write = write;
  return ref;
}

const char* kGatherKir = R"(
kernel gather
object values bytes=64MiB elem=8 owner=0
object idx bytes=8MiB elem=4 owner=0
object out bytes=64MiB elem=8 owner=0
register values idx out
task 0 {
  loop sweep trips=1e6 insns=6 branch=0.1 vector=0.2 {
    read idx affine stride=1 elem=4
    read values indirect via=idx
    write out affine stride=1
  }
}
)";

// ---- parser ----------------------------------------------------------

TEST(KirParser, ParsesGatherKernel) {
  const analysis::ParseResult r = analysis::ParseKir(kGatherKir);
  ASSERT_TRUE(r.ok()) << analysis::FormatParseError("", r.errors.front());
  const analysis::Module& m = r.module;
  EXPECT_EQ(m.name, "gather");
  ASSERT_EQ(m.objects.size(), 3u);
  EXPECT_EQ(m.objects[0].name, "values");
  EXPECT_EQ(m.objects[0].bytes, 64 * MiB);
  EXPECT_EQ(m.objects[1].element_bytes, 4u);
  EXPECT_TRUE(m.objects[2].registered);
  ASSERT_EQ(m.tasks.size(), 1u);
  ASSERT_EQ(m.tasks[0].loops.size(), 1u);
  const analysis::LoopIr& loop = m.tasks[0].loops[0];
  EXPECT_EQ(loop.trip_count, 1000000u);
  ASSERT_EQ(loop.refs.size(), 3u);
  EXPECT_EQ(loop.refs[1].subscript.kind, Subscript::Kind::kIndirect);
  EXPECT_EQ(loop.refs[1].subscript.index_object, 1u);
  EXPECT_TRUE(loop.refs[2].is_write);
}

TEST(KirParser, RoundTripIsAFixedPoint) {
  // parse -> serialize -> parse -> serialize must stabilise: the canonical
  // form reproduces itself (structural round-trip property).
  const analysis::ParseResult first = analysis::ParseKir(kGatherKir);
  ASSERT_TRUE(first.ok());
  const std::string canon = analysis::SerializeKir(first.module);
  const analysis::ParseResult second = analysis::ParseKir(canon);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(analysis::SerializeKir(second.module), canon);
}

TEST(KirParser, RoundTripPreservesEverySubscriptForm) {
  analysis::Module m;
  m.name = "forms";
  for (const char* name : {"a", "b", "c", "d"}) {
    analysis::ObjectDecl obj;
    obj.name = name;
    obj.bytes = 123456789;
    obj.element_bytes = 4;
    obj.owner = 2;
    obj.registered = true;
    m.objects.push_back(obj);
  }
  m.objects[3].pattern_hint = "random";
  analysis::TaskDecl task;
  task.task = 7;
  analysis::LoopIr outer;
  outer.name = "outer";
  outer.trip_count = 12345;
  outer.instructions_per_iteration = 6.5;
  outer.branch_fraction = 0.125;
  outer.vector_fraction = 0.375;
  analysis::LoopIr inner;
  inner.name = "inner";
  inner.trip_count = 77;
  analysis::RefIr r0;  // negative-stride affine
  r0.object = 0;
  r0.subscript.kind = Subscript::Kind::kAffine;
  r0.subscript.stride = -3;
  r0.rate = 0.25;
  analysis::RefIr r1;  // multi-offset stencil, write
  r1.object = 1;
  r1.subscript.kind = Subscript::Kind::kNeighborhood;
  r1.subscript.offsets = {-2, 0, 2};
  r1.is_write = true;
  analysis::RefIr r2;  // indirect
  r2.object = 2;
  r2.subscript.kind = Subscript::Kind::kIndirect;
  r2.subscript.index_object = 0;
  r2.element_bytes = 16;
  analysis::RefIr r3;  // opaque
  r3.object = 3;
  r3.subscript.kind = Subscript::Kind::kOpaque;
  inner.refs = {r0, r1};
  outer.refs = {r2, r3};
  outer.children.push_back(inner);
  task.loops.push_back(outer);
  m.tasks.push_back(task);

  const std::string canon = analysis::SerializeKir(m);
  const analysis::ParseResult back = analysis::ParseKir(canon);
  ASSERT_TRUE(back.ok()) << canon;
  EXPECT_EQ(analysis::SerializeKir(back.module), canon);
  ASSERT_EQ(back.module.tasks.size(), 1u);
  const analysis::LoopIr& o = back.module.tasks[0].loops[0];
  ASSERT_EQ(o.children.size(), 1u);
  EXPECT_EQ(o.children[0].refs[0].subscript.stride, -3);
  EXPECT_EQ(o.children[0].refs[1].subscript.offsets,
            (std::vector<std::int64_t>{-2, 0, 2}));
  EXPECT_EQ(o.refs[0].subscript.index_object, 0u);
  EXPECT_EQ(o.refs[0].element_bytes, 16u);
  EXPECT_DOUBLE_EQ(o.children[0].refs[0].rate, 0.25);
}

TEST(KirParser, ErrorsCarrySourceLocations) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel bad\n"
      "object a bytes=1MiB\n"
      "task 0 {\n"
      "  loop l trips=10 {\n"
      "    read ghost affine stride=1\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].loc.line, 5);
  EXPECT_EQ(r.errors[0].loc.col, 10);
  EXPECT_NE(r.errors[0].message.find("ghost"), std::string::npos);
  EXPECT_NE(analysis::FormatParseError("x.kir", r.errors[0]).find("x.kir:5:10"),
            std::string::npos);
}

TEST(KirParser, ReportsMissingTripsAndVia) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel bad\n"
      "object a bytes=1MiB\n"
      "object b bytes=1MiB\n"
      "task 0 {\n"
      "  loop l {\n"
      "    read a indirect\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_NE(r.errors[0].message.find("trips"), std::string::npos);
  EXPECT_NE(r.errors[1].message.find("via"), std::string::npos);
}

TEST(KirParser, RecoversAndKeepsParsingAfterBadStatement) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel recover\n"
      "object a bytes=1MiB\n"
      "frobnicate everything\n"
      "object b bytes=2MiB\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.module.objects.size(), 2u);  // b still parsed after the error
}

TEST(KirParser, RejectsRedeclarationAndUnknownSuffix) {
  const analysis::ParseResult r = analysis::ParseKir(
      "object a bytes=1MiB\n"
      "object a bytes=2MiB\n"
      "object c bytes=3XiB\n");
  // The bad suffix also voids the bytes= attribute, so "missing bytes"
  // piggybacks on the suffix error.
  ASSERT_EQ(r.errors.size(), 3u);
  EXPECT_NE(r.errors[0].message.find("redeclared"), std::string::npos);
  EXPECT_NE(r.errors[1].message.find("suffix"), std::string::npos);
  EXPECT_NE(r.errors[2].message.find("missing bytes"), std::string::npos);
}

// ---- flattening ------------------------------------------------------

TEST(ModuleIr, NestedTripCountsMultiplyWhenFlattened) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel nest\n"
      "object a bytes=1MiB\n"
      "register a\n"
      "task 0 {\n"
      "  loop i trips=100 {\n"
      "    loop j trips=50 {\n"
      "      read a affine stride=1\n"
      "    }\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(r.ok());
  const std::vector<core::TaskIr> tasks = r.module.ToCoreIr();
  ASSERT_EQ(tasks.size(), 1u);
  ASSERT_FALSE(tasks[0].loops.empty());
  bool found = false;
  for (const core::LoopNest& loop : tasks[0].loops) {
    if (loop.refs.empty()) continue;
    EXPECT_EQ(loop.trip_count, 5000u);
    found = true;
  }
  EXPECT_TRUE(found);
}

// ---- classification edge cases ---------------------------------------

TEST(PatternClassification, NegativeStridesMatchPositiveCounterparts) {
  EXPECT_EQ(analysis::ClassifyRefClass(Affine(0, -1)), PatternClass::kStream);
  EXPECT_EQ(analysis::ClassifyRefClass(Affine(0, -4)), PatternClass::kStrided);
  EXPECT_EQ(core::ClassifyRef(Affine(0, -1)), AccessPattern::kStream);
  EXPECT_EQ(core::ClassifyRef(Affine(0, -4)), AccessPattern::kStrided);
}

TEST(PatternClassification, SingleOffsetNeighborhoodIsAShiftedStream) {
  EXPECT_EQ(analysis::ClassifyRefClass(Neighborhood(0, {1})),
            PatternClass::kStream);
  EXPECT_EQ(core::ClassifyRef(Neighborhood(0, {1})), AccessPattern::kStream);
  EXPECT_EQ(analysis::ClassifyRefClass(Neighborhood(0, {-1, 0, 1})),
            PatternClass::kStencil);
}

TEST(PatternClassification, ScalarBroadcastIsDegenerate) {
  EXPECT_EQ(analysis::ClassifyRefClass(Affine(0, 0)), PatternClass::kScalar);
  // The 4-way paper label folds it into Stream (core parity).
  EXPECT_EQ(analysis::ToTracePattern(PatternClass::kScalar),
            AccessPattern::kStream);
  EXPECT_EQ(core::ClassifyRef(Affine(0, 0)), AccessPattern::kStream);
}

TEST(PatternClassification, IndirectThroughIndirectChain) {
  // out[i] = data[idx2[idx1[i]]] modelled as two gathers: idx2 is both an
  // indirect target (via idx1) and the index array of the data gather —
  // the random classification must win for idx2, idx1 stays a stream.
  core::TaskIr task;
  core::LoopNest loop;
  loop.name = "chain";
  loop.trip_count = 1000;
  loop.refs.push_back(Indirect(/*object=*/1, /*via=*/0));  // idx2[idx1[i]]
  loop.refs.push_back(Indirect(/*object=*/2, /*via=*/1));  // data[idx2[...]]
  task.loops.push_back(loop);

  const auto got = analysis::ClassifyTaskPatterns(task, 3);
  EXPECT_EQ(got[0], AccessPattern::kStream);
  EXPECT_EQ(got[1], AccessPattern::kRandom);
  EXPECT_EQ(got[2], AccessPattern::kRandom);
  const auto core_got = core::ClassifyTask(task, 3);
  EXPECT_EQ(core_got, got);
}

TEST(PatternClassification, IndexArrayAlsoDirectlySwept) {
  // idx is swept directly (stride 1) and used as the index array of a
  // gather — both uses are streams, so it must NOT classify random.
  core::TaskIr task;
  core::LoopNest loop;
  loop.name = "gather";
  loop.trip_count = 1000;
  loop.refs.push_back(Affine(0, 1));
  loop.refs.push_back(Indirect(/*object=*/1, /*via=*/0));
  task.loops.push_back(loop);
  const auto got = analysis::ClassifyTaskPatterns(task, 2);
  EXPECT_EQ(got[0], AccessPattern::kStream);
  EXPECT_EQ(got[1], AccessPattern::kRandom);
  EXPECT_EQ(core::ClassifyTask(task, 2), got);

  // ...but an object gathered through *itself* (a[a[i]]) is random.
  core::TaskIr self;
  core::LoopNest sl;
  sl.name = "self";
  sl.trip_count = 10;
  sl.refs.push_back(Indirect(/*object=*/0, /*via=*/0));
  self.loops.push_back(sl);
  EXPECT_EQ(analysis::ClassifyTaskPatterns(self, 1)[0], AccessPattern::kRandom);
  EXPECT_EQ(core::ClassifyTask(self, 1)[0], AccessPattern::kRandom);
}

TEST(PatternClassification, ParityWithCoreOnAllFiveApps) {
  for (const std::string& name : apps::AppNames()) {
    const apps::AppBundle bundle = apps::BuildApp(name, 0.02, 0.05);
    for (const core::TaskIr& ir : bundle.task_irs) {
      const auto ours =
          analysis::ClassifyTaskPatterns(ir, bundle.workload.objects.size());
      const auto core_labels =
          core::ClassifyTask(ir, bundle.workload.objects.size());
      EXPECT_EQ(ours, core_labels) << name << " task " << ir.task;
    }
  }
}

// ---- footprint and alpha ---------------------------------------------

TEST(AnalysisPasses, ScalarFootprintIsOneCacheLine) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel scalar\n"
      "object big bytes=1GiB\n"
      "register big\n"
      "task 0 {\n"
      "  loop l trips=1e6 {\n"
      "    read big affine stride=0\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(r.ok());
  const analysis::ModuleAnalysis a = analysis::Analyze(r.module);
  EXPECT_EQ(a.objects[0].pattern, PatternClass::kScalar);
  EXPECT_EQ(a.objects[0].footprint_bytes, kCacheLineBytes);
  // Size-invariant traffic: Eq. 1 alpha under doubling equals the size
  // ratio, so esti_mem_acc stays put when the object grows.
  EXPECT_TRUE(a.objects[0].analytic_alpha);
  EXPECT_DOUBLE_EQ(a.objects[0].alpha, 2.0);
}

TEST(AnalysisPasses, FootprintBoundedByObjectAndStride) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel fp\n"
      "object small bytes=1MiB\n"
      "object wide bytes=1GiB\n"
      "register small wide\n"
      "task 0 {\n"
      "  loop l trips=1e4 {\n"
      "    read small affine stride=1\n"
      "    read wide affine stride=-16\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(r.ok());
  const analysis::ModuleAnalysis a = analysis::Analyze(r.module);
  // 1e4 trips * 8B stream = 80 KB < 1 MiB: the sweep bound wins.
  EXPECT_EQ(a.objects[0].footprint_bytes, 80000u);
  // |stride| 16 * 8B * 1e4 trips = 1.28 MB distinct bytes reachable.
  EXPECT_EQ(a.objects[1].footprint_bytes, 1280000u);
  EXPECT_EQ(a.objects[1].pattern, PatternClass::kStrided);
}

TEST(AnalysisPasses, ReuseBucketsCountPerTaskSweeps) {
  const analysis::ParseResult r = analysis::ParseKir(kGatherKir);
  ASSERT_TRUE(r.ok());
  const analysis::ModuleAnalysis a = analysis::Analyze(r.module);
  // One loop: everything single-pass.
  for (const analysis::ObjectReport& obj : a.objects) {
    EXPECT_FALSE(obj.reswept) << obj.name;
    EXPECT_EQ(obj.sweeps, 1) << obj.name;
  }
  // values is gathered (random) -> runtime-refined alpha.
  EXPECT_TRUE(a.objects[0].runtime_refined);
  EXPECT_FALSE(a.objects[0].analytic_alpha);
  // idx is only ever an index array -> stream, analytic.
  EXPECT_EQ(a.objects[1].pattern, PatternClass::kStream);
  EXPECT_TRUE(a.objects[1].analytic_alpha);
  // out is write-only.
  EXPECT_DOUBLE_EQ(a.objects[2].write_fraction, 1.0);
}

TEST(AnalysisPasses, AnalyticAlphaAgreesWithProfiledTableOnApps) {
  // Acceptance criterion: for stream/strided/stencil objects of the five
  // applications the statically derived alpha must sit within 15% of the
  // profiled table's value (core::LinearAlpha / StencilAlphaOffline).
  int checked = 0;
  for (const std::string& name : apps::AppNames()) {
    const apps::AppBundle bundle = apps::BuildApp(name, 0.02, 0.05);
    const analysis::Module module =
        analysis::ModuleFromWorkload(bundle.workload, bundle.task_irs);
    const analysis::ModuleAnalysis a = analysis::Analyze(module);
    for (const analysis::ObjectReport& obj : a.objects) {
      if (!obj.referenced || !obj.analytic_alpha) continue;
      ASSERT_GT(obj.profiled_alpha, 0.0) << name << "/" << obj.name;
      const double rel = std::abs(obj.alpha - obj.profiled_alpha) /
                         obj.profiled_alpha;
      EXPECT_LE(rel, 0.15) << name << "/" << obj.name << " analytic "
                           << obj.alpha << " vs profiled "
                           << obj.profiled_alpha;
      ++checked;
    }
  }
  EXPECT_GE(checked, 5);  // the agreement must actually cover objects
}

TEST(AnalysisPasses, DistinctPatternsMatchCoreTable1Helper) {
  for (const std::string& name : apps::AppNames()) {
    const apps::AppBundle bundle = apps::BuildApp(name, 0.02, 0.05);
    const analysis::Module module =
        analysis::ModuleFromWorkload(bundle.workload, bundle.task_irs);
    const analysis::ModuleAnalysis a = analysis::Analyze(module);
    const auto expected = core::DistinctPatterns(
        bundle.task_irs, bundle.workload.objects.size());
    EXPECT_EQ(a.distinct, expected) << name;
  }
}

// ---- lint ------------------------------------------------------------

std::vector<std::string> Codes(const std::vector<analysis::Finding>& fs) {
  std::vector<std::string> out;
  for (const auto& f : fs) out.push_back(f.code);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PlacementLint, FlagsUnregisteredReferencedObject) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel l\n"
      "object a bytes=1MiB\n"
      "task 0 {\n"
      "  loop x trips=10 {\n"
      "    read a affine stride=1\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(r.ok());
  const auto findings = analysis::Lint(r.module, analysis::Analyze(r.module));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "unregistered-object");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kError);
  EXPECT_TRUE(analysis::HasErrors(findings));
}

TEST(PlacementLint, CleanModuleHasNoFindings) {
  const analysis::ParseResult r = analysis::ParseKir(kGatherKir);
  ASSERT_TRUE(r.ok());
  const auto findings = analysis::Lint(r.module, analysis::Analyze(r.module));
  // out is write-only -> only the write-heavy advisory remains.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "write-heavy");
  EXPECT_FALSE(analysis::HasErrors(findings));
}

TEST(PlacementLint, FlagsOpaqueDeadIndexMisregisteredAndMismatch) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel l\n"
      "object data bytes=64MiB\n"
      "object idx bytes=1MiB elem=4 pattern=random\n"
      "object tbl bytes=8MiB\n"
      "object ghost bytes=1MiB\n"
      "object claimed bytes=4MiB pattern=stencil\n"
      "register data idx tbl ghost claimed\n"
      "task 0 {\n"
      "  loop x trips=1000 {\n"
      "    read idx affine stride=1 elem=4\n"
      "    read data indirect via=idx\n"
      "    read tbl opaque\n"
      "    read claimed affine stride=4\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(r.ok());
  const auto findings = analysis::Lint(r.module, analysis::Analyze(r.module));
  const auto codes = Codes(findings);
  EXPECT_EQ(codes,
            (std::vector<std::string>{"dead-object", "index-misregistered",
                                      "opaque-subscript", "pattern-mismatch"}));
  EXPECT_FALSE(analysis::HasErrors(findings));  // all advisory
  for (const auto& f : findings) {
    if (f.code == "dead-object") {
      EXPECT_EQ(f.object, "ghost");
      EXPECT_EQ(f.severity, analysis::Severity::kWarning);
    }
    if (f.code == "index-misregistered") {
      EXPECT_EQ(f.object, "idx");
    }
    if (f.code == "pattern-mismatch") {
      EXPECT_EQ(f.object, "claimed");
    }
  }
}

TEST(PlacementLint, AppBundlesLintClean) {
  // The five builders register everything they reference: the service
  // gate must pass them.
  for (const std::string& name : apps::AppNames()) {
    const apps::AppBundle bundle = apps::BuildApp(name, 0.02, 0.05);
    const analysis::Module module =
        analysis::ModuleFromWorkload(bundle.workload, bundle.task_irs);
    const auto findings =
        analysis::Lint(module, analysis::Analyze(module));
    EXPECT_FALSE(analysis::HasErrors(findings)) << name;
  }
}

// ---- task ordering in the grammar ------------------------------------

const char* kPipelineKir = R"(
kernel pipeline
object a bytes=8MiB elem=8 owner=shared
object b bytes=8MiB elem=8 owner=shared
register a b
task 0 {
  loop produce trips=500000 insns=4 {
    write a affine stride=1 base=0
  }
}
task 1 {
  loop produce trips=500000 insns=4 {
    write a affine stride=1 base=524288
  }
}
task 2 after 0,1 {
  loop consume trips=1000000 insns=4 {
    read a affine stride=1
    write b affine stride=1
  }
}
)";

TEST(KirParser, ParsesAfterClauseAndBaseOffset) {
  const analysis::ParseResult r = analysis::ParseKir(kPipelineKir);
  ASSERT_TRUE(r.ok()) << analysis::FormatParseError("", r.errors.front());
  ASSERT_EQ(r.module.tasks.size(), 3u);
  EXPECT_TRUE(r.module.tasks[0].after.empty());
  EXPECT_EQ(r.module.tasks[2].after, (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(r.module.tasks[1].loops[0].refs[0].subscript.base, 524288);
  EXPECT_FALSE(r.module.fork_join);
}

TEST(KirParser, AfterAndBaseSurviveTheCanonicalRoundTrip) {
  const analysis::ParseResult first = analysis::ParseKir(kPipelineKir);
  ASSERT_TRUE(first.ok());
  const std::string canon = analysis::SerializeKir(first.module);
  EXPECT_NE(canon.find("task 2 after 0,1 {"), std::string::npos);
  EXPECT_NE(canon.find("base=524288"), std::string::npos);
  const analysis::ParseResult second = analysis::ParseKir(canon);
  ASSERT_TRUE(second.ok()) << canon;
  EXPECT_EQ(analysis::SerializeKir(second.module), canon);
  EXPECT_EQ(second.module.tasks[2].after, (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(second.module.tasks[1].loops[0].refs[0].subscript.base, 524288);
}

TEST(KirParser, RejectsEmptySelfAndNegativeAfterLists) {
  EXPECT_FALSE(analysis::ParseKir("task 0 after {\n}\n").ok());
  EXPECT_FALSE(analysis::ParseKir("task 1 after 1 {\n}\n").ok());
  EXPECT_FALSE(analysis::ParseKir("task 1 after -2 {\n}\n").ok());
  // Duplicates collapse silently (a set, not a list).
  const analysis::ParseResult r =
      analysis::ParseKir("task 1 after 0,0,0 {\n}\ntask 0 {\n}\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.module.tasks[0].after, (std::vector<TaskId>{0}));
}

// ---- parser robustness (fuzz-lite) -----------------------------------

TEST(KirParserFuzz, DeeplyNestedLoopsHitTheDepthLimitNotTheStack) {
  std::string text = "kernel deep\nobject a bytes=1MiB\nregister a\ntask 0 {\n";
  for (int i = 0; i < 10000; ++i) text += "loop l trips=2 {\n";
  text += "read a affine stride=1\n";
  for (int i = 0; i < 10000; ++i) text += "}\n";
  text += "}\n";
  const analysis::ParseResult r = analysis::ParseKir(text);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const analysis::ParseError& e : r.errors) {
    if (e.message.find("maximum depth") != std::string::npos) found = true;
    EXPECT_GE(e.loc.line, 1);
  }
  EXPECT_TRUE(found);
}

TEST(KirParserFuzz, EveryTruncationOfAValidProgramParsesOrErrorsCleanly) {
  const std::string whole = kPipelineKir;
  for (std::size_t len = 0; len <= whole.size(); ++len) {
    const analysis::ParseResult r = analysis::ParseKir(whole.substr(0, len));
    for (const analysis::ParseError& e : r.errors) {
      EXPECT_GE(e.loc.line, 1) << "truncated at " << len;
      EXPECT_FALSE(e.message.empty()) << "truncated at " << len;
    }
  }
}

TEST(KirParserFuzz, GarbageBytesNeverCrashAndAlwaysLocateErrors) {
  std::mt19937 rng(0xC0FFEE);
  const std::string alphabet =
      "kernel object task loop read write register after base= {}\n\t 0123=-e";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const std::size_t len = rng() % 512;
    for (std::size_t i = 0; i < len; ++i) {
      // Mix structured tokens with raw bytes so both lexer and grammar
      // paths get exercised.
      text += trial % 2 == 0 ? alphabet[rng() % alphabet.size()]
                             : static_cast<char>(rng() % 256);
    }
    const analysis::ParseResult r = analysis::ParseKir(text);
    for (const analysis::ParseError& e : r.errors) {
      EXPECT_GE(e.loc.line, 1);
      EXPECT_FALSE(e.message.empty());
    }
  }
}

// ---- access summaries ------------------------------------------------

TEST(AccessSummaries, RefIntervalCoversEachSubscriptForm) {
  bool widened = false;
  core::ArrayRef affine = Affine(0, 2);
  affine.subscript.base = 10;
  affine.element_bytes = 8;
  // elements 10, 12, ..., 28 -> bytes [80, 232)
  const auto a = analysis::RefInterval(affine, 10, 1 * MiB, &widened);
  EXPECT_EQ(a.lo, 80u);
  EXPECT_EQ(a.hi, 232u);
  EXPECT_FALSE(widened);

  core::ArrayRef back = Affine(0, -1);
  back.subscript.base = 99;
  back.element_bytes = 8;
  // elements 99, 98, ..., 90 -> bytes [720, 800)
  const auto n = analysis::RefInterval(back, 10, 1 * MiB, &widened);
  EXPECT_EQ(n.lo, 720u);
  EXPECT_EQ(n.hi, 800u);

  core::ArrayRef sten = Neighborhood(0, {-2, 0, 1});
  sten.subscript.base = 4;
  sten.element_bytes = 4;
  // elements [2, 4+9+1+1) = [2, 15) -> bytes [8, 60)
  const auto s = analysis::RefInterval(sten, 10, 1 * MiB, &widened);
  EXPECT_EQ(s.lo, 8u);
  EXPECT_EQ(s.hi, 60u);

  core::ArrayRef gather = Indirect(0, 1);
  const auto g = analysis::RefInterval(gather, 10, 4096, &widened);
  EXPECT_TRUE(widened);
  EXPECT_EQ(g.lo, 0u);
  EXPECT_EQ(g.hi, 4096u);

  // Sweeps past the end of the object clamp to its size.
  core::ArrayRef runaway = Affine(0, 1);
  runaway.element_bytes = 8;
  const auto c = analysis::RefInterval(runaway, 1u << 30, 4096, &widened);
  EXPECT_EQ(c.hi, 4096u);
}

TEST(AccessSummaries, SummarizeSplitsReadsFromWritesPerObject) {
  const analysis::ParseResult r = analysis::ParseKir(kPipelineKir);
  ASSERT_TRUE(r.ok());
  const analysis::ModuleSummary s = analysis::Summarize(r.module);
  ASSERT_EQ(s.tasks.size(), 3u);
  // Task 0 writes the first half of `a` (500000 * 8 bytes).
  ASSERT_EQ(s.tasks[0].writes.size(), 1u);
  EXPECT_EQ(s.tasks[0].writes[0].bytes.lo, 0u);
  EXPECT_EQ(s.tasks[0].writes[0].bytes.hi, 4000000u);
  EXPECT_TRUE(s.tasks[0].reads.empty());
  // Task 1 starts at element 524288 (byte 4194304).
  EXPECT_EQ(s.tasks[1].writes[0].bytes.lo, 4194304u);
  // Task 2 reads `a` and writes `b`; write-only `b` counts DRAM-hungry.
  ASSERT_EQ(s.tasks[2].reads.size(), 1u);
  ASSERT_EQ(s.tasks[2].writes.size(), 1u);
  EXPECT_EQ(s.tasks[2].after, (std::vector<TaskId>{0, 1}));
  EXPECT_GT(s.tasks[2].dram_hungry_bytes, 0u);
  EXPECT_GE(s.tasks[2].footprint_bytes, s.tasks[2].dram_hungry_bytes);
}

// ---- dependence engine -----------------------------------------------

analysis::TaskGraph Graph(const analysis::Module& m) {
  return analysis::BuildTaskGraph(m, analysis::Summarize(m));
}

std::vector<analysis::Finding> DepFindings(const analysis::Module& m,
                                           const hm::HmSpec& hm) {
  return analysis::LintDependences(m, Graph(m), hm);
}

TEST(DepGraph, DeclaredEdgesCoverTheInferredDependences) {
  const analysis::ParseResult r = analysis::ParseKir(kPipelineKir);
  ASSERT_TRUE(r.ok());
  const analysis::TaskGraph g = Graph(r.module);
  EXPECT_FALSE(g.cyclic);
  EXPECT_EQ(g.declared.size(), 2u);
  EXPECT_TRUE(g.Ordered(0, 2));
  EXPECT_TRUE(g.Ordered(1, 2));
  EXPECT_FALSE(g.Ordered(0, 1));
  // Writers 0 and 1 touch disjoint halves: no edge between them, one RAW
  // edge each into the consumer.
  int raw = 0;
  for (const analysis::DepEdge& e : g.edges) {
    EXPECT_TRUE(e.declared);
    EXPECT_TRUE(e.exact);
    EXPECT_EQ(e.to_task, 2u);
    if (e.kind == analysis::DepKind::kRaw) ++raw;
  }
  EXPECT_EQ(raw, 2);
  const auto findings = DepFindings(r.module, hm::HmSpec::PaperOptane());
  EXPECT_TRUE(findings.empty());
}

TEST(DepGraph, UnorderedExactConflictIsADataRace) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel race\n"
      "object a bytes=8MiB elem=8 owner=shared\n"
      "register a\n"
      "task 0 {\n  loop l trips=1000 insns=4 {\n"
      "    write a affine stride=1\n  }\n}\n"
      "task 1 {\n  loop l trips=1000 insns=4 {\n"
      "    write a affine stride=1\n  }\n}\n");
  ASSERT_TRUE(r.ok());
  const auto findings = DepFindings(r.module, hm::HmSpec::PaperOptane());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "data-race");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kError);
  EXPECT_TRUE(analysis::HasErrors(findings));
}

TEST(DepGraph, WidenedConflictDowngradesToPotentialRace) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel may\n"
      "object t bytes=8MiB elem=8 owner=shared\n"
      "object idx bytes=1MiB elem=4 owner=shared\n"
      "register t idx\n"
      "task 0 {\n  loop l trips=1000 insns=4 {\n"
      "    read idx affine stride=1 elem=4\n"
      "    write t indirect via=idx\n  }\n}\n"
      "task 1 {\n  loop l trips=1000 insns=4 {\n"
      "    read idx affine stride=1 elem=4\n"
      "    write t indirect via=idx\n  }\n}\n");
  ASSERT_TRUE(r.ok());
  const auto findings = DepFindings(r.module, hm::HmSpec::PaperOptane());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "potential-race");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kWarning);
  EXPECT_FALSE(analysis::HasErrors(findings));
}

TEST(DepGraph, UselessEdgeIsOverSynchronization) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel oversync\n"
      "object a bytes=1MiB elem=8 owner=0\n"
      "object b bytes=1MiB elem=8 owner=1\n"
      "register a b\n"
      "task 0 {\n  loop l trips=100 insns=4 {\n"
      "    write a affine stride=1\n  }\n}\n"
      "task 1 after 0 {\n  loop l trips=100 insns=4 {\n"
      "    write b affine stride=1\n  }\n}\n");
  ASSERT_TRUE(r.ok());
  const auto findings = DepFindings(r.module, hm::HmSpec::PaperOptane());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "over-synchronization");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kWarning);
}

TEST(DepGraph, ConcurrentHungryFootprintsInterfereOnTinyMachines) {
  // Two unordered tasks each gather a 12 MiB random pool: together 24 MiB
  // against Tiny's 16 MiB DRAM -> interference; ordered they are fine.
  const char* racy =
      "kernel hog\n"
      "object p0 bytes=12MiB elem=8 owner=0 pattern=random\n"
      "object p1 bytes=12MiB elem=8 owner=1 pattern=random\n"
      "register p0 p1\n"
      "task 0 {\n  loop l trips=1000 insns=4 {\n"
      "    read p0 opaque\n  }\n}\n"
      "task 1 %s{\n  loop l trips=1000 insns=4 {\n"
      "    read p1 opaque\n  }\n}\n";
  char buf[512];
  std::snprintf(buf, sizeof buf, racy, "");
  const analysis::ParseResult concurrent = analysis::ParseKir(buf);
  ASSERT_TRUE(concurrent.ok());
  const auto findings = DepFindings(concurrent.module, hm::HmSpec::Tiny());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "placement-interference");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kWarning);

  std::snprintf(buf, sizeof buf, racy, "after 0 ");
  const analysis::ParseResult ordered = analysis::ParseKir(buf);
  ASSERT_TRUE(ordered.ok());
  // The serialized tasks no longer run together — but the edge now
  // carries no data, so it reports as over-synchronization instead.
  const auto ordered_findings = DepFindings(ordered.module, hm::HmSpec::Tiny());
  ASSERT_EQ(ordered_findings.size(), 1u);
  EXPECT_EQ(ordered_findings[0].code, "over-synchronization");
}

TEST(DepGraph, CyclesAndUnknownPredecessorsAreErrors) {
  const analysis::ParseResult cyc = analysis::ParseKir(
      "task 0 after 1 {\n}\ntask 1 after 0 {\n}\n");
  ASSERT_TRUE(cyc.ok());
  const analysis::TaskGraph g = Graph(cyc.module);
  EXPECT_TRUE(g.cyclic);
  auto findings = DepFindings(cyc.module, hm::HmSpec::PaperOptane());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "dependence-cycle");
  EXPECT_TRUE(analysis::HasErrors(findings));

  const analysis::ParseResult ghost =
      analysis::ParseKir("task 0 after 7 {\n}\n");
  ASSERT_TRUE(ghost.ok());
  findings = DepFindings(ghost.module, hm::HmSpec::PaperOptane());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "unknown-predecessor");
  EXPECT_TRUE(analysis::HasErrors(findings));
}

TEST(DepGraph, OrderingIsTransitiveThroughDeclaredChains) {
  const analysis::ParseResult r = analysis::ParseKir(
      "kernel chain\n"
      "object a bytes=1MiB elem=8 owner=shared\n"
      "register a\n"
      "task 0 {\n  loop l trips=100 insns=4 {\n"
      "    write a affine stride=1\n  }\n}\n"
      "task 1 after 0 {\n  loop l trips=100 insns=4 {\n"
      "    read a affine stride=1\n    write a affine stride=1\n  }\n}\n"
      "task 2 after 1 {\n  loop l trips=100 insns=4 {\n"
      "    read a affine stride=1\n  }\n}\n");
  ASSERT_TRUE(r.ok());
  const analysis::TaskGraph g = Graph(r.module);
  // 0 -> 2 is not a direct edge but must be ordered transitively, so the
  // 0->2 RAW on `a` counts as declared-covered, not a race.
  EXPECT_TRUE(g.Ordered(0, 2));
  const auto findings = DepFindings(r.module, hm::HmSpec::PaperOptane());
  EXPECT_TRUE(findings.empty())
      << analysis::FormatFinding("", findings.front());
}

TEST(DepGraph, ForkJoinModulesSoftenSharedWritesButNotOwnedOnes) {
  // Shared-object co-writes in a fork-join region are the runtime's
  // partitioned streams -> note; an exact write into another task's owned
  // object stays an error.
  analysis::Module m;
  m.name = "fj";
  m.fork_join = true;
  analysis::ObjectDecl shared;
  shared.name = "stream";
  shared.bytes = 1 * MiB;
  shared.registered = true;
  analysis::ObjectDecl owned;
  owned.name = "mine";
  owned.bytes = 1 * MiB;
  owned.owner = 0;
  owned.registered = true;
  m.objects = {shared, owned};
  for (TaskId t = 0; t < 2; ++t) {
    analysis::TaskDecl task;
    task.task = t;
    analysis::LoopIr loop;
    loop.name = "l";
    loop.trip_count = 1000;
    analysis::RefIr w;
    w.object = 0;
    w.subscript.kind = Subscript::Kind::kAffine;
    w.subscript.stride = 1;
    w.is_write = true;
    loop.refs.push_back(w);
    task.loops.push_back(loop);
    m.tasks.push_back(task);
  }
  auto findings = DepFindings(m, hm::HmSpec::PaperOptane());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "assumed-partitioned");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kNote);

  // Task 1 now also writes task 0's owned object: error even fork-join.
  analysis::RefIr foreign;
  foreign.object = 1;
  foreign.subscript.kind = Subscript::Kind::kAffine;
  foreign.subscript.stride = 1;
  foreign.is_write = true;
  m.tasks[1].loops[0].refs.push_back(foreign);
  analysis::RefIr own = foreign;  // owner writes it too -> conflict
  m.tasks[0].loops[0].refs.push_back(own);
  findings = DepFindings(m, hm::HmSpec::PaperOptane());
  bool raced = false;
  for (const auto& f : findings) {
    if (f.code == "data-race") raced = true;
  }
  EXPECT_TRUE(raced);
  EXPECT_TRUE(analysis::HasErrors(findings));
}

TEST(DepGraph, AppBundlesPassTheDependenceGate) {
  // Mirror of the PlacementService gate: the five applications' bridged
  // modules must come through without dependence errors.
  for (const std::string& name : apps::AppNames()) {
    const apps::AppBundle bundle = apps::BuildApp(name, 0.02, 0.05);
    const analysis::Module module =
        analysis::ModuleFromWorkload(bundle.workload, bundle.task_irs);
    EXPECT_TRUE(module.fork_join) << name;
    const auto findings = DepFindings(module, hm::HmSpec::PaperOptane());
    EXPECT_FALSE(analysis::HasErrors(findings)) << name;
  }
}

// ---- dynamic soundness gate ------------------------------------------

// Deterministic 64-bit mix (splitmix64) standing in for the runtime's
// data-dependent indices: the oracle must be reproducible, and only
// *true* accesses matter — any index set works for a soundness check.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Sampled concrete byte positions one reference touches across its
/// sweep. At most ~2k iterations are sampled (even spacing); every byte
/// of each touched element is recorded so differing element sizes still
/// collide. Out-of-object accesses are skipped — the static hull is
/// clipped the same way.
void SampleRefBytes(const core::ArrayRef& ref, std::uint64_t trips,
                    std::uint64_t object_bytes,
                    std::unordered_set<std::uint64_t>* out) {
  const std::uint64_t n = std::max<std::uint64_t>(1, trips);
  const std::uint64_t step = std::max<std::uint64_t>(1, n / 2048);
  const std::uint64_t elems = std::max<std::uint64_t>(
      1, object_bytes / std::max<std::uint32_t>(1, ref.element_bytes));
  auto touch = [&](std::int64_t elem) {
    if (elem < 0) return;
    const std::uint64_t lo = static_cast<std::uint64_t>(elem) *
                             ref.element_bytes;
    if (lo + ref.element_bytes > object_bytes) return;
    for (std::uint32_t b = 0; b < ref.element_bytes; ++b) out->insert(lo + b);
  };
  for (std::uint64_t i = 0; i < n; i += step) {
    switch (ref.subscript.kind) {
      case Subscript::Kind::kAffine:
        touch(ref.subscript.base +
              static_cast<std::int64_t>(i) * ref.subscript.stride);
        break;
      case Subscript::Kind::kNeighborhood:
        for (const std::int64_t off : ref.subscript.offsets) {
          touch(ref.subscript.base + static_cast<std::int64_t>(i) + off);
        }
        break;
      case Subscript::Kind::kIndirect:
      case Subscript::Kind::kOpaque:
        touch(static_cast<std::int64_t>(
            Mix(ref.object * 0x10001ull + i) % elems));
        break;
    }
  }
}

TEST(DependenceSoundness, EveryDynamicOverlapOnExamplesHasAStaticEdge) {
  // The acceptance gate: replay a sampled access oracle over every
  // examples/*.kir program; every observed inter-task overlap (with at
  // least one writer) must be covered by a statically inferred edge of
  // the matching kind — zero false negatives.
  const std::filesystem::path dir = KIR_EXAMPLES_DIR;
  int programs = 0, observed_overlaps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".kir") continue;
    const analysis::ParseResult r =
        analysis::ParseKirFile(entry.path().string());
    ASSERT_TRUE(r.ok()) << entry.path();
    ++programs;
    const analysis::TaskGraph g = Graph(r.module);

    // Oracle: per (task, object) sampled read- and write-byte sets.
    const std::vector<core::TaskIr> tasks = r.module.ToCoreIr();
    struct TaskBytes {
      std::vector<std::unordered_set<std::uint64_t>> reads, writes;
    };
    std::vector<TaskBytes> oracle(tasks.size());
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      oracle[ti].reads.resize(r.module.objects.size());
      oracle[ti].writes.resize(r.module.objects.size());
      for (const core::LoopNest& loop : tasks[ti].loops) {
        for (const core::ArrayRef& ref : loop.refs) {
          if (ref.object >= r.module.objects.size()) continue;
          std::unordered_set<std::uint64_t> fresh;
          SampleRefBytes(ref, loop.trip_count,
                         r.module.objects[ref.object].bytes, &fresh);
          // Hull-soundness: every byte sampled from THIS reference sits
          // inside its static footprint interval.
          bool widened = false;
          const analysis::ByteInterval hull = analysis::RefInterval(
              ref, loop.trip_count, r.module.objects[ref.object].bytes,
              &widened);
          for (const std::uint64_t b : fresh) {
            ASSERT_TRUE(b >= hull.lo && b < hull.hi)
                << entry.path() << " task " << tasks[ti].task << " object "
                << r.module.objects[ref.object].name << " byte " << b;
          }
          auto& slot = ref.is_write ? oracle[ti].writes[ref.object]
                                    : oracle[ti].reads[ref.object];
          slot.insert(fresh.begin(), fresh.end());
        }
      }
    }

    auto intersects = [](const std::unordered_set<std::uint64_t>& a,
                         const std::unordered_set<std::uint64_t>& b) {
      const auto& small = a.size() <= b.size() ? a : b;
      const auto& large = a.size() <= b.size() ? b : a;
      for (const std::uint64_t v : small) {
        if (large.count(v) > 0) return true;
      }
      return false;
    };
    auto has_edge = [&](std::size_t x, std::size_t y, std::size_t obj,
                        analysis::DepKind k1, analysis::DepKind k2) {
      for (const analysis::DepEdge& e : g.edges) {
        const bool pair = (e.from == x && e.to == y) ||
                          (e.from == y && e.to == x);
        if (pair && e.object == obj && (e.kind == k1 || e.kind == k2)) {
          return true;
        }
      }
      return false;
    };

    for (std::size_t a = 0; a < tasks.size(); ++a) {
      for (std::size_t b = a + 1; b < tasks.size(); ++b) {
        for (std::size_t obj = 0; obj < r.module.objects.size(); ++obj) {
          if (intersects(oracle[a].writes[obj], oracle[b].reads[obj]) ||
              intersects(oracle[a].reads[obj], oracle[b].writes[obj])) {
            ++observed_overlaps;
            EXPECT_TRUE(has_edge(a, b, obj, analysis::DepKind::kRaw,
                                 analysis::DepKind::kWar))
                << entry.path() << ": tasks " << a << "," << b
                << " read/write-overlap on "
                << r.module.objects[obj].name << " with no static edge";
          }
          if (intersects(oracle[a].writes[obj], oracle[b].writes[obj])) {
            ++observed_overlaps;
            EXPECT_TRUE(has_edge(a, b, obj, analysis::DepKind::kWaw,
                                 analysis::DepKind::kWaw))
                << entry.path() << ": tasks " << a << "," << b
                << " write/write-overlap on "
                << r.module.objects[obj].name << " with no static edge";
          }
        }
      }
    }
  }
  EXPECT_GE(programs, 4);           // spgemm, bfs, lint_fixture, race_fixture
  EXPECT_GT(observed_overlaps, 0);  // the gate must actually bite
}

TEST(DagReports, TextJsonAndDotRenderTheGraph) {
  const analysis::ParseResult r = analysis::ParseKir(kPipelineKir);
  ASSERT_TRUE(r.ok());
  const analysis::TaskGraph g = Graph(r.module);
  const auto findings =
      analysis::LintDependences(r.module, g, hm::HmSpec::PaperOptane());
  const std::string text =
      analysis::DagTextReport("p.kir", r.module, g, findings);
  EXPECT_NE(text.find("RAW on 'a'"), std::string::npos);
  EXPECT_NE(text.find("ordered"), std::string::npos);
  const std::string json =
      analysis::DagJsonReport("p.kir", r.module, g, findings);
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"RAW\""), std::string::npos);
  const std::string dot = analysis::DagDotReport(r.module, g);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_NE(dot.find("t0 -> t2"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(Reports, TextAndJsonCarryPatternsAndFindings) {
  const analysis::ParseResult r = analysis::ParseKir(kGatherKir);
  ASSERT_TRUE(r.ok());
  const analysis::ModuleAnalysis a = analysis::Analyze(r.module);
  const auto findings = analysis::Lint(r.module, a);
  const std::string text =
      analysis::TextReport("g.kir", r.module, a, findings);
  EXPECT_NE(text.find("Random"), std::string::npos);
  EXPECT_NE(text.find("write-heavy"), std::string::npos);
  const std::string json =
      analysis::JsonReport("g.kir", r.module, a, findings);
  EXPECT_NE(json.find("\"pattern\": \"Random\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
}

}  // namespace
}  // namespace merch
