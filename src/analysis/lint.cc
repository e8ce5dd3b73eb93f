#include "analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>

namespace merch::analysis {
namespace {

/// Write-heavy threshold: above this write share the PM write-bandwidth
/// asymmetry (3.87x read vs 4.74x write vs DRAM, paper Section 2 / the
/// Fig. 3 phase sensitivity) makes PM residency disproportionately
/// costly.
constexpr double kWriteHeavyFraction = 0.5;

void WalkRefs(const std::vector<LoopIr>& loops,
              const std::function<void(const RefIr&)>& fn) {
  for (const LoopIr& loop : loops) {
    for (const RefIr& ref : loop.refs) fn(ref);
    WalkRefs(loop.children, fn);
  }
}

}  // namespace

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "note";
}

std::vector<Finding> Lint(const Module& module,
                          const ModuleAnalysis& analysis) {
  std::vector<Finding> out;
  auto add = [&out](Severity sev, std::string code, std::string object,
                    SourceLoc loc, std::string message) {
    out.push_back({sev, std::move(code), std::move(message),
                   std::move(object), loc});
  };

  // Per-reference checks: out-of-range objects (only possible in bridged
  // in-memory IR — the parser rejects unknown names) and opaque
  // subscripts.
  std::vector<bool> used_as_index(module.objects.size(), false);
  for (const TaskDecl& task : module.tasks) {
    WalkRefs(task.loops, [&](const RefIr& ref) {
      if (ref.object >= module.objects.size()) {
        add(Severity::kError, "invalid-object-ref", "", ref.loc,
            "task " + std::to_string(task.task) +
                " references object index " +
                (ref.object == SIZE_MAX ? std::string("<invalid>")
                                        : std::to_string(ref.object)) +
                " but only " + std::to_string(module.objects.size()) +
                " objects are declared");
        return;
      }
      const std::size_t via = ref.subscript.index_object;
      if (ref.subscript.kind == core::Subscript::Kind::kIndirect) {
        if (via >= module.objects.size()) {
          add(Severity::kError, "invalid-object-ref",
              module.objects[ref.object].name, ref.loc,
              "indirect reference to '" + module.objects[ref.object].name +
                  "' names an invalid index object");
        } else {
          used_as_index[via] = true;
        }
      }
      if (ref.subscript.kind == core::Subscript::Kind::kOpaque) {
        add(Severity::kWarning, "opaque-subscript",
            module.objects[ref.object].name, ref.loc,
            "opaque subscript on '" + module.objects[ref.object].name +
                "' in task " + std::to_string(task.task) +
                " silently degrades to runtime-refined alpha (Section 4); "
                "express the subscript as affine/stencil/indirect if its "
                "structure is known");
      }
    });
  }

  for (std::size_t i = 0; i < module.objects.size(); ++i) {
    const ObjectDecl& obj = module.objects[i];
    const ObjectReport& report = analysis.objects[i];

    if (report.referenced && !obj.registered) {
      add(Severity::kError, "unregistered-object", obj.name, obj.loc,
          "object '" + obj.name +
              "' is referenced by kernel code but never passed to "
              "LB_HM_config — the runtime cannot place or migrate it");
    }
    if (!report.referenced) {
      add(obj.registered ? Severity::kWarning : Severity::kNote,
          "dead-object", obj.name, obj.loc,
          "object '" + obj.name + "' is declared" +
              (obj.registered ? " and registered" : "") +
              " but no kernel references it" +
              (obj.registered ? " — it wastes a placement slot" : ""));
      continue;
    }
    if (report.write_fraction >= kWriteHeavyFraction &&
        report.touched_accesses > 0) {
      char frac[16];
      std::snprintf(frac, sizeof frac, "%.0f%%",
                    100.0 * report.write_fraction);
      add(Severity::kWarning, "write-heavy", obj.name, obj.loc,
          "object '" + obj.name + "' is " + frac +
              " writes; PM write bandwidth is 4.74x slower than DRAM "
              "(Fig. 3) — prioritise DRAM residency or split the "
              "write-heavy phase");
    }
    if (used_as_index[i] && obj.pattern_hint == "random" &&
        (report.pattern == PatternClass::kScalar ||
         report.pattern == PatternClass::kStream ||
         report.pattern == PatternClass::kStrided)) {
      add(Severity::kWarning, "index-misregistered", obj.name, obj.loc,
          "object '" + obj.name +
              "' is an index array (swept sequentially by the gather that "
              "uses it) but is registered as pattern=random — the alpha "
              "table would needlessly fall back to runtime refinement");
    } else if (!obj.pattern_hint.empty()) {
      const std::string derived = trace::PatternName(report.trace_pattern);
      std::string lowered = derived;
      std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lowered != obj.pattern_hint) {
        add(Severity::kWarning, "pattern-mismatch", obj.name, obj.loc,
            "object '" + obj.name + "' is registered as pattern=" +
                obj.pattern_hint + " but static analysis derives " + derived);
      }
    }
  }
  return out;
}

bool HasErrors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

std::string FormatFinding(const std::string& file, const Finding& finding) {
  std::string out = file.empty() ? "<ir>" : file;
  if (finding.loc.valid()) {
    out += ':';
    out += std::to_string(finding.loc.line);
    out += ':';
    out += std::to_string(finding.loc.col);
  }
  out += ": ";
  out += SeverityName(finding.severity);
  out += ": [";
  out += finding.code;
  out += "] ";
  out += finding.message;
  return out;
}

}  // namespace merch::analysis
