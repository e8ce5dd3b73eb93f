// bench_diff: regression gate between two BENCH_*.json files.
//
//   bench_diff <baseline.json> <current.json> [--threshold F]
//
// Joins the two files' "runs" arrays on (app, policy, scale, dram_quota,
// variant) and prints every matched run's median wall-clock delta, then
// compares every top-level aggregate of the baseline whose name ends in
// "speedup". Exits 1 if any such aggregate regressed by more than the
// threshold (default 0.10 = 10%) or is missing from the current file — a
// gate whose number disappeared must not pass — and 2 on usage/parse
// errors. Runs only present on one side are listed but never gate. CI
// redirects stdout to an artifact.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace merch {
namespace {

double NumberField(const obs::JsonValue& obj, const char* key,
                   double fallback = 0) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string StringField(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->str : "";
}

/// Join key of one run row. dram_quota defaults to 1 so files written
/// before the quota axis existed still match.
std::string RunKey(const obs::JsonValue& run) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s|%s|%g|%g|%s",
                StringField(run, "app").c_str(),
                StringField(run, "policy").c_str(),
                NumberField(run, "scale", 1.0),
                NumberField(run, "dram_quota", 1.0),
                StringField(run, "variant").c_str());
  return buf;
}

/// A run's median wall seconds; rows written before medians were
/// recorded fall back to their single sample.
double MedianWall(const obs::JsonValue& run) {
  return NumberField(run, "wall_median_seconds",
                     NumberField(run, "wall_seconds"));
}

bool LoadJson(const char* path, obs::JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  if (!obs::ParseJson(text.str(), out, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path, error.c_str());
    return false;
  }
  if (!out->is_object()) {
    std::fprintf(stderr, "bench_diff: %s: top level is not an object\n",
                 path);
    return false;
  }
  return true;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace
}  // namespace merch

int main(int argc, char** argv) {
  using namespace merch;
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double threshold = 0.10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s <baseline.json> <current.json> "
                   "[--threshold F]\n",
                   argv[0]);
      return 2;
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <current.json> [--threshold F]\n",
                 argv[0]);
    return 2;
  }

  obs::JsonValue baseline, current;
  if (!LoadJson(baseline_path, &baseline) || !LoadJson(current_path, &current))
    return 2;

  // Per-run median wall-clock deltas (informational).
  const obs::JsonValue* base_runs = baseline.Find("runs");
  const obs::JsonValue* cur_runs = current.Find("runs");
  std::printf("== per-run median wall seconds (baseline -> current) ==\n");
  std::size_t matched = 0, only_current = 0;
  if (base_runs != nullptr && base_runs->is_array() && cur_runs != nullptr &&
      cur_runs->is_array()) {
    for (const obs::JsonValue& cur : cur_runs->items) {
      const std::string key = RunKey(cur);
      const obs::JsonValue* base = nullptr;
      for (const obs::JsonValue& b : base_runs->items) {
        if (RunKey(b) == key) {
          base = &b;
          break;
        }
      }
      if (base == nullptr) {
        std::printf("  %-55s  (new run, no baseline)\n", key.c_str());
        ++only_current;
        continue;
      }
      const double bs = MedianWall(*base);
      const double cs = MedianWall(cur);
      std::printf("  %-55s  %9.4fs -> %9.4fs  (%+.1f%%)\n", key.c_str(), bs,
                  cs, bs > 0 ? 100.0 * (cs - bs) / bs : 0.0);
      ++matched;
    }
    for (const obs::JsonValue& b : base_runs->items) {
      const std::string key = RunKey(b);
      bool found = false;
      for (const obs::JsonValue& cur : cur_runs->items) {
        if (RunKey(cur) == key) {
          found = true;
          break;
        }
      }
      if (!found) std::printf("  %-55s  (dropped from current)\n",
                              key.c_str());
    }
  }
  std::printf("matched %zu run(s), %zu new\n\n", matched, only_current);

  // Aggregate gate: every top-level *speedup number of the baseline.
  std::printf("== aggregate gate (threshold %.0f%%) ==\n", 100.0 * threshold);
  int regressions = 0;
  for (const auto& [name, value] : baseline.fields) {
    if (!EndsWith(name, "speedup") || !value.is_number()) continue;
    const obs::JsonValue* cur = current.Find(name);
    if (cur == nullptr || !cur->is_number()) {
      std::printf("  %-40s  baseline %.3fx, missing from current  MISSING\n",
                  name.c_str(), value.number);
      ++regressions;
      continue;
    }
    const bool regressed = cur->number < value.number * (1.0 - threshold);
    std::printf("  %-40s  %7.3fx -> %7.3fx  %s\n", name.c_str(), value.number,
                cur->number, regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }
  if (regressions > 0) {
    std::printf("\n%d aggregate(s) regressed beyond %.0f%% or missing\n",
                regressions, 100.0 * threshold);
    return 1;
  }
  std::printf("\nno aggregate regression\n");
  return 0;
}
