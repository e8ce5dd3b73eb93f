#include "analysis/depgraph.h"

#include <algorithm>

#include "common/types.h"

namespace merch::analysis {
namespace {

/// Emit every dependence of `kind` between `src`'s summaries in
/// `src_list` and `dst`'s in `dst_list` (same-object hull intersections).
void Intersect(const TaskGraph& g, std::size_t src, std::size_t dst,
               const std::vector<AccessSummary>& src_list,
               const std::vector<AccessSummary>& dst_list, DepKind kind,
               bool declared, std::vector<DepEdge>* out) {
  std::size_t i = 0, j = 0;
  while (i < src_list.size() && j < dst_list.size()) {
    if (src_list[i].object < dst_list[j].object) {
      ++i;
    } else if (dst_list[j].object < src_list[i].object) {
      ++j;
    } else {
      const AccessSummary& a = src_list[i];
      const AccessSummary& b = dst_list[j];
      const std::uint64_t overlap = IntervalOverlap(a.bytes, b.bytes);
      if (overlap > 0) {
        DepEdge e;
        e.from = src;
        e.to = dst;
        e.from_task = g.summary.tasks[src].task;
        e.to_task = g.summary.tasks[dst].task;
        e.kind = kind;
        e.object = a.object;
        e.overlap_bytes = overlap;
        e.exact = !a.widened && !b.widened;
        e.declared = declared;
        out->push_back(e);
      }
      ++i;
      ++j;
    }
  }
}

/// All three conflict kinds from `src` to `dst` (src happens-first).
void IntersectPair(const TaskGraph& g, std::size_t src, std::size_t dst,
                   bool declared, std::vector<DepEdge>* out) {
  const TaskSummary& s = g.summary.tasks[src];
  const TaskSummary& d = g.summary.tasks[dst];
  Intersect(g, src, dst, s.writes, d.reads, DepKind::kRaw, declared, out);
  Intersect(g, src, dst, s.reads, d.writes, DepKind::kWar, declared, out);
  Intersect(g, src, dst, s.writes, d.writes, DepKind::kWaw, declared, out);
}

}  // namespace

const char* DepKindName(DepKind k) {
  switch (k) {
    case DepKind::kRaw:
      return "RAW";
    case DepKind::kWar:
      return "WAR";
    case DepKind::kWaw:
      return "WAW";
  }
  return "RAW";
}

bool TaskGraph::Ordered(std::size_t a, std::size_t b) const {
  if (a >= reach_.size() || b >= reach_.size()) return false;
  return reach_[a][b] || reach_[b][a];
}

std::size_t TaskGraph::IndexOf(TaskId t) const {
  for (std::size_t i = 0; i < summary.tasks.size(); ++i) {
    if (summary.tasks[i].task == t) return i;
  }
  return SIZE_MAX;
}

TaskGraph BuildTaskGraph(const Module& /*module*/, ModuleSummary summary) {
  TaskGraph g;
  g.summary = std::move(summary);
  const std::size_t n = g.summary.tasks.size();

  // Declared `after` edges (predecessor -> successor); unknown ids are
  // skipped here and reported by LintDependences.
  std::vector<std::vector<std::size_t>> succs(n);
  for (std::size_t si = 0; si < n; ++si) {
    for (const TaskId pred : g.summary.tasks[si].after) {
      const std::size_t pi = g.IndexOf(pred);
      if (pi == SIZE_MAX || pi == si) continue;
      g.declared.push_back({pi, si});
      succs[pi].push_back(si);
    }
  }

  // Happens-before closure (DFS per source; task counts are small). A
  // task reaching itself through declared edges marks the graph cyclic.
  g.reach_.assign(n, std::vector<bool>(n, false));
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::size_t> stack = succs[src];
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      if (cur == src) {
        g.cyclic = true;
        continue;
      }
      if (g.reach_[src][cur]) continue;
      g.reach_[src][cur] = true;
      stack.insert(stack.end(), succs[cur].begin(), succs[cur].end());
    }
    if (g.reach_[src][src]) g.cyclic = true;
  }

  // Pairwise summary intersection. Ordered pairs get edges in
  // happens-before direction; unordered pairs in declaration order (both
  // conflict directions collapse onto one pair orientation so each
  // conflicting object yields one edge per kind).
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (g.reach_[a][b]) {
        IntersectPair(g, a, b, /*declared=*/true, &g.edges);
      } else if (g.reach_[b][a]) {
        IntersectPair(g, b, a, /*declared=*/true, &g.edges);
      } else {
        IntersectPair(g, a, b, /*declared=*/false, &g.edges);
      }
    }
  }
  return g;
}

std::vector<Finding> LintDependences(const Module& module,
                                     const TaskGraph& graph,
                                     const hm::HmSpec& hm) {
  std::vector<Finding> out;
  auto add = [&out](Severity sev, std::string code, std::string object,
                    SourceLoc loc, std::string message) {
    out.push_back({sev, std::move(code), std::move(message),
                   std::move(object), loc});
  };
  const std::size_t n = graph.summary.tasks.size();

  // Structural problems with the declared ordering first.
  for (std::size_t si = 0; si < n; ++si) {
    const TaskSummary& ts = graph.summary.tasks[si];
    for (const TaskId pred : ts.after) {
      if (graph.IndexOf(pred) == SIZE_MAX) {
        add(Severity::kError, "unknown-predecessor", "", ts.loc,
            "task " + std::to_string(ts.task) + " declares 'after " +
                std::to_string(pred) + "' but no task " +
                std::to_string(pred) + " exists");
      }
    }
  }
  if (graph.cyclic) {
    add(Severity::kError, "dependence-cycle", "", SourceLoc{},
        "declared 'after' edges form a cycle — the task ordering is "
        "undefined, race analysis suppressed");
    return out;
  }

  // Races: conflicting pairs with no declared ordering path.
  for (const DepEdge& e : graph.edges) {
    if (e.declared) continue;
    const std::string obj = e.object < module.objects.size()
                                ? module.objects[e.object].name
                                : "?";
    const SourceLoc loc = e.object < module.objects.size()
                              ? module.objects[e.object].loc
                              : SourceLoc{};
    const std::string pair = "tasks " + std::to_string(e.from_task) +
                             " and " + std::to_string(e.to_task);
    const std::string evidence =
        std::string(DepKindName(e.kind)) + " conflict on '" + obj + "' (" +
        FormatBytes(e.overlap_bytes) + " overlapping)";
    if (!module.fork_join) {
      if (e.exact) {
        add(Severity::kError, "data-race", obj, loc,
            pair + " are unordered but have a provable " + evidence +
                " — declare an ordering ('task N after M') or make the "
                "slices disjoint (base=)");
      } else {
        add(Severity::kWarning, "potential-race", obj, loc,
            pair + " are unordered with a may-" + evidence +
                " through an indirect/opaque footprint — verify the "
                "runtime index sets are disjoint or declare an ordering");
      }
      continue;
    }
    // Fork-join bridged module: shared streams are partitioned by the
    // runtime; only an exact conflicting write into another task's owned
    // object is a builder bug.
    const TaskId owner = e.object < module.objects.size()
                             ? module.objects[e.object].owner
                             : kInvalidTask;
    const bool foreign_write =
        owner != kInvalidTask &&
        ((e.kind == DepKind::kRaw && e.from_task != owner) ||   // writer=from
         (e.kind == DepKind::kWar && e.to_task != owner) ||     // writer=to
         (e.kind == DepKind::kWaw &&
          (e.from_task != owner || e.to_task != owner)));
    if (foreign_write && e.exact) {
      add(Severity::kError, "data-race", obj, loc,
          pair + " run concurrently in a fork-join region and a non-owner "
                 "task provably writes task-" +
              std::to_string(owner) + "-owned '" + obj + "' (" + evidence +
              ")");
    } else {
      add(Severity::kNote, "assumed-partitioned", obj, loc,
          pair + " share a fork-join " + evidence +
              " — assumed partitioned by the runtime");
    }
  }

  // Over-synchronization: a direct declared edge whose endpoint tasks
  // share no conflicting bytes at all.
  for (const auto& [pi, si] : graph.declared) {
    bool conflicts = false;
    for (const DepEdge& e : graph.edges) {
      if ((e.from == pi && e.to == si) || (e.from == si && e.to == pi)) {
        conflicts = true;
        break;
      }
    }
    if (conflicts) continue;
    const TaskSummary& p = graph.summary.tasks[pi];
    const TaskSummary& s = graph.summary.tasks[si];
    add(Severity::kWarning, "over-synchronization", "", s.loc,
        "task " + std::to_string(s.task) + " declares 'after " +
            std::to_string(p.task) +
            "' but the tasks share no conflicting data — the edge "
            "serializes work that could run concurrently");
  }

  // Placement interference: concurrent tasks whose combined DRAM-hungry
  // footprints cannot fit the fast tier together.
  const std::uint64_t fast = hm.dram_capacity();
  if (fast > 0) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (graph.Ordered(a, b)) continue;
        const TaskSummary& ta = graph.summary.tasks[a];
        const TaskSummary& tb = graph.summary.tasks[b];
        const std::uint64_t combined =
            ta.dram_hungry_bytes + tb.dram_hungry_bytes;
        if (combined <= fast) continue;
        add(Severity::kWarning, "placement-interference", "", tb.loc,
            "concurrent tasks " + std::to_string(ta.task) + " and " +
                std::to_string(tb.task) + " want " + FormatBytes(combined) +
                " of DRAM-hungry data together but the fast tier holds " +
                FormatBytes(fast) +
                " — one of them will run from the slow tier (the load "
                "imbalance Algorithm 1 fights at runtime)");
      }
    }
  }
  return out;
}

}  // namespace merch::analysis
