// Environment-variable escape hatches of the decision path.
//
// Three toggles remain, each selecting between an optimised path and the
// reference it replaced, so benchmarks can reproduce the older cost
// profile without a rebuild: MERCH_FLAT_FOREST (ml), MERCH_GREEDY_HEAP and
// MERCH_POLICY_MEMO (core). The simulation engine has a single path and
// no toggles.
#pragma once

namespace merch::common {

/// Boolean escape hatch: unset/empty keeps `fallback`; "0"/"off"/"false"
/// disables; anything else enables.
bool EnvToggle(const char* name, bool fallback);

}  // namespace merch::common
