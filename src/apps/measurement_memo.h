// Process-wide memo for a builder's base-input measurement.
//
// The BFS and SpGEMM builders measure real kernels on a fixed base input
// (paper Eq. 1, Section 4) and then scale the counts to each requested
// footprint and work. The measurement depends only on the builder's fixed
// input, so it is computed once per process per key and shared. Concurrent
// first callers of one key wait for a single computation. Entries are
// never evicted: `apps::BuildApp` passes one fixed input per app, so the
// memo holds at most one entry per app.
#pragma once

#include <map>
#include <mutex>

namespace merch::apps {

template <typename Key, typename Measurement>
class MeasurementMemo {
 public:
  /// The measurement for `key`, computing it with `measure()` on the first
  /// call. If `measure` throws, the next caller computes it again.
  template <typename Measure>
  const Measurement& Get(const Key& key, Measure&& measure) {
    Entry* entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry = &entries_[key];  // map nodes never move
    }
    std::call_once(entry->once, [&] { entry->value = measure(); });
    return entry->value;
  }

 private:
  struct Entry {
    std::once_flag once;
    Measurement value;
  };
  std::mutex mu_;
  std::map<Key, Entry> entries_;
};

}  // namespace merch::apps
