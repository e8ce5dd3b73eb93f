// Bump-pointer arena for the engine's region-scoped lane scratch.
//
// The lane-structured timing path (engine.cc) keeps per-access SoA arrays
// per kernel plus per-task cost tables that are overwritten on every base
// rebuild — allocation patterns that are identical every region and whose
// lifetimes all end at the region barrier. EpochArena carves them out of
// large chunks with a bump pointer and recycles the chunks at every Reset,
// so the epoch loop performs zero allocator traffic after the first region
// warms the pool. Allocations are value-initialised (zeroed).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace merch::sim {

class EpochArena {
 public:
  EpochArena() = default;
  EpochArena(const EpochArena&) = delete;
  EpochArena& operator=(const EpochArena&) = delete;

  /// Invalidates every span handed out since the last Reset by rewinding
  /// the bump pointer over the retained chunks.
  void Reset() {
    for (Chunk& c : chunks_) c.used = 0;
    cursor_ = 0;
  }

  /// `n` value-initialised Ts, aligned for T (and at least to 64 bytes so
  /// SoA lanes start on their own cache line). The span is stable until
  /// the next Reset.
  template <typename T>
  std::span<T> AllocSpan(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    if (n == 0) return {};
    const std::size_t bytes = n * sizeof(T);
    std::byte* p = AllocBytes(bytes);
    // Placement value-init: zeroes arithmetic types deterministically.
    T* first = new (p) T[n]();
    return std::span<T>(first, n);
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kChunkBytes = 1u << 20;

  std::byte* AllocBytes(std::size_t bytes) {
    const std::size_t need = (bytes + kAlign - 1) / kAlign * kAlign;
    while (cursor_ < chunks_.size() &&
           chunks_[cursor_].used + need > chunks_[cursor_].size) {
      ++cursor_;
    }
    if (cursor_ == chunks_.size()) {
      Chunk c;
      c.size = std::max(kChunkBytes, need);
      c.data = std::make_unique<std::byte[]>(c.size + kAlign);
      chunks_.push_back(std::move(c));
    }
    Chunk& c = chunks_[cursor_];
    std::byte* p = Aligned(c.data.get()) + c.used;
    c.used += need;
    return p;
  }

  static std::byte* Aligned(std::byte* p) {
    const auto v = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t up = (v + kAlign - 1) / kAlign * kAlign;
    return p + (up - v);
  }

  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;  // first chunk with free space
};

}  // namespace merch::sim
