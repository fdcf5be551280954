// Kill sets: the processors whose lone failure kills a replica (its own,
// plus, through single-channel edges, those that starve one of its inputs).
// MC-FTSA's channel selection and the robustness analysis keep one per
// replica.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftsched/util/ids.hpp"

namespace ftsched {

/// Dynamic bitset over a platform's processors.
class KillSet {
 public:
  KillSet() = default;
  explicit KillSet(std::size_t proc_count)
      : words_((proc_count + 63) / 64, 0) {}

  void add(ProcId p) noexcept {
    words_[p.index() / 64] |= std::uint64_t{1} << (p.index() % 64);
  }
  /// Re-zeroes for `proc_count` processors, keeping the allocation (scratch
  /// reuse across tasks).
  void reset(std::size_t proc_count) {
    words_.assign((proc_count + 63) / 64, 0);
  }
  /// this ∪= other.
  void merge(const KillSet& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }
  /// this ∩= other.
  void restrict_to(const KillSet& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
  }
  [[nodiscard]] bool intersects(const KillSet& other) const noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) return true;
    }
    return false;
  }
  /// True iff this ∩ universe ⊄ allowed, i.e. this set touches a processor
  /// of `universe` outside `allowed`.
  [[nodiscard]] bool conflicts_outside(const KillSet& universe,
                                       const KillSet& allowed) const noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & universe.words_[i] & ~allowed.words_[i]) return true;
    }
    return false;
  }
  [[nodiscard]] bool empty() const noexcept {
    return std::ranges::all_of(words_, [](std::uint64_t w) { return w == 0; });
  }
  /// The lowest processor in the set; undefined when empty().
  [[nodiscard]] ProcId first() const noexcept {
    std::size_t i = 0;
    while (i + 1 < words_.size() && words_[i] == 0) ++i;
    const auto bit = static_cast<std::size_t>(__builtin_ctzll(words_[i]));
    return ProcId{i * 64 + bit};
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace ftsched
