// Heterogeneous, fully-connected platform model (paper §2).
//
// A platform is a set of m processors {P1..Pm} plus the unit-data delay
// matrix d(Pk, Ph); d is zero on the diagonal (intra-processor communication
// is free) and strictly positive elsewhere.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ftsched/util/error.hpp"
#include "ftsched/util/ids.hpp"

namespace ftsched {

class Platform {
 public:
  /// Homogeneous-link platform: every inter-processor delay is `unit_delay`.
  Platform(std::size_t proc_count, double unit_delay);

  /// Fully general platform from a delay matrix (row-major m×m, zero
  /// diagonal, non-negative entries).
  explicit Platform(std::vector<std::vector<double>> delay);

  [[nodiscard]] std::size_t proc_count() const noexcept { return m_; }

  /// All processor ids, 0..m-1.
  [[nodiscard]] std::vector<ProcId> procs() const;

  /// d(Pk, Ph): time to send one data unit from k to h. d(k,k) == 0.
  [[nodiscard]] double delay(ProcId from, ProcId to) const {
    FTSCHED_REQUIRE(from.index() < m_ && to.index() < m_,
                    "processor id out of range");
    return delay_[from.index() * m_ + to.index()];
  }

  /// The contiguous row d(from, ·): m entries, indexed by destination.
  [[nodiscard]] std::span<const double> delay_row(ProcId from) const {
    FTSCHED_REQUIRE(from.index() < m_, "processor id out of range");
    return {delay_.data() + from.index() * m_, m_};
  }

  /// Average of d over ordered pairs k != h (the paper's d̄).
  [[nodiscard]] double average_delay() const noexcept { return avg_delay_; }

  /// max_h d(k, h): worst-case outgoing delay from k (used by tℓ).
  [[nodiscard]] double max_delay_from(ProcId from) const;

  /// Largest entry of the whole delay matrix (used by granularity).
  [[nodiscard]] double max_delay() const noexcept { return max_delay_; }

  /// The `count` processors with the smallest average outgoing delay,
  /// i.e. "the ε+1 fastest links" used by the §4.3 deadline computation.
  [[nodiscard]] std::vector<ProcId> fastest_links(std::size_t count) const;

  /// All off-diagonal delay entries (m·(m−1) values, unsorted).
  [[nodiscard]] std::vector<double> off_diagonal_delays() const;

 private:
  void finalize();

  std::size_t m_ = 0;
  std::vector<double> delay_;  // row-major m×m
  std::vector<double> max_from_;
  double avg_delay_ = 0.0;
  double max_delay_ = 0.0;
};

}  // namespace ftsched
