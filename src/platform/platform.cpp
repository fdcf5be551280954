#include "ftsched/platform/platform.hpp"

#include <algorithm>
#include <numeric>

#include "ftsched/util/error.hpp"

namespace ftsched {

Platform::Platform(std::size_t proc_count, double unit_delay) : m_(proc_count) {
  FTSCHED_REQUIRE(proc_count > 0, "platform needs at least one processor");
  FTSCHED_REQUIRE(unit_delay >= 0.0, "unit delay must be non-negative");
  delay_.assign(m_ * m_, unit_delay);
  for (std::size_t k = 0; k < m_; ++k) delay_[k * m_ + k] = 0.0;
  finalize();
}

Platform::Platform(std::vector<std::vector<double>> delay) {
  m_ = delay.size();
  FTSCHED_REQUIRE(m_ > 0, "platform needs at least one processor");
  delay_.reserve(m_ * m_);
  for (std::size_t k = 0; k < m_; ++k) {
    FTSCHED_REQUIRE(delay[k].size() == m_, "delay matrix must be square");
    for (std::size_t h = 0; h < m_; ++h) {
      const double d = delay[k][h];
      FTSCHED_REQUIRE(d >= 0.0, "delays must be non-negative");
      if (k == h) FTSCHED_REQUIRE(d == 0.0, "diagonal delays must be zero");
      delay_.push_back(d);
    }
  }
  finalize();
}

void Platform::finalize() {
  max_from_.assign(m_, 0.0);
  double sum = 0.0;
  max_delay_ = 0.0;
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::size_t h = 0; h < m_; ++h) {
      const double d = delay_[k * m_ + h];
      max_from_[k] = std::max(max_from_[k], d);
      max_delay_ = std::max(max_delay_, d);
      if (k != h) sum += d;
    }
  }
  avg_delay_ = m_ > 1 ? sum / static_cast<double>(m_ * (m_ - 1)) : 0.0;
}

std::vector<ProcId> Platform::procs() const {
  std::vector<ProcId> result;
  result.reserve(m_);
  for (std::size_t k = 0; k < m_; ++k) result.emplace_back(k);
  return result;
}

double Platform::max_delay_from(ProcId from) const {
  FTSCHED_REQUIRE(from.index() < m_, "processor id out of range");
  return max_from_[from.index()];
}

std::vector<double> Platform::off_diagonal_delays() const {
  std::vector<double> result;
  result.reserve(m_ * (m_ - 1));
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::size_t h = 0; h < m_; ++h) {
      if (k != h) result.push_back(delay_[k * m_ + h]);
    }
  }
  return result;
}

std::vector<ProcId> Platform::fastest_links(std::size_t count) const {
  FTSCHED_REQUIRE(count <= m_, "asked for more processors than the platform has");
  std::vector<double> avg_out(m_, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    double sum = 0.0;
    for (std::size_t h = 0; h < m_; ++h) sum += delay_[k * m_ + h];
    avg_out[k] = m_ > 1 ? sum / static_cast<double>(m_ - 1) : 0.0;
  }
  std::vector<std::size_t> idx(m_);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&avg_out](std::size_t a, std::size_t b) {
    return avg_out[a] < avg_out[b];
  });
  std::vector<ProcId> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) result.emplace_back(idx[i]);
  return result;
}

}  // namespace ftsched
