// Plain-text serialization of task graphs.
//
// Format (line oriented, '#' comments allowed):
//   taskgraph <name>
//   task <label>                # tasks are numbered in order of appearance
//   edge <src-index> <dst-index> <volume>
#pragma once

#include <charconv>
#include <istream>
#include <string>
#include <system_error>

#include "ftsched/dag/graph.hpp"

namespace ftsched {

/// `is >> UnsignedField{x}` reads the next token of this format or the
/// schedule format into the unsigned `x` with std::from_chars.  A sign,
/// overflow or trailing junk sets failbit, where `is >> x` would wrap "-1".
template <typename T>
struct UnsignedField { T& out; };

template <typename T>
std::istream& operator>>(std::istream& is, UnsignedField<T> field) {
  std::string token;
  if (!(is >> token)) return is;
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, field.out);
  if (ec != std::errc{} || ptr != last) is.setstate(std::ios::failbit);
  return is;
}

/// Writes `g` in the text format above.
void write_graph(std::ostream& os, const TaskGraph& g);
[[nodiscard]] std::string graph_to_string(const TaskGraph& g);

/// Parses a graph; throws InvalidArgument on malformed input.
[[nodiscard]] TaskGraph read_graph(std::istream& is);
[[nodiscard]] TaskGraph graph_from_string(const std::string& text);

}  // namespace ftsched
