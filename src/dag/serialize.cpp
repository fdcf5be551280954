#include "ftsched/dag/serialize.hpp"

#include <iomanip>
#include <sstream>

#include "ftsched/util/error.hpp"

namespace ftsched {

void write_graph(std::ostream& os, const TaskGraph& g) {
  os << "taskgraph " << (g.name().empty() ? "unnamed" : g.name()) << '\n';
  for (TaskId t : g.tasks()) {
    os << "task " << g.label(t) << '\n';
  }
  os << std::setprecision(17);
  for (const Edge& e : g.edges()) {
    os << "edge " << e.src.value() << ' ' << e.dst.value() << ' ' << e.volume
       << '\n';
  }
}

std::string graph_to_string(const TaskGraph& g) {
  std::ostringstream os;
  write_graph(os, g);
  return os.str();
}

TaskGraph read_graph(std::istream& is) {
  TaskGraph g;
  std::string line;
  bool saw_header = false;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "taskgraph") {
      std::string name;
      ls >> name;
      g.set_name(name);
      saw_header = true;
    } else if (kind == "task") {
      std::string label;
      ls >> label;
      (void)g.add_task(label);
    } else if (kind == "edge") {
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      double volume = 0.0;
      ls >> UnsignedField{src} >> UnsignedField{dst} >> volume;
      FTSCHED_REQUIRE(!ls.fail(), "malformed edge line " +
                                      std::to_string(line_no) + ": " + line);
      g.add_edge(TaskId{src}, TaskId{dst}, volume);
    } else {
      throw InvalidArgument("unknown directive '" + kind + "' on line " +
                            std::to_string(line_no));
    }
  }
  FTSCHED_REQUIRE(saw_header, "missing 'taskgraph <name>' header");
  return g;
}

TaskGraph graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_graph(is);
}

}  // namespace ftsched
