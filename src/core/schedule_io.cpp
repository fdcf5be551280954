#include "ftsched/core/schedule_io.hpp"

#include <iomanip>
#include <map>
#include <sstream>

#include "ftsched/dag/serialize.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

void write_schedule(std::ostream& os, const ReplicatedSchedule& schedule) {
  os << std::setprecision(17);
  os << "schedule " << schedule.algorithm() << ' ' << schedule.epsilon()
     << '\n';
  for (TaskId t : schedule.graph().tasks()) {
    for (const Replica& r : schedule.replicas(t)) {
      os << "replica " << t.value() << ' ' << r.proc.value() << ' '
         << r.start << ' ' << r.finish << ' ' << r.pess_start << ' '
         << r.pess_finish << '\n';
    }
  }
  for (std::size_t e = 0; e < schedule.graph().edge_count(); ++e) {
    for (const Channel& c : schedule.channels(e)) {
      os << "channel " << e << ' ' << c.src_replica << ' ' << c.dst_replica
         << '\n';
    }
  }
  for (TaskId t : schedule.repaired_tasks()) {
    os << "repaired " << t.value() << '\n';
  }
}

std::string schedule_to_string(const ReplicatedSchedule& schedule) {
  std::ostringstream os;
  write_schedule(os, schedule);
  return os.str();
}

ReplicatedSchedule read_schedule(std::istream& is, const CostModel& costs,
                                 bool validate) {
  std::string line;
  std::string algorithm;
  std::size_t epsilon = 0;
  bool saw_header = false;
  std::map<std::uint32_t, std::vector<Replica>> replicas;
  std::map<std::size_t, std::vector<Channel>> channels;
  std::vector<TaskId> repaired;
  std::size_t line_no = 0;

  while (std::getline(is, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "schedule") {
      ls >> algorithm >> UnsignedField{epsilon};
      FTSCHED_REQUIRE(!ls.fail(), "malformed schedule header on line " +
                                      std::to_string(line_no));
      saw_header = true;
    } else if (kind == "replica") {
      std::uint32_t task = 0;
      std::uint32_t proc = 0;
      Replica r;
      ls >> UnsignedField{task} >> UnsignedField{proc} >> r.start >>
          r.finish >> r.pess_start >> r.pess_finish;
      FTSCHED_REQUIRE(!ls.fail(), "malformed replica line " +
                                      std::to_string(line_no));
      r.proc = ProcId{proc};
      replicas[task].push_back(r);
    } else if (kind == "channel") {
      std::size_t edge = 0;
      Channel c;
      ls >> UnsignedField{edge} >> UnsignedField{c.src_replica} >>
          UnsignedField{c.dst_replica};
      FTSCHED_REQUIRE(!ls.fail(), "malformed channel line " +
                                      std::to_string(line_no));
      channels[edge].push_back(c);
    } else if (kind == "repaired") {
      std::uint32_t task = 0;
      ls >> UnsignedField{task};
      FTSCHED_REQUIRE(!ls.fail(), "malformed repaired line " +
                                      std::to_string(line_no));
      repaired.emplace_back(task);
    } else {
      throw InvalidArgument("unknown directive '" + kind + "' on line " +
                            std::to_string(line_no));
    }
  }
  FTSCHED_REQUIRE(saw_header, "missing 'schedule <algorithm> <epsilon>'");

  ReplicatedSchedule schedule(costs, epsilon, algorithm);
  for (auto& [task, reps] : replicas) {
    schedule.place_task(TaskId{task}, std::move(reps));
  }
  for (auto& [edge, cs] : channels) {
    FTSCHED_REQUIRE(edge < costs.graph().edge_count(),
                    "channel references unknown edge");
    schedule.set_channels(edge, cs);
  }
  schedule.set_repaired_tasks(std::move(repaired));
  if (validate) schedule.validate();
  return schedule;
}

ReplicatedSchedule schedule_from_string(const std::string& text,
                                        const CostModel& costs,
                                        bool validate) {
  std::istringstream is(text);
  return read_schedule(is, costs, validate);
}

}  // namespace ftsched
