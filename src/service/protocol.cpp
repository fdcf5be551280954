#include "ftsched/service/protocol.hpp"

#include "ftsched/util/error.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

namespace {

std::string quoted(const char* key, const std::string& value) {
  return std::string("\"") + key + "\":\"" + json_escape(value) + "\"";
}

}  // namespace

ServiceMessage parse_service_message(const std::string& payload,
                                     const std::string& from) {
  ServiceMessage msg;
  msg.where = from;
  const std::size_t eol = payload.find('\n');
  msg.head.parse(eol == std::string::npos ? payload : payload.substr(0, eol),
                 from);
  msg.type = msg.head.field("type", from);
  if (eol != std::string::npos) msg.body.assign(payload, eol + 1);
  return msg;
}

bool next_line(std::string_view& body, std::string_view& line) {
  while (!body.empty()) {
    const std::size_t eol = body.find('\n');
    line = body.substr(0, eol);
    body.remove_prefix(eol == std::string_view::npos ? body.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) return true;
  }
  return false;
}

std::string msg_hello(const std::string& worker) {
  return std::string("{\"ftsched_coord\":\"") + kCoordProtocolVersion +
         "\",\"type\":\"hello\"," + quoted("worker", worker) + "}";
}

std::string msg_plan(const std::vector<std::string>& sweep_args,
                     const std::string& shard, const std::string& fingerprint) {
  std::string out = "{\"type\":\"plan\",";
  out += quoted("args", join_plan_args(sweep_args)) + ",";
  out += quoted("shard", shard) + ",";
  out += quoted("fingerprint", fingerprint) + "}";
  return out;
}

std::string msg_ready(const std::string& fingerprint,
                      const std::string& numerics) {
  return "{\"type\":\"ready\"," + quoted("fingerprint", fingerprint) + "," +
         quoted("numerics", numerics) + "}";
}

std::string msg_lease_request() { return "{\"type\":\"lease_request\"}"; }

std::string msg_lease(std::uint64_t lease, const std::vector<std::size_t>& ks) {
  return "{\"type\":\"lease\",\"lease\":\"" + std::to_string(lease) + "\"," +
         quoted("ks", render_index_list(ks)) + "}";
}

std::string msg_sample_head(std::uint64_t lease, std::size_t k) {
  return "{\"type\":\"sample\",\"lease\":\"" + std::to_string(lease) +
         "\",\"k\":\"" + std::to_string(k) + "\"}";
}

std::string msg_done(std::uint64_t lease) {
  return "{\"type\":\"done\",\"lease\":\"" + std::to_string(lease) + "\"}";
}

std::string msg_heartbeat() { return "{\"type\":\"heartbeat\"}"; }

std::string msg_reject(const std::string& cause) {
  return "{\"type\":\"reject\"," + quoted("cause", cause) + "}";
}

std::string msg_bye() { return "{\"type\":\"bye\"}"; }

std::string join_plan_args(const std::vector<std::string>& args) {
  std::string out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    FTSCHED_REQUIRE(args[i].find('\n') == std::string::npos,
                    "plan argument contains a newline: " + args[i]);
    if (i) out += '\n';
    out += args[i];
  }
  return out;
}

std::vector<std::string> split_plan_args(const std::string& joined) {
  std::vector<std::string> out;
  if (joined.empty()) return out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t eol = joined.find('\n', begin);
    if (eol == std::string::npos) {
      out.push_back(joined.substr(begin));
      return out;
    }
    out.push_back(joined.substr(begin, eol - begin));
    begin = eol + 1;
  }
}

std::string render_index_list(const std::vector<std::size_t>& ks) {
  std::string out;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (i) out += ';';
    out += std::to_string(ks[i]);
  }
  return out;
}

std::vector<std::size_t> parse_index_list(const std::string& joined,
                                          const std::string& where) {
  std::vector<std::size_t> out;
  if (joined.empty()) return out;
  std::size_t begin = 0;
  while (begin <= joined.size()) {
    std::size_t end = joined.find(';', begin);
    if (end == std::string::npos) end = joined.size();
    FTSCHED_REQUIRE(end > begin, where + ": empty index in lease list");
    out.push_back(static_cast<std::size_t>(
        spec_detail::parse_u64("lease index", joined.substr(begin, end - begin))));
    begin = end + 1;
  }
  return out;
}

}  // namespace ftsched
