// Flat JSON objects: the head lines shared by the sweep shard format
// (experiments/sweep_io.hpp: the header) and the coordinator service
// (service/protocol.hpp: every frame's first line).
//
// Each such line is one flat JSON object whose values are strings (or a
// bare token like a protocol version number), so a full JSON parser is not
// needed: `FlatJsonObject` is a strict scanner for exactly that shape, and
// `json_escape` is the matching writer-side escaper.  The parser is a
// reusable scratch object — parse() recycles its key/value strings.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ftsched {

/// Escapes `text` for embedding in a JSON string literal.  Raw newlines
/// are escaped too: the protocols are line-oriented, so an unescaped '\n'
/// (e.g. from a weird trace-file path in a workload spec) would split the
/// record and make the line the writer just produced unreadable.
[[nodiscard]] std::string json_escape(const std::string& text);

/// Reusable parse target for one flat JSON object {"k":"v",...} (values:
/// strings or bare tokens).  Throws InvalidArgument on malformed input,
/// prefixing diagnostics with `where` (e.g. "file.jsonl:17").  Records
/// hold a dozen-odd fields, so lookups scan linearly.
class FlatJsonObject {
 public:
  /// Parses `line`; previously parsed fields are recycled.
  void parse(const std::string& line, const std::string& where);

  /// Value of `key`, or nullptr when absent.
  [[nodiscard]] const std::string* find(const char* key) const;

  /// Value of `key`; throws InvalidArgument (naming `where`) when absent.
  [[nodiscard]] const std::string& field(const char* key,
                                         const std::string& where) const;

  /// Like field(), but an absent key yields `fallback` (optional fields).
  [[nodiscard]] std::string field_or(const char* key,
                                     const char* fallback) const;

 private:
  struct Field {
    std::string key;
    std::string value;
  };
  std::vector<Field> fields_;  ///< fields_[0..used_) valid after parse()
  std::size_t used_ = 0;
};

}  // namespace ftsched
