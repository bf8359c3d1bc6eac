// Minimal JSON document model + recursive-descent parser covering the
// schemas this repo reads back (fault plans, cluster configs, pinned bench
// baselines): objects, arrays, strings, numbers, true/false/null. The repo
// intentionally has no general JSON dependency; writers emit JSON by hand
// (obs/export, FaultPlan::to_json) with append_escaped below, and readers
// parse with this.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace marlin::json {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v =
      nullptr;

  const Object* object() const { return std::get_if<Object>(&v); }
  const Array* array() const { return std::get_if<Array>(&v); }
  const std::string* str() const { return std::get_if<std::string>(&v); }
  const double* num() const { return std::get_if<double>(&v); }
};

/// Parses a complete JSON document; errors carry the byte offset.
Result<Value> parse(std::string_view text);

// -- typed field accessors ---------------------------------------------------
// Convenience lookups for config-style objects: each returns the fallback
// when the key is absent or holds a different type.

double get_num(const Object& o, const std::string& key, double fallback);
bool get_bool(const Object& o, const std::string& key, bool fallback);
std::string get_str(const Object& o, const std::string& key,
                    const std::string& fallback);
const Object* get_object(const Object& o, const std::string& key);

// -- writing -----------------------------------------------------------------

/// Appends `s` escaped for use inside a JSON string literal (the quotes are
/// the caller's): `"` and `\`, `\n` `\t` `\r`, and every other control
/// character as `\u00XX` — the one escaper every hand-written writer uses.
void append_escaped(std::string& out, std::string_view s);

}  // namespace marlin::json
