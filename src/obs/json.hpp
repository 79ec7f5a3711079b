// Minimal JSON value type used by the observability layer: a writer for
// metrics snapshots, bench baselines, JSONL event streams and Chrome
// trace-event files. Nothing here reads JSON back; the Python tools
// (tools/check_campaign.py, check_perfetto.py, compare_bench.py) validate
// the written files. Deliberately not a general-purpose JSON library (no
// NaN/Inf literals, UTF-8 passthrough).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asyncdr::obs {

/// An owned JSON value (null, bool, number, string, array or object).
/// Objects preserve insertion order so emitted files diff cleanly.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(std::int64_t v)
      : type_(Type::kNumber), num_(static_cast<double>(v)), int_(v),
        int_valued_(true) {}
  Json(std::uint64_t v)
      : type_(Type::kNumber), num_(static_cast<double>(v)),
        int_(static_cast<std::int64_t>(v)), int_valued_(true) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] std::int64_t as_int() const {
    return int_valued_ ? int_ : static_cast<std::int64_t>(num_);
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  /// Array ops. push_back converts null values into arrays on first use.
  void push_back(Json v);
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Json& at(std::size_t i) const { return items_[i].second; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return items_;
  }

  /// Object ops. operator[] inserts a null member when absent (and converts
  /// a null value into an object on first use); find returns nullptr.
  Json& operator[](const std::string& key);
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Serializes. indent < 0 emits a single line; otherwise pretty-prints
  /// with that many spaces per level. Numbers that were constructed from
  /// integers print without a decimal point.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Escapes one string as a JSON string literal, quotes included. Exposed
  /// for streaming emitters (JSONL) that bypass the value type.
  static std::string escape(std::string_view s);

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::int64_t int_ = 0;
  bool int_valued_ = false;
  std::string str_;
  /// Array elements use an empty key; object members carry theirs.
  std::vector<std::pair<std::string, Json>> items_;
};

}  // namespace asyncdr::obs
