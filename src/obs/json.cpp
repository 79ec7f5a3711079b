#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace asyncdr::obs {

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  ASYNCDR_EXPECTS_MSG(type_ == Type::kArray, "push_back on a non-array");
  items_.emplace_back(std::string{}, std::move(v));
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  ASYNCDR_EXPECTS_MSG(type_ == Type::kObject, "operator[] on a non-object");
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(key, Json{});
  return items_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

std::string number_to_string(double v) {
  // An integral value that a double holds exactly prints as an integer
  // (410, not 4.1e+02); any other value prints in the shortest %g form that
  // round-trips.
  char buf[32];
  if (std::fabs(v) < 0x1p53 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = 0;
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber:
      if (int_valued_) {
        out += std::to_string(int_);
      } else {
        ASYNCDR_EXPECTS_MSG(std::isfinite(num_),
                            "JSON cannot represent NaN/Inf");
        out += number_to_string(num_);
      }
      return;
    case Type::kString: out += escape(str_); return;
    case Type::kArray:
    case Type::kObject: {
      const char open = type_ == Type::kArray ? '[' : '{';
      const char close = type_ == Type::kArray ? ']' : '}';
      out.push_back(open);
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        if (type_ == Type::kObject) {
          out += escape(items_[i].first);
          out += indent < 0 ? ":" : ": ";
        }
        items_[i].second.write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out.push_back(close);
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

}  // namespace asyncdr::obs
