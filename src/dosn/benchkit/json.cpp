#include "dosn/benchkit/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dosn::benchkit {

namespace {

void appendEscaped(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf; null is unmistakable in a report
    return;
  }
  // Integers (the common case: counters, reps, byte sizes) print without an
  // exponent or trailing ".0"; everything else round-trips via %.17g.
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

bool Json::asBool() const {
  if (type_ != Type::kBool) throw std::runtime_error("Json: not a bool");
  return bool_;
}

double Json::asNumber() const {
  if (type_ != Type::kNumber) throw std::runtime_error("Json: not a number");
  return number_;
}

const std::string& Json::asString() const {
  if (type_ != Type::kString) throw std::runtime_error("Json: not a string");
  return string_;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) throw std::runtime_error("Json: not an object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push(Json value) {
  if (type_ != Type::kArray) throw std::runtime_error("Json: not an array");
  elements_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return elements_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::kArray) throw std::runtime_error("Json: not an array");
  return elements_.at(index);
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: appendNumber(out, number_); break;
    case Type::kString: appendEscaped(out, string_); break;
    case Type::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        elements_[i].dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        appendEscaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

}  // namespace dosn::benchkit
