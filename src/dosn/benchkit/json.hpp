// Minimal JSON document model for the benchmark harness: enough to build and
// emit the schema-versioned BENCH_<name>.json trajectory files, which
// tools/bench_compare.py reads (test_benchkit pins the emitted text). Objects
// preserve insertion order so the emitted files diff cleanly; non-finite
// numbers serialize as null (JSON has no NaN).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dosn::benchkit {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT(runtime/explicit)
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool isNull() const { return type_ == Type::kNull; }
  bool isBool() const { return type_ == Type::kBool; }
  bool isNumber() const { return type_ == Type::kNumber; }
  bool isString() const { return type_ == Type::kString; }
  bool isArray() const { return type_ == Type::kArray; }
  bool isObject() const { return type_ == Type::kObject; }

  // Leaf accessors; throw std::runtime_error on a type mismatch so a
  // malformed document fails loudly rather than reading as zeros.
  bool asBool() const;
  double asNumber() const;
  const std::string& asString() const;

  // Object interface. set() replaces an existing key in place (keeping its
  // position) or appends a new one.
  Json& set(const std::string& key, Json value);
  const Json* find(std::string_view key) const;

  // Array interface.
  void push(Json value);

  /// Element count of an array or object (0 for leaves).
  std::size_t size() const;
  const Json& at(std::size_t index) const;
  const std::vector<std::pair<std::string, Json>>& items() const {
    return members_;
  }
  const std::vector<Json>& elements() const { return elements_; }

  /// indent == 0 renders compact; indent > 0 pretty-prints with that many
  /// spaces per nesting level.
  std::string dump(int indent = 0) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> elements_;                          // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject

  void dumpTo(std::string& out, int indent, int depth) const;
};

}  // namespace dosn::benchkit
