#include "obs/validate.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace atacsim::obs {

namespace {

std::string expect_string(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  if (!v) return std::string("missing \"") + key + "\"";
  if (!v->is_string()) return std::string("\"") + key + "\" is not a string";
  return "";
}

bool finite_number(const json::Value& v) {
  return v.is_number() && std::isfinite(v.number);
}

/// A scalar as the series writer spells it.
std::string text(const json::Value& v) {
  return v.is_string() ? "\"" + json::escape(v.str) + "\""
                       : json::num(v.number);
}

/// Reports each member of object A or B that the other lacks and, when
/// `values`, each scalar member the two hold different values of.
void diff_members(const json::Value& a, const json::Value& b,
                  const char* what, bool values, std::ostream& out) {
  for (const auto& [k, v] : a.obj) {
    const json::Value* w = b.find(k);
    if (!w) out << what << " \"" << k << "\" only in A\n";
    else if (values && text(v) != text(*w))
      out << what << " \"" << k << "\": A=" << text(v) << " B=" << text(*w)
          << '\n';
  }
  for (const auto& [k, v] : b.obj)
    if (!a.find(k)) out << what << " \"" << k << "\" only in B\n";
}

}  // namespace

std::string validate_series(const json::Value& doc) {
  if (!doc.is_object()) return "document is not an object";
  if (auto e = expect_string(doc, "schema"); !e.empty()) return e;
  if (doc.find("schema")->str != "atacsim-obs-series-v1")
    return "schema is not atacsim-obs-series-v1";
  if (auto e = expect_string(doc, "name"); !e.empty()) return e;

  const json::Value* meta = doc.find("meta");
  if (!meta || !meta->is_object()) return "missing \"meta\" object";

  const json::Value* epochs = doc.find("epochs");
  if (!epochs || !epochs->is_number()) return "missing numeric \"epochs\"";

  const json::Value* columns = doc.find("columns");
  if (!columns || !columns->is_array()) return "missing \"columns\" array";
  const json::Value* data = doc.find("data");
  if (!data || !data->is_object()) return "missing \"data\" object";
  if (columns->arr.size() != data->obj.size())
    return "columns/data size mismatch";

  for (const json::Value& cname : columns->arr) {
    if (!cname.is_string()) return "non-string column name";
    if (!data->find(cname.str))
      return "data missing column \"" + cname.str + "\"";
  }
  // Every data member is checked, so a reader may index any of them by
  // epoch; an "epochs" that is not a whole count matches no column.
  for (const auto& [name, col] : data->obj) {
    if (std::none_of(columns->arr.begin(), columns->arr.end(),
                     [&](const json::Value& c) { return c.str == name; }))
      return "data column \"" + name + "\" missing from \"columns\"";
    if (!col.is_array()) return "column \"" + name + "\" is not an array";
    if (static_cast<double>(col.arr.size()) != epochs->number)
      return "column \"" + name + "\" has " + std::to_string(col.arr.size()) +
             " values, expected " + json::num(epochs->number);
    for (const json::Value& v : col.arr)
      if (!finite_number(v))
        return "column \"" + name + "\" has a non-finite value";
  }

  const json::Value* t_end = data->find("t_end");
  if (!t_end) return "data missing required column \"t_end\"";
  for (std::size_t i = 1; i < t_end->arr.size(); ++i)
    if (!(t_end->arr[i - 1].number < t_end->arr[i].number))
      return "t_end not strictly increasing at epoch " + std::to_string(i);
  return "";
}

std::string validate_trace(const json::Value& doc) {
  if (!doc.is_object()) return "document is not an object";
  const json::Value* evs = doc.find("traceEvents");
  if (!evs || !evs->is_array()) return "missing \"traceEvents\" array";
  for (std::size_t i = 0; i < evs->arr.size(); ++i) {
    const json::Value& e = evs->arr[i];
    const std::string at = " in event " + std::to_string(i);
    if (!e.is_object()) return "non-object event" + at;
    if (auto err = expect_string(e, "name"); !err.empty()) return err + at;
    if (auto err = expect_string(e, "ph"); !err.empty()) return err + at;
    const json::Value* pid = e.find("pid");
    const json::Value* tid = e.find("tid");
    if (!pid || !pid->is_number()) return "missing numeric \"pid\"" + at;
    if (!tid || !tid->is_number()) return "missing numeric \"tid\"" + at;
    const std::string& ph = e.find("ph")->str;
    if (ph == "X" || ph == "C" || ph == "B" || ph == "E" || ph == "I") {
      const json::Value* ts = e.find("ts");
      if (!ts || !finite_number(*ts)) return "missing numeric \"ts\"" + at;
      if (ts->number < 0) return "negative \"ts\"" + at;
    }
    if (ph == "X") {
      const json::Value* dur = e.find("dur");
      if (!dur || !finite_number(*dur)) return "missing numeric \"dur\"" + at;
      if (dur->number < 0) return "negative \"dur\"" + at;
    }
  }
  return "";
}

std::string validate_profile(const json::Value& doc) {
  if (!doc.is_object()) return "document is not an object";
  if (auto e = expect_string(doc, "schema"); !e.empty()) return e;
  if (doc.find("schema")->str != "atacsim-obs-profile-v1")
    return "schema is not atacsim-obs-profile-v1";
  if (auto e = expect_string(doc, "name"); !e.empty()) return e;
  const json::Value* det = doc.find("deterministic");
  if (!det || !det->is_bool() || det->b)
    return "profile must carry \"deterministic\": false";
  const json::Value* rss = doc.find("process_peak_rss_mb");
  if (!rss || !finite_number(*rss) || rss->number < 0)
    return "missing non-negative \"process_peak_rss_mb\"";
  for (const char* key : {"phases", "workers", "pool"}) {
    const json::Value* v = doc.find(key);
    if (!v || !v->is_object())
      return std::string("missing \"") + key + "\" object";
  }
  return "";
}

std::string read_json(const std::string& path, json::Value& doc) {
  std::ifstream is(path);
  if (!is) return "cannot open";
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string err;
  return json::parse(buf.str(), doc, &err) ? "" : "parse error: " + err;
}

std::string validate_file(const std::string& path) {
  json::Value doc;
  if (auto err = read_json(path, doc); !err.empty()) return path + ": " + err;

  std::string result;
  if (const json::Value* schema = doc.find("schema");
      schema && schema->is_string()) {
    if (schema->str == "atacsim-obs-series-v1") result = validate_series(doc);
    else if (schema->str == "atacsim-obs-profile-v1")
      result = validate_profile(doc);
    else result = "unknown schema \"" + schema->str + "\"";
  } else if (doc.find("traceEvents")) {
    result = validate_trace(doc);
  } else {
    result = "document has neither a \"schema\" member nor \"traceEvents\"";
  }
  return result.empty() ? "" : path + ": " + result;
}

std::string diff_series(const json::Value& a, const json::Value& b) {
  std::ostringstream out;
  const std::string name_a = text(*a.find("name"));
  const std::string name_b = text(*b.find("name"));
  if (name_a != name_b) out << "name: A=" << name_a << " B=" << name_b << '\n';
  diff_members(*a.find("meta"), *b.find("meta"), "meta", true, out);
  const json::Value& data_a = *a.find("data");
  const json::Value& data_b = *b.find("data");
  diff_members(data_a, data_b, "column", false, out);
  const auto& t_a = data_a.find("t_end")->arr;
  const auto& t_b = data_b.find("t_end")->arr;
  if (t_a.size() != t_b.size())
    out << "epochs: A has " << t_a.size() << ", B has " << t_b.size() << '\n';

  for (std::size_t e = 0; e < std::min(t_a.size(), t_b.size()); ++e) {
    std::ostringstream columns;
    for (const auto& [k, col] : data_a.obj) {
      const json::Value* other = data_b.find(k);
      if (!other) continue;
      const double x = col.arr[e].number, y = other->arr[e].number;
      if (x != y)
        columns << "  " << k << ": A=" << json::num(x) << " B=" << json::num(y)
                << '\n';
    }
    if (columns.tellp() == 0) continue;
    out << "first differing epoch " << e
        << ": t_end A=" << json::num(t_a[e].number)
        << " B=" << json::num(t_b[e].number) << '\n'
        << columns.str();
    break;
  }
  return out.str();
}

}  // namespace atacsim::obs
