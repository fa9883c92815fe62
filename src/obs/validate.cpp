#include "obs/validate.hpp"

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
  const std::size_t n = static_cast<std::size_t>(epochs->number);

  const json::Value* columns = doc.find("columns");
  if (!columns || !columns->is_array()) return "missing \"columns\" array";
  const json::Value* data = doc.find("data");
  if (!data || !data->is_object()) return "missing \"data\" object";
  if (columns->arr.size() != data->obj.size())
    return "columns/data size mismatch";

  for (std::size_t i = 0; i < columns->arr.size(); ++i) {
    const json::Value& cname = columns->arr[i];
    if (!cname.is_string()) return "non-string column name";
    const json::Value* col = data->find(cname.str);
    if (!col || !col->is_array())
      return "data missing column \"" + cname.str + "\"";
    if (col->arr.size() != n)
      return "column \"" + cname.str + "\" has " +
             std::to_string(col->arr.size()) + " values, expected " +
             std::to_string(n);
    for (const json::Value& v : col->arr)
      if (!finite_number(v))
        return "column \"" + cname.str + "\" has a non-finite value";
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

std::string validate_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return "cannot open " + path;
  std::ostringstream buf;
  buf << is.rdbuf();
  json::Value doc;
  std::string err;
  if (!json::parse(buf.str(), doc, &err)) return path + ": parse error: " + err;

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

}  // namespace atacsim::obs
