#include "common.h"

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cstdlib>

#include "service/batch.h"

namespace perfbench {

using merch::service::PlacementRequest;
using merch::service::PlacementResult;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

std::vector<PlacementRequest> LoadRequests(const std::string& path) {
  std::vector<PlacementRequest> requests;
  std::string error;
  if (!merch::service::LoadRequestFile(path, &requests, &error)) Die(error);
  for (PlacementRequest& req : requests) {
    if (std::string err = merch::service::CanonicalizeRequest(req);
        !err.empty()) {
      Die(path + ": " + err);
    }
  }
  return requests;
}

namespace {

std::string Hex(double v) {
  char buf[24];
  std::snprintf(
      buf, sizeof buf, "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

}  // namespace

std::string ResultLine(const PlacementResult& r) {
  std::string line = merch::service::CanonicalKey(r.request);
  if (!r.ok()) return line + "\tERROR\t" + r.error;
  line += "\t" + Hex(r.makespan_seconds) + "\t" + Hex(r.task_cov) + "\t" +
          std::to_string(r.migrated_bytes) + "\t" + std::to_string(r.regions) +
          "\t";
  for (std::size_t i = 0; i < r.placements.size(); ++i) {
    const auto& p = r.placements[i];
    if (i > 0) line += ",";
    line += p.object + ":" + std::to_string(p.bytes) + ":" +
            Hex(p.dram_fraction);
  }
  return line;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, Number(value));
  return *this;
}

Json& Json::Int(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

Json& Json::Array(const std::string& key, const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ",";
    text += Number(values[i]);
  }
  fields_.emplace_back(key, text + "]");
  return *this;
}

Json& Json::StrArray(const std::string& key,
                     const std::vector<std::string>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ",";
    text += "\"" + JsonEscape(values[i]) + "\"";
  }
  fields_.emplace_back(key, text + "]");
  return *this;
}

std::string Json::Text() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",\n ";
    out += "\"" + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}\n";
}

void Json::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + path);
  const std::string text = Text();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

void WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + path);
  for (const std::string& line : lines) {
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) Die("unexpected argument '" + name + "'");
    name = name.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_.emplace_back(name, argv[++i]);
    } else {
      kv_.emplace_back(name, "");
    }
  }
}

std::string Args::Get(const std::string& name, const std::string& def) const {
  for (const auto& [k, v] : kv_) {
    if (k == name) return v;
  }
  return def;
}

double Args::Num(const std::string& name, double def) const {
  const std::string v = Get(name);
  if (v.empty()) return def;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') Die("--" + name + " needs a number");
  return x;
}

}  // namespace perfbench
