// Shared helpers of the perfbench binary: request files, the canonical
// result line the benchmark compares bit for bit, clocks, and a small flat
// JSON writer for the summaries run.py reads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "service/request.h"

namespace perfbench {

/// Steady-clock seconds (arbitrary epoch).
double Now();

/// Parse a request file (service/batch.h grammar) and canonicalize every
/// request. Exits with status 2 on any malformed line.
std::vector<merch::service::PlacementRequest> LoadRequests(
    const std::string& path);

/// One line per result: canonical key, then every field with doubles as
/// IEEE-754 bit patterns, so two results are bit-identical iff their lines
/// are equal. Errors print as "<key>\tERROR\t<message>".
std::string ResultLine(const merch::service::PlacementResult& result);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Flat JSON object writer: numbers, strings, and number arrays.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, std::uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Array(const std::string& key, const std::vector<double>& values);
  Json& StrArray(const std::string& key,
                 const std::vector<std::string>& values);
  std::string Text() const;
  /// Writes Text() to `path`; exits with status 1 if it cannot.
  void WriteTo(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write `lines` (each newline-terminated on output) to `path`.
void WriteLines(const std::string& path, const std::vector<std::string>& lines);

/// Command-line flags: `--name value` pairs.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Get(const std::string& name, const std::string& def = "") const;
  double Num(const std::string& name, double def) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench
