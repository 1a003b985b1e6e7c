#include "bench_diff_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace gammadb::tools {

namespace {

bool IsTimeMetric(const std::string& key) {
  return key.size() >= 7 && key.compare(key.size() - 7, 7, "seconds") == 0;
}

// Host-dependent metrics: wall-clock time and thread counts vary with
// the machine running the benchmark, never with the simulated workload
// (docs/benchmarking.md), so they are reported but never gated — and a
// baseline recorded on a different host may lack them entirely.
bool IsHostMetric(const std::string& key) {
  return key == "real_seconds" || key == "wall_seconds" ||
         key == "threads" || key == "num_threads";
}

// The last dotted path component with array indices stripped, so every
// element of e.g. "series_seconds[1][3]" counts as a time metric.
std::string LeafKey(const std::string& path) {
  std::string leaf = path.substr(path.rfind('.') + 1);
  if (const size_t bracket = leaf.find('['); bracket != std::string::npos) {
    leaf.resize(bracket);
  }
  return leaf;
}

std::string DescribeValue(const JsonValue& v) {
  return v.Dump();
}

class Differ {
 public:
  Differ(const DiffOptions& options, DiffReport& report)
      : options_(options), report_(report) {}

  void Walk(const std::string& path, const JsonValue& base,
            const JsonValue& cand) {
    if (base.is_object()) {
      if (!cand.is_object()) {
        Add(DiffKind::kRegression, path,
            "type mismatch: baseline is an object, candidate is not");
        return;
      }
      for (const auto& [key, value] : base.AsObject()) {
        const std::string child =
            path.empty() ? key : path + "." + key;
        if (const JsonValue* other = cand.Find(key)) {
          Walk(child, value, *other);
        } else if (IsHostMetric(key)) {
          Add(DiffKind::kInfo, child,
              "host metric missing from candidate (not gated)");
        } else {
          Add(DiffKind::kMissing, child, "metric missing from candidate");
        }
      }
      for (const auto& [key, value] : cand.AsObject()) {
        if (base.Find(key) != nullptr) continue;
        const std::string child = path.empty() ? key : path + "." + key;
        if (IsHostMetric(key)) {
          Add(DiffKind::kInfo, child,
              "host metric only in candidate (not gated)");
        } else {
          Add(DiffKind::kExtra, child,
              "metric only in candidate (baseline is stale)");
        }
      }
      return;
    }
    if (base.is_array()) {
      if (!cand.is_array()) {
        Add(DiffKind::kRegression, path,
            "type mismatch: baseline is an array, candidate is not");
        return;
      }
      const auto& base_items = base.AsArray();
      const auto& cand_items = cand.AsArray();
      if (base_items.size() != cand_items.size()) {
        Add(DiffKind::kRegression, path,
            StrFormat("array length %zu -> %zu", base_items.size(),
                      cand_items.size()));
      }
      const size_t n = std::min(base_items.size(), cand_items.size());
      for (size_t i = 0; i < n; ++i) {
        Walk(StrFormat("%s[%zu]", path.c_str(), i), base_items[i],
             cand_items[i]);
      }
      return;
    }
    if (base.is_number()) {
      if (!cand.is_number()) {
        Add(DiffKind::kRegression, path,
            "type mismatch: baseline is a number, candidate is not");
        return;
      }
      CompareNumbers(path, base.AsDouble(), cand.AsDouble());
      return;
    }
    // Scalars: null / bool / string — configuration identity. Any
    // difference means the two documents are not comparable runs.
    ++report_.compared_metrics;
    if (!(base == cand)) {
      Add(DiffKind::kRegression, path,
          StrFormat("value mismatch: %s -> %s", DescribeValue(base).c_str(),
                    DescribeValue(cand).c_str()));
    }
  }

 private:
  void CompareNumbers(const std::string& path, double base, double cand) {
    ++report_.compared_metrics;
    if (base == cand) return;
    const std::string leaf = LeafKey(path);
    const double denom = std::max(std::abs(base), 1e-12);
    const double rel = (cand - base) / denom;
    const std::string delta =
        StrFormat("%.6g -> %.6g (%+.2f%%)", base, cand, 100.0 * rel);
    if (IsHostMetric(leaf)) {
      Add(DiffKind::kInfo, path, delta + " (host metric, not gated)");
      return;
    }
    if (IsTimeMetric(leaf)) {
      if (rel > options_.seconds_tolerance) {
        Add(DiffKind::kRegression, path,
            StrFormat("%s exceeds +%.1f%% tolerance", delta.c_str(),
                      100.0 * options_.seconds_tolerance));
      } else if (rel < -options_.seconds_tolerance) {
        Add(DiffKind::kImprovement, path, delta);
      } else {
        Add(DiffKind::kInfo, path, delta + " within tolerance");
      }
      return;
    }
    Add(DiffKind::kRegression, path, delta);
  }

  void Add(DiffKind kind, const std::string& path, std::string message) {
    report_.entries.push_back(DiffEntry{kind, path, std::move(message)});
  }

  const DiffOptions& options_;
  DiffReport& report_;
};

const char* KindLabel(DiffKind kind) {
  switch (kind) {
    case DiffKind::kRegression:
      return "REGRESSION";
    case DiffKind::kImprovement:
      return "improvement";
    case DiffKind::kInfo:
      return "info";
    case DiffKind::kMissing:
      return "MISSING";
    case DiffKind::kExtra:
      return "EXTRA";
  }
  return "?";
}

}  // namespace

int DiffReport::CountOf(DiffKind kind) const {
  int count = 0;
  for (const auto& entry : entries) {
    if (entry.kind == kind) ++count;
  }
  return count;
}

std::string JsonPointerOf(const std::string& path) {
  std::string out;
  std::string token;
  const auto flush = [&] {
    if (token.empty()) return;
    out += '/';
    for (const char c : token) {
      if (c == '~') {
        out += "~0";
      } else if (c == '/') {
        out += "~1";
      } else {
        out += c;
      }
    }
    token.clear();
  };
  for (const char c : path) {
    if (c == '.' || c == '[' || c == ']') {
      flush();
    } else {
      token += c;
    }
  }
  flush();
  return out;
}

DiffReport DiffBenchJson(const JsonValue& baseline, const JsonValue& candidate,
                         const DiffOptions& options) {
  DiffReport report;
  // Schema gate first: a version mismatch means every metric diff below
  // it is noise, so report the one offending path and stop.
  const JsonValue* base_ver =
      baseline.is_object() ? baseline.Find("schema_version") : nullptr;
  const JsonValue* cand_ver =
      candidate.is_object() ? candidate.Find("schema_version") : nullptr;
  if ((base_ver != nullptr || cand_ver != nullptr) &&
      (base_ver == nullptr || cand_ver == nullptr ||
       !(*base_ver == *cand_ver))) {
    ++report.compared_metrics;
    report.entries.push_back(DiffEntry{
        DiffKind::kRegression, "schema_version",
        StrFormat("schema version mismatch at %s: baseline %s, candidate %s "
                  "— the documents are not comparable; refresh the baseline "
                  "deliberately (docs/benchmarking.md)",
                  JsonPointerOf("schema_version").c_str(),
                  base_ver != nullptr ? base_ver->Dump().c_str() : "(absent)",
                  cand_ver != nullptr ? cand_ver->Dump().c_str()
                                      : "(absent)")});
    return report;
  }
  Differ(options, report).Walk("", baseline, candidate);
  return report;
}

std::string FormatReport(const DiffReport& report) {
  std::string out;
  for (const auto& entry : report.entries) {
    if (entry.kind == DiffKind::kInfo) continue;  // keep the console quiet
    out += StrFormat("%-12s %s: %s\n", KindLabel(entry.kind),
                     entry.path.c_str(), entry.message.c_str());
  }
  out += StrFormat(
      "%d metrics compared: %d regressions, %d missing, %d extra, "
      "%d improvements\n",
      report.compared_metrics, report.regressions(), report.missing(),
      report.extras(), report.CountOf(DiffKind::kImprovement));
  return out;
}

}  // namespace gammadb::tools
