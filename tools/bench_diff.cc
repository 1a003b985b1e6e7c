// bench_diff: CI regression gate over benchmark JSON documents.
//
//   bench_diff [--tolerance <rel>] <baseline.json> <candidate.json>
//
// Compares every metric of the baseline against the candidate (schema:
// docs/benchmarking.md). Exit status: 0 when the candidate passes, 1 on
// regression, missing metric, or candidate-only metric (a stale
// baseline must be refreshed deliberately), 2 on usage/parse errors. Identical
// documents always pass; time metrics (keys ending in "seconds") pass
// within the relative tolerance; all other numeric metrics are
// deterministic simulator counters and must match exactly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_diff_lib.h"
#include "common/json.h"
#include "common/strings.h"

namespace {

[[noreturn]] void Usage(const char* argv0, const char* error) {
  std::fprintf(stderr,
               "%s\nusage: %s [--tolerance <rel>] "
               "<baseline.json> <candidate.json>\n",
               error, argv0);
  std::exit(2);
}

/// A mistyped tolerance must not silently gate at 0 (atof would turn
/// "--tolerance=1e-2x" into exact-match mode). 0 itself stays legal:
/// it is the byte-identity assertion.
double ParseTolerance(const char* argv0, const char* text) {
  double value = 0;
  if (!gammadb::ParseDouble(text, &value) || value < 0) {
    Usage(argv0, "--tolerance must be a non-negative number");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  gammadb::tools::DiffOptions options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--tolerance") == 0) {
      if (i + 1 >= argc) Usage(argv[0], "--tolerance requires a value");
      options.seconds_tolerance = ParseTolerance(argv[0], argv[++i]);
    } else if (std::strncmp(arg, "--tolerance=", 12) == 0) {
      options.seconds_tolerance = ParseTolerance(argv[0], arg + 12);
    } else if (arg[0] == '-') {
      Usage(argv[0], "unknown flag");
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    Usage(argv[0], "expected exactly two JSON files");
  }

  // Distinguish the two failure classes a CI log needs to tell apart:
  // a missing baseline means "generate and commit one", an unreadable
  // or unparseable file means the artifact itself is corrupt.
  const auto read_side =
      [](const char* which,
         const std::string& path) -> gammadb::Result<gammadb::JsonValue> {
    gammadb::Result<gammadb::JsonValue> doc = gammadb::ReadJsonFile(path);
    if (doc.ok()) return doc;
    if (doc.status().code() == gammadb::StatusCode::kNotFound) {
      std::fprintf(stderr,
                   "%s file missing: %s\n"
                   "  (run the bench with --json to generate it, then "
                   "commit the refreshed baseline)\n",
                   which, path.c_str());
    } else {
      std::fprintf(stderr, "%s file unreadable or unparseable: %s\n  %s\n",
                   which, path.c_str(), doc.status().ToString().c_str());
    }
    return doc;
  };
  auto baseline = read_side("baseline", files[0]);
  if (!baseline.ok()) return 2;
  auto candidate = read_side("candidate", files[1]);
  if (!candidate.ok()) return 2;

  const gammadb::tools::DiffReport report =
      gammadb::tools::DiffBenchJson(*baseline, *candidate, options);
  std::fputs(gammadb::tools::FormatReport(report).c_str(), stdout);
  if (!report.Passed()) {
    std::printf("FAIL: %s regressed against %s\n", files[1].c_str(),
                files[0].c_str());
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
