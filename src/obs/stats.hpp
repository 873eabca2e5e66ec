#pragma once
// Aggregation of run journals (obs/journal.hpp) for the `mui stats` verb:
// merges one or more JSONL journals into per-iteration and per-run tables
// plus pipeline-wide totals, as text or JSON.

#include <cstdint>
#include <string>
#include <vector>

namespace mui::obs {

struct IterationStat {
  std::string run;
  std::uint64_t iteration = 0;
  std::uint64_t modelStates = 0;
  std::uint64_t modelTransitions = 0;
  std::uint64_t closureStates = 0;
  std::uint64_t productStates = 0;
  bool checkPassed = false;
  std::string cexKind;  // "", "deadlock", "property"
  std::uint64_t cexLength = 0;
  std::uint64_t learnedFacts = 0;
  std::uint64_t testPeriods = 0;
  double closureMs = 0;
  double composeMs = 0;
  double checkMs = 0;
  double testMs = 0;
};

struct RunStat {
  std::string run;
  std::string ulid;           // job correlation id (schema v2), "" on v1
  std::string verdict;        // from the verdict event; "" if truncated
  std::string worker;         // from the batch job event, if any
  std::uint64_t iterations = 0;
  std::uint64_t learnedFacts = 0;
  std::uint64_t testPeriods = 0;
  double closureMs = 0;
  double composeMs = 0;
  double checkMs = 0;
  double testMs = 0;
  double wallMs = 0;          // batch job wall time, if any
  bool cacheHit = false;
  bool presolved = false;     // schema v2 job events
};

struct StatsReport {
  std::vector<IterationStat> iterations;
  std::vector<RunStat> runs;
  std::uint64_t events = 0;        // journal lines consumed
  std::uint64_t skipped = 0;       // malformed / unknown-schema lines
  std::uint64_t totalIterations = 0;
  std::uint64_t totalLearnedFacts = 0;
  std::uint64_t totalTestPeriods = 0;
  double totalCheckMs = 0;
  double totalTestMs = 0;
  std::uint64_t jobs = 0;          // runs that carried a batch job event
  std::uint64_t presolvedJobs = 0;
  std::uint64_t cacheHitJobs = 0;
  std::vector<double> jobWallMs;   // per-job wall times (for latency quantiles)
};

/// Parses and merges journal texts (one string per journal file). Lines
/// that fail to parse or carry an unknown schema version are counted in
/// `skipped`, never fatal.
StatsReport aggregateJournals(const std::vector<std::string>& journals);

/// Per-iteration table, per-run table, totals line.
std::string renderStatsText(const StatsReport& report);

/// The same data as one JSON document.
std::string renderStatsJson(const StatsReport& report);

}  // namespace mui::obs
