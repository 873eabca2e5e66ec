// perfbench_ledger — the benchmark's traced runner and its ground-truth
// checker.
//
//   perfbench_ledger run <manifest> --spans F --journal F [--cache LOG]
//   perfbench_ledger crosscheck <manifest>
//
// `run` executes the manifest's jobs one after another along the same path
// as engine::runJob (result cache, load, lint, scenario, pre-solve, loop,
// cache store) and records a span around every call into a layer's public
// function: name, start, end, parent span and job index. Calls into an
// out-of-process legacy are timed by a decorator: the first call on a fresh
// SubprocessLegacy (spawn, handshake, replay and one exchange) is a
// testing.spawn span, every later step/reset a testing.exchange span. Spans
// stay in memory and are written as JSON lines when the run ends, followed
// by one line per job; the loop's own journal goes to --journal. Self times
// are computed by the caller.
//
// `crosscheck` prints, for every job, the verdict of ctl::ReferenceChecker
// on the concrete hidden || context product against the job's property and
// deadlock freedom. For an external legacy the concrete component is the
// automaton its adapter serves (the external's second argument).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/semantic.hpp"
#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "ctl/parser.hpp"
#include "ctl/reference.hpp"
#include "engine/cache.hpp"
#include "engine/manifest.hpp"
#include "engine/persistent_cache.hpp"
#include "muml/external.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "obs/journal.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/subprocess.hpp"
#include "util/json.hpp"

namespace {

using namespace mui;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  long parent = -1;
  long job = -1;
};

class Recorder {
 public:
  long open(std::string name) {
    spans_.push_back(Span{std::move(name), nowUs(), 0,
                          stack_.empty() ? -1 : stack_.back(), job_});
    stack_.push_back(static_cast<long>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(long id) {
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    stack_.pop_back();
  }
  void rename(long id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }
  void setJob(long job) { job_ = job; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<long> stack_;
  long job_ = -1;
};

class SpanGuard {
 public:
  SpanGuard(Recorder& r, std::string name) : r_(r), id_(r.open(std::move(name))) {}
  ~SpanGuard() { r_.close(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  void rename(std::string name) { r_.rename(id_, std::move(name)); }

 private:
  Recorder& r_;
  long id_;
};

template <typename F>
auto traced(Recorder& r, const char* name, F&& f) {
  const SpanGuard g(r, name);
  return f();
}

// One call into an adapter process: a spawn if the call had to start the
// process, an exchange otherwise.
template <typename F>
auto adapterCall(Recorder& rec, const testing::SubprocessLegacy& legacy,
                 F&& f) {
  const int pid = legacy.pid();
  SpanGuard g(rec, "testing.exchange");
  auto result = f();
  if (legacy.pid() != pid) g.rename("testing.spawn");
  return result;
}

// Times every call into an out-of-process legacy: a call that had to start
// the adapter process (SubprocessLegacy spawns lazily, and again after a
// crash) is a testing.spawn span, any other a testing.exchange span, and the
// process teardown a testing.shutdown span. Clones (the loop's test probes)
// are decorated too.
class TimedLegacy final : public testing::LegacyComponent {
 public:
  TimedLegacy(std::unique_ptr<testing::SubprocessLegacy> inner, Recorder& rec,
              std::size_t& respawns)
      : inner_(std::move(inner)), rec_(rec), respawns_(respawns) {}
  ~TimedLegacy() override {
    respawns_ += inner_->respawns();
    const SpanGuard g(rec_, "testing.shutdown");
    inner_.reset();
  }
  TimedLegacy(const TimedLegacy&) = delete;
  TimedLegacy& operator=(const TimedLegacy&) = delete;

  void reset() override {
    adapterCall(rec_, *inner_, [&] {
      inner_->reset();
      return 0;
    });
  }
  std::optional<automata::SignalSet> step(
      const automata::SignalSet& inputs) override {
    return adapterCall(rec_, *inner_, [&] { return inner_->step(inputs); });
  }
  [[nodiscard]] std::string currentStateName() const override {
    return adapterCall(rec_, *inner_,
                       [&] { return inner_->currentStateName(); });
  }
  [[nodiscard]] const automata::SignalSet& inputs() const override {
    return inner_->inputs();
  }
  [[nodiscard]] const automata::SignalSet& outputs() const override {
    return inner_->outputs();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<testing::LegacyComponent> clone()
      const override {
    std::unique_ptr<testing::LegacyComponent> copy = inner_->clone();
    return std::make_unique<TimedLegacy>(
        std::unique_ptr<testing::SubprocessLegacy>(
            static_cast<testing::SubprocessLegacy*>(copy.release())),
        rec_, respawns_);
  }

 private:
  std::unique_ptr<testing::SubprocessLegacy> inner_;
  Recorder& rec_;
  std::size_t& respawns_;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<engine::Job> readManifest(const std::string& path) {
  return engine::parseManifest(
      readFile(path), path,
      std::filesystem::path(path).parent_path().string());
}

std::size_t roleIndex(const muml::CoordinationPattern& p,
                      const std::string& role) {
  for (std::size_t i = 0; i < p.roles.size(); ++i) {
    if (p.roles[i].name == role) return i;
  }
  throw std::runtime_error("pattern has no role '" + role + "'");
}

struct JobLine {
  bool cacheHit = false;
  bool presolveTried = false;
  bool presolved = false;
  std::size_t contextStates = 0;
  std::size_t iterations = 0;
};

JobLine runOne(const engine::Job& job, engine::TextCache& texts,
               engine::ResultCache& results, obs::Journal& journal,
               Recorder& rec, std::size_t& respawns) {
  const SpanGuard jobSpan(rec, "job");
  JobLine out;
  const std::string text = texts.get(job.modelPath);
  const engine::JobKey key = engine::makeJobKey(text, job, 0);
  if (traced(rec, "engine.cache_lookup", [&] { return results.lookup(key); })) {
    out.cacheHit = true;
    return out;
  }
  const muml::Model model = traced(
      rec, "muml.load", [&] { return muml::loadModel(text, job.modelPath); });
  const auto lint = traced(rec, "analysis.lint", [&] {
    return analysis::run(model, analysis::RuleSet::errorsOnly());
  });
  if (lint.hasErrors()) return out;
  const auto& pattern = model.patterns.at(job.pattern);
  const std::size_t roleIdx = roleIndex(pattern, job.legacyRole);
  const auto scenario = traced(rec, "muml.scenario", [&] {
    return muml::makeIntegrationScenario(pattern, roleIdx, model.signals,
                                         model.props);
  });
  out.contextStates = scenario.context.stateCount();
  const std::string property =
      job.formula.empty() ? scenario.property : job.formula;

  std::unique_ptr<testing::LegacyComponent> legacy;
  const bool external = model.externals.count(job.hidden) != 0;
  if (external) {
    const auto& ext = model.externals.at(job.hidden);
    muml::checkExternalInterface(ext, pattern.roles[roleIdx], model.source,
                                 model.signals);
    legacy = std::make_unique<TimedLegacy>(
        std::make_unique<testing::SubprocessLegacy>(
            testing::configFromExternal(model, ext)),
        rec, respawns);
  } else {
    const auto hiddenAsRole = automata::withInstanceName(
        model.automata.at(job.hidden), pattern.roles[roleIdx].name);
    out.presolveTried = true;
    const auto pre = traced(rec, "analysis.presolve", [&] {
      return analysis::presolveIntegration(scenario.context, hiddenAsRole,
                                           property);
    });
    if (pre.verdict != analysis::PresolveVerdict::Skipped) {
      const auto status = pre.verdict == analysis::PresolveVerdict::Proved
                              ? engine::JobStatus::Proven
                              : engine::JobStatus::RealError;
      traced(rec, "engine.cache_store", [&] {
        results.store(key, engine::CachedOutcome{status, pre.explanation});
        return 0;
      });
      out.presolved = true;
      return out;
    }
    legacy = std::make_unique<testing::AutomatonLegacy>(hiddenAsRole);
  }

  synthesis::IntegrationConfig cfg;
  cfg.property = property;
  cfg.journal = &journal;
  cfg.runId = job.name;
  const auto res = traced(rec, "synthesis.loop", [&] {
    return synthesis::runIntegration(scenario.context, *legacy,
                                     std::move(cfg));
  });
  out.iterations = res.iterations;
  // Like the runner, cache only definitive outcomes of in-process legacies.
  const bool proven = res.verdict == synthesis::Verdict::ProvenCorrect;
  if (!external && (proven || res.verdict == synthesis::Verdict::RealError)) {
    traced(rec, "engine.cache_store", [&] {
      results.store(key, engine::CachedOutcome{
                             proven ? engine::JobStatus::Proven
                                    : engine::JobStatus::RealError,
                             res.explanation});
      return 0;
    });
  }
  return out;
}

int cmdRun(const std::string& manifest, const std::string& spansPath,
           const std::string& journalPath, const std::string& cachePath) {
  const auto jobs = readManifest(manifest);
  Recorder rec;
  std::unique_ptr<engine::PersistentResultCache> persistent;
  engine::ResultCache results;
  if (!cachePath.empty()) {
    persistent = traced(rec, "engine.persistent_replay", [&] {
      return std::make_unique<engine::PersistentResultCache>(cachePath);
    });
    results.attachPersistent(persistent.get());
  }
  engine::TextCache texts;
  obs::Journal journal;
  std::vector<JobLine> lines;
  std::vector<std::size_t> respawns(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    rec.setJob(static_cast<long>(i));
    try {
      lines.push_back(
          runOne(jobs[i], texts, results, journal, rec, respawns[i]));
    } catch (const std::exception& e) {
      throw std::runtime_error("job " + jobs[i].name + ": " + e.what());
    }
  }

  std::ofstream spans(spansPath);
  if (!spans) throw std::runtime_error("cannot write '" + spansPath + "'");
  spans << std::fixed << std::setprecision(3);
  for (const Span& s : rec.spans()) {
    spans << "{\"type\":\"span\",\"name\":\"" << s.name
          << "\",\"start\":" << s.startUs << ",\"end\":" << s.endUs
          << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}\n";
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobLine& l = lines[i];
    spans << "{\"type\":\"job\",\"index\":" << i << ",\"name\":"
          << util::jsonQuote(jobs[i].name)
          << ",\"cacheHit\":" << (l.cacheHit ? "true" : "false")
          << ",\"presolveTried\":" << (l.presolveTried ? "true" : "false")
          << ",\"presolved\":" << (l.presolved ? "true" : "false")
          << ",\"contextStates\":" << l.contextStates
          << ",\"iterations\":" << l.iterations
          << ",\"respawns\":" << respawns[i] << "}\n";
  }
  std::ofstream(journalPath) << journal.text();
  return 0;
}

int cmdCrosscheck(const std::string& manifest) {
  for (const auto& job : readManifest(manifest)) {
    const muml::Model model =
        muml::loadModel(readFile(job.modelPath), job.modelPath);
    const auto& pattern = model.patterns.at(job.pattern);
    const std::size_t roleIdx = roleIndex(pattern, job.legacyRole);
    const auto scenario = muml::makeIntegrationScenario(
        pattern, roleIdx, model.signals, model.props);
    const auto ext = model.externals.find(job.hidden);
    const std::string concrete =
        ext == model.externals.end() ? job.hidden : ext->second.args.at(1);
    const auto hidden = automata::withInstanceName(
        model.automata.at(concrete), pattern.roles[roleIdx].name);
    const auto product = automata::compose(hidden, scenario.context);
    const std::string property =
        job.formula.empty() ? scenario.property : job.formula;
    ctl::ReferenceChecker ref(product.automaton);
    const bool holds =
        ref.holds(ctl::parseFormula("(" + property + ") && AG !deadlock"));
    std::printf("%s %s %zu\n", job.name.c_str(),
                holds ? "proven" : "real-error",
                product.automaton.stateCount());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 2 && args[0] == "crosscheck") {
      return cmdCrosscheck(args[1]);
    }
    if (args.size() >= 2 && args[0] == "run") {
      std::string spans, journal, cache;
      for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
        if (args[i] == "--spans") {
          spans = args[i + 1];
        } else if (args[i] == "--journal") {
          journal = args[i + 1];
        } else if (args[i] == "--cache") {
          cache = args[i + 1];
        } else {
          throw std::runtime_error("unknown flag '" + args[i] + "'");
        }
      }
      if (!spans.empty() && !journal.empty()) {
        return cmdRun(args[1], spans, journal, cache);
      }
    }
    std::fprintf(stderr,
                 "usage: perfbench_ledger run <manifest> --spans F "
                 "--journal F [--cache LOG]\n"
                 "       perfbench_ledger crosscheck <manifest>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_ledger: %s\n", e.what());
    return 2;
  }
}
