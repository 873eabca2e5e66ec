// E1 — termination and learning effort (paper Sec. 4.4): the number of
// verification/testing/learning iterations, the knowledge learned, and the
// test effort as the legacy component grows. The paper argues the iteration
// count is bounded because every round strictly increases the learned
// knowledge; this table shows the bound is loose in practice — the loop
// stops long before the model is complete.
//
// The harness also replays every iteration's deadlock check both ways on
// the same closures: on the fly (the explorer stops at the first deadlock,
// as the loop does) and materialized (the full
// product plus ctl::verify). The closures of iteration i are rebuilt from
// the model a loop capped at i iterations learned. It writes
// BENCH_iterations.json with both check times and the product states each
// explored (schema in docs/PERFORMANCE.md). A divergence in the holds bit,
// the counterexample run, or the number of failing checks against the
// loop's iteration count fails the process (the perf-smoke CI gate);
// timing never does. MUI_BENCH_SMOKE=1 restricts the run to the small
// sizes.

#include <cstdio>
#include <string>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/explorer.hpp"
#include "bench_util.hpp"
#include "ctl/counterexample.hpp"
#include "testing/legacy.hpp"

int main() {
  using namespace mui;
  const bool smoke = bench::smokeMode();
  bench::printHeader(
      "E1: iterations and learned knowledge vs component size",
      "Scenario: random hidden component, context = mirrored 60% "
      "sub-behavior, deadlock-freedom requirement. Iterations grow roughly "
      "with the context-reachable part, not with the full component "
      "(Sec. 4.4 / Thm. 2: knowledge strictly increases and is bounded by "
      "the complete model). Every iteration's deadlock check is replayed on "
      "the fly and materialized on the same closures; 'states' counts the "
      "product states each explored.");

  util::TextTable table({"legacy states", "hidden trans", "verdict",
                         "iterations", "learned states", "learned trans",
                         "learned refusals", "test periods", "loop ms",
                         "on-the-fly ms", "full ms", "on-the-fly states",
                         "full states"});
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{4, 8, 16, 32, 64};
  std::string json = "{\"bench\":\"iterations\",\"unit\":\"ms\",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"sizes\":[";
  bool allMatch = true;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t states = sizes[si];
    // Aggregate a few seeds per size.
    double msLoop = 0, msOnTheFly = 0, msFull = 0;
    std::size_t iters = 0, lStates = 0, lTrans = 0, lForb = 0, hTrans = 0;
    std::size_t statesOnTheFly = 0, statesFull = 0;
    std::uint64_t periods = 0;
    std::string verdicts;
    bool match = true;
    constexpr int kSeeds = 5;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      bench::Scenario sc(states, static_cast<std::uint64_t>(seed) * 13,
                         /*contextKeepPct=*/60);
      const auto runLoop = [&](std::size_t maxIterations) {
        testing::AutomatonLegacy legacy(sc.hidden);
        synthesis::IntegrationConfig cfg;
        cfg.maxIterations = maxIterations;
        return synthesis::IntegrationVerifier(sc.context, legacy, cfg).run();
      };
      bench::Stopwatch loopWatch;
      const auto res = runLoop(synthesis::IntegrationConfig{}.maxIterations);
      msLoop += loopWatch.ms();

      const auto alphabet =
          automata::makeAlphabet(sc.hidden.inputs(), sc.hidden.outputs(),
                                 automata::InteractionMode::AtMostOneSignal);
      std::size_t failing = 0;
      for (std::size_t i = 0; i < res.iterations; ++i) {
        const automata::Closure closure = automata::chaoticClosure(
            runLoop(i).learnedModels[0], alphabet,
            automata::ClosureStyle::DeterministicTarget,
            automata::ClosureCopies::Both);
        const std::vector<const automata::Automaton*> parts{&sc.context,
                                                            &closure.automaton};
        bench::Stopwatch w1;
        const auto partial = automata::explore(parts, {.stopAfterDeadlocks = 1});
        const auto onTheFly = ctl::verify(partial, nullptr);
        msOnTheFly += w1.ms();
        bench::Stopwatch w2;
        const auto full = automata::explore(parts);
        const auto materialized = ctl::verify(full, nullptr);
        msFull += w2.ms();
        statesOnTheFly += partial.stateCount();
        statesFull += full.stateCount();
        failing += materialized.holds ? 0 : 1;
        const bool same =
            onTheFly.holds == materialized.holds &&
            (onTheFly.holds ||
             (onTheFly.cex().run.states == materialized.cex().run.states &&
              onTheFly.cex().run.labels == materialized.cex().run.labels));
        if (!same) {
          std::fprintf(stderr,
                       "MISMATCH: states %zu seed %d iteration %zu — the "
                       "on-the-fly and materialized deadlock checks differ\n",
                       states, seed, i);
          match = false;
        }
      }
      // Every iteration but a proving last one ends in a deadlock
      // counterexample (the scenarios check deadlock freedom only).
      const bool proven = res.verdict == synthesis::Verdict::ProvenCorrect;
      if (failing != res.iterations - (proven ? 1 : 0)) {
        std::fprintf(stderr,
                     "MISMATCH: states %zu seed %d — %zu iterations but %zu "
                     "failing deadlock checks\n",
                     states, seed, res.iterations, failing);
        match = false;
      }
      iters += res.iterations;
      lStates += res.learnedModels[0].base().stateCount();
      lTrans += res.learnedModels[0].base().transitionCount();
      lForb += res.learnedModels[0].forbiddenCount();
      periods += res.totalTestPeriods;
      hTrans += sc.hidden.transitionCount();
      verdicts += proven ? 'P' : 'E';
    }
    allMatch = allMatch && match;
    const auto avg = [&](std::size_t v) {
      return util::fmt(static_cast<double>(v) / kSeeds, 1);
    };
    table.row({std::to_string(states), avg(hTrans), verdicts, avg(iters),
               avg(lStates), avg(lTrans), avg(lForb),
               avg(static_cast<std::size_t>(periods)),
               util::fmt(msLoop / kSeeds, 1), util::fmt(msOnTheFly / kSeeds, 2),
               util::fmt(msFull / kSeeds, 2), avg(statesOnTheFly),
               avg(statesFull)});
    if (si) json += ',';
    json += "{\"legacyStates\":" + std::to_string(states) +
            ",\"seeds\":" + std::to_string(kSeeds) +
            ",\"iterations\":" + std::to_string(iters) +
            ",\"loopMs\":" + util::fmt(msLoop, 3) +
            ",\"onTheFlyMs\":" + util::fmt(msOnTheFly, 3) +
            ",\"materializedMs\":" + util::fmt(msFull, 3) +
            ",\"statesOnTheFly\":" + std::to_string(statesOnTheFly) +
            ",\"statesMaterialized\":" + std::to_string(statesFull) +
            ",\"checksMatch\":" + (match ? "true" : "false") + "}";
  }
  json += "]}\n";
  std::printf("%s\n", table.str().c_str());
  std::printf("verdict column: one letter per seed (P = proven correct, "
              "E = real error found)\n");
  bench::writeBenchJson("BENCH_iterations.json", json);
  return allMatch ? 0 : 1;
}
