// Differential tests for the performance paths of the checker and the
// refinement loop:
//
//  - ctl::Checker (worklist fixpoints over a predecessor index, dense
//    bitsets) against ctl::ReferenceChecker (the retained naive sweep
//    implementation) on random models and random CCTL formulas, including
//    the bounded operators over windows up to 44 units wide;
//  - bounded satisfaction sets on a capped exploration and a bounded-response
//    counterexample run, pinned from the positional evaluation (one sweep per
//    window position) that the distance labellings replaced;
//  - IntegrationVerifier outcomes (verdicts, iterations, learned facts,
//    test periods, rendered counterexamples) pinned from the build before
//    the product explorer and the on-the-fly deadlock search.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/explorer.hpp"
#include "automata/random.hpp"
#include "automata/rename.hpp"
#include "ctl/checker.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/formula.hpp"
#include "ctl/parser.hpp"
#include "ctl/reference.hpp"
#include "helpers.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "muml/shuttle.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "util/rng.hpp"

namespace mui {
namespace {

namespace sh = muml::shuttle;
using automata::Automaton;
using automata::StateId;
using ctl::Bound;
using ctl::Formula;
using ctl::FormulaPtr;
using test::fnv1a;
using test::Tables;

FormulaPtr randomFormula(util::Rng& rng, std::size_t depth) {
  if (depth == 0) {
    switch (rng.below(5)) {
      case 0:
        return Formula::mkAtom("p");
      case 1:
        return Formula::mkAtom("q");
      case 2:
        return Formula::mkTrue();
      case 3:
        return Formula::mkFalse();
      default:
        return Formula::mkDeadlock();
    }
  }
  const auto sub = [&] { return randomFormula(rng, depth - 1); };
  const auto bound = [&]() -> Bound {
    switch (rng.below(3)) {
      case 0:
        return {};  // [0, inf]
      case 1: {
        const std::size_t lo = rng.below(3);
        return {lo, lo + rng.below(4)};
      }
      default:
        return {rng.below(4), Bound::kInf};
    }
  };
  switch (rng.below(12)) {
    case 0:
      return Formula::mkNot(sub());
    case 1:
      return Formula::mkAnd(sub(), sub());
    case 2:
      return Formula::mkOr(sub(), sub());
    case 3:
      return Formula::mkImplies(sub(), sub());
    case 4:
      return Formula::mkAX(sub());
    case 5:
      return Formula::mkEX(sub());
    case 6:
      return Formula::mkAF(sub(), bound());
    case 7:
      return Formula::mkEF(sub(), bound());
    case 8:
      return Formula::mkAG(sub(), bound());
    case 9:
      return Formula::mkEG(sub(), bound());
    case 10:
      return Formula::mkAU(sub(), sub(), bound());
    default:
      return Formula::mkEU(sub(), sub(), bound());
  }
}

Automaton makeModel(Tables& t, std::uint64_t seed) {
  automata::RandomSpec spec;
  spec.states = 3 + seed % 17;
  spec.seed = seed;
  spec.name = "m";
  // Cover nondeterministic models and models with genuine deadlock states —
  // the weak-semantics corner the worklist counters must get right.
  spec.deterministic = seed % 2 == 0;
  spec.noLocalDeadlocks = seed % 3 != 0;
  Automaton a = automata::randomAutomaton(spec, t.signals, t.props);
  util::Rng rng(seed + 99);
  for (StateId s = 0; s < a.stateCount(); ++s) {
    if (rng.chance(40, 100)) a.addLabel(s, "p");
    if (rng.chance(40, 100)) a.addLabel(s, "q");
  }
  return a;
}

TEST(CtlDifferential, WorklistMatchesReferenceOnRandomModels) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Tables t;
    const Automaton a = makeModel(t, seed);
    ctl::Checker fast(a);
    ctl::ReferenceChecker ref(a);
    for (StateId s = 0; s < a.stateCount(); ++s) {
      ASSERT_EQ(fast.isDeadlockState(s), ref.isDeadlockState(s))
          << "seed " << seed << " state " << s;
    }
    util::Rng rng(seed * 7919);
    for (int i = 0; i < 40; ++i) {
      const FormulaPtr f = randomFormula(rng, 1 + rng.below(3));
      const auto fastSat = fast.evaluate(f);
      const auto refSat = ref.evaluate(f);
      ASSERT_EQ(fastSat.size(), refSat.size());
      for (StateId s = 0; s < a.stateCount(); ++s) {
        ASSERT_EQ(fastSat.test(s), static_cast<bool>(refSat[s]))
            << "seed " << seed << " formula " << f->toString() << " state "
            << s << " (" << a.stateName(s) << ")";
      }
    }
  }
}

TEST(CtlDifferential, HoldsAgreesOnInitialStates) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Tables t;
    const Automaton a = makeModel(t, seed);
    ctl::Checker fast(a);
    ctl::ReferenceChecker ref(a);
    util::Rng rng(seed * 104729);
    for (int i = 0; i < 20; ++i) {
      const FormulaPtr f = randomFormula(rng, 2);
      EXPECT_EQ(fast.holds(f), ref.holds(f)) << f->toString();
    }
  }
}

// ---- Bounded operators over wide windows ----------------------------------

/// Models of 5 to 50 states; every other one is nondeterministic and every
/// third keeps genuine deadlock states.
Automaton makeWideModel(Tables& t, std::uint64_t seed) {
  automata::RandomSpec spec;
  spec.states = 5 + (seed * 7) % 46;
  spec.seed = seed;
  spec.name = "w";
  spec.deterministic = seed % 2 == 0;
  spec.noLocalDeadlocks = seed % 3 != 0;
  Automaton a = automata::randomAutomaton(spec, t.signals, t.props);
  util::Rng rng(seed + 7);
  for (StateId s = 0; s < a.stateCount(); ++s) {
    if (rng.chance(30, 100)) a.addLabel(s, "p");
    if (rng.chance(50, 100)) a.addLabel(s, "q");
  }
  return a;
}

/// One of the six bounded temporal operators over `b`, with random
/// propositional or shallow temporal operands.
FormulaPtr randomBoundedFormula(util::Rng& rng, Bound b) {
  const auto operand = [&] { return randomFormula(rng, rng.below(2)); };
  switch (rng.below(6)) {
    case 0:
      return Formula::mkAF(operand(), b);
    case 1:
      return Formula::mkEF(operand(), b);
    case 2:
      return Formula::mkAG(operand(), b);
    case 3:
      return Formula::mkEG(operand(), b);
    case 4:
      return Formula::mkAU(operand(), operand(), b);
    default:
      return Formula::mkEU(operand(), operand(), b);
  }
}

TEST(CtlDifferential, WideWindowsMatchReference) {
  std::size_t deadlockModels = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Tables t;
    const Automaton a = makeWideModel(t, seed);
    ctl::Checker fast(a);
    ctl::ReferenceChecker ref(a);
    for (StateId s = 0; s < a.stateCount(); ++s) {
      if (ref.isDeadlockState(s)) {
        ++deadlockModels;
        break;
      }
    }
    util::Rng rng(seed * 6151);
    for (int i = 0; i < 60; ++i) {
      const std::size_t lo = rng.below(7);
      const FormulaPtr f =
          randomBoundedFormula(rng, Bound{lo, lo + rng.below(45)});
      const auto& fastSat = fast.evaluate(f);
      const auto refSat = ref.evaluate(f);
      ASSERT_EQ(fastSat.size(), refSat.size());
      for (StateId s = 0; s < a.stateCount(); ++s) {
        ASSERT_EQ(fastSat.test(s), static_cast<bool>(refSat[s]))
            << "seed " << seed << " formula " << f->toString() << " state "
            << s << " (" << a.stateName(s) << ")";
      }
    }
  }
  EXPECT_GT(deadlockModels, 0u);
}

TEST(CtlDifferential, BoundedSetsOnCappedExplorationArePinned) {
  // A capped exploration leaves its frontier unexpanded: those states have
  // no known successor and are not deadlocks. The bounded operators must
  // treat them exactly as the positional evaluation did.
  std::string bits;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Tables t;
    const Automaton a = makeWideModel(t, seed * 5);
    const Automaton ctx = automata::mirrored(a, "ctx");
    automata::ExploreLimits limits;
    limits.stateCap = a.stateCount() / 2;
    const auto g = automata::explore({&a, &ctx}, limits);
    ASSERT_TRUE(g.capped()) << seed;
    ctl::Checker checker(g);
    for (const char* text :
         {"AF[0,0] p", "AF[0,3] p", "AF[1,4] q", "AF[2,2] (p || q)",
          "AF[3,9] q", "AF[2,inf] p", "EF[0,3] p", "EF[2,7] (p && q)",
          "EF[3,inf] q", "AG[0,2] q", "AG[1,5] !p", "AG[2,inf] q",
          "EG[0,3] q", "EG[2,6] !p", "EG[1,inf] q", "A[q U[0,4] p]",
          "A[q U[2,5] p]", "E[q U[1,6] p]", "E[!p U[3,inf] p]",
          "AG (p -> AF[1,3] q)"}) {
      const auto& sat = checker.evaluate(ctl::parseFormula(text));
      bits += text;
      bits += ':';
      for (StateId s = 0; s < g.stateCount(); ++s) {
        bits += sat.test(s) ? '1' : '0';
      }
      bits += '\n';
    }
  }
  EXPECT_EQ(fnv1a(bits), 0x4befc597a08b2b0bull) << bits;
}

// ---- Verifier: verdicts pinned across the explorer rewrite ---------------

/// One scenario's outcome, pinned from the build that composed with the
/// binary fold and checked deadlock freedom on the materialized product.
/// `cexHash` is the FNV-1a hash of every iteration's rendered
/// counterexamples, a "==" line, and the RealError witness.
struct Pinned {
  const char* scenario;
  synthesis::Verdict verdict;
  std::size_t iterations;
  std::size_t learnedFacts;
  std::uint64_t testPeriods;
  std::uint64_t cexHash;
};

void expectPinned(const synthesis::IntegrationResult& res, const Pinned& pin) {
  EXPECT_EQ(res.verdict, pin.verdict) << pin.scenario;
  EXPECT_EQ(res.iterations, pin.iterations) << pin.scenario;
  EXPECT_EQ(res.totalLearnedFacts, pin.learnedFacts) << pin.scenario;
  EXPECT_EQ(res.totalTestPeriods, pin.testPeriods) << pin.scenario;
  std::string rendered;
  for (const auto& it : res.journal) rendered += it.cexText;
  EXPECT_EQ(fnv1a(rendered + "==\n" + res.counterexampleText), pin.cexHash)
      << pin.scenario;
}

synthesis::IntegrationResult runShuttle(bool faultyLegacy) {
  Tables t;
  const Automaton front = sh::frontRoleAutomaton(t.signals, t.props);
  testing::AutomatonLegacy legacy(faultyLegacy
                                      ? sh::faultyRearLegacy(t.signals, t.props)
                                      : sh::correctRearLegacy(t.signals,
                                                              t.props));
  synthesis::IntegrationConfig cfg;
  cfg.property = sh::kPatternConstraint;
  cfg.keepTraces = true;  // compare the rendered runs, not just the verdicts
  return synthesis::IntegrationVerifier(front, legacy, cfg).run();
}

TEST(VerifierDifferential, ShuttleScenarioIdenticalWithAndWithoutCaching) {
  const Pinned pins[] = {
      {"correct", synthesis::Verdict::ProvenCorrect, 7, 19, 92, 0xbb20b629c79b86beull},
      {"faulty", synthesis::Verdict::RealError, 3, 6, 10, 0xba5eb447aeef0a4full},
  };
  expectPinned(runShuttle(false), pins[0]);
  expectPinned(runShuttle(true), pins[1]);
}

synthesis::IntegrationResult runRandomScenario(std::size_t states,
                                               std::uint64_t seed) {
  Tables t;
  automata::RandomSpec spec;
  spec.states = states;
  spec.seed = seed;
  spec.name = "lg";
  Automaton hidden = automata::randomAutomaton(spec, t.signals, t.props);
  const Automaton context = automata::mirrored(
      automata::subAutomaton(hidden, 60, seed + 101, "lg_sub"), "ctx");
  testing::AutomatonLegacy legacy(std::move(hidden));
  synthesis::IntegrationConfig cfg;  // deadlock freedom only
  cfg.keepTraces = true;
  return synthesis::IntegrationVerifier(context, legacy, cfg).run();
}

TEST(VerifierDifferential, RandomScenariosIdenticalWithAndWithoutCaching) {
  // Scenario "states/seed".
  const Pinned pins[] = {
      {"4/1", synthesis::Verdict::RealError, 4, 8, 20, 0xc721110289a14f6bull},
      {"4/2", synthesis::Verdict::ProvenCorrect, 5, 10, 22, 0x3936f1de70ff1e36ull},
      {"4/3", synthesis::Verdict::RealError, 4, 9, 18, 0xcd85d1194fb6434bull},
      {"4/4", synthesis::Verdict::RealError, 4, 10, 22, 0x115c354713f9a740ull},
      {"4/5", synthesis::Verdict::RealError, 4, 7, 12, 0x7acbf5d9c80c6346ull},
      {"8/1", synthesis::Verdict::RealError, 4, 8, 16, 0x0c5a69c3094ce075ull},
      {"8/2", synthesis::Verdict::ProvenCorrect, 9, 21, 70, 0xa1427dc6ce663981ull},
      {"8/3", synthesis::Verdict::ProvenCorrect, 9, 19, 92, 0xa0b72d89ef94d94eull},
      {"8/4", synthesis::Verdict::RealError, 4, 11, 24, 0x3f86a93aa57f0a80ull},
      {"8/5", synthesis::Verdict::RealError, 4, 9, 22, 0x43411307ce888b90ull},
      {"16/1", synthesis::Verdict::RealError, 9, 31, 100, 0x5eb7452def9b6db6ull},
      {"16/2", synthesis::Verdict::RealError, 12, 38, 118, 0x2eaa0fd923fd7259ull},
      {"16/3", synthesis::Verdict::RealError, 16, 42, 194, 0x716f83d5da222d5eull},
      {"16/4", synthesis::Verdict::RealError, 4, 15, 26, 0xf69d3b67ada54ca0ull},
      {"16/5", synthesis::Verdict::RealError, 12, 34, 124, 0xa72cb265d73a7b48ull},
  };
  std::size_t i = 0;
  for (const std::size_t states : {4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      expectPinned(runRandomScenario(states, seed), pins[i++]);
    }
  }
}

// ---- A bounded-response violation, end to end ----------------------------

TEST(VerifierDifferential, BoundedResponseViolationRunsArePinned) {
  // deviceSlow answers two ticks after the ping, so the monitor's response
  // bound of one tick fails while the pattern constraint still holds.
  const auto model =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  const auto& pattern = model.patterns.at("Watchdog");
  const auto scenario =
      muml::makeIntegrationScenario(pattern, 1, model.signals, model.props);
  const std::string property = "(" + scenario.property +
                               ") && AG (monitor.waiting -> AF[1,1] "
                               "monitor.idle)";
  const Automaton device =
      automata::withInstanceName(model.automata.at("deviceSlow"), "device");

  // ctl::verify on the concrete product, every search order and count.
  const auto g = automata::explore({&device, &scenario.context});
  const auto phi = ctl::parseFormula(property);
  std::string rendered;
  for (const auto search :
       {ctl::CexSearch::Shortest, ctl::CexSearch::DepthFirst}) {
    for (const std::size_t k : {1u, 3u}) {
      ctl::VerifyOptions opts;
      opts.search = search;
      opts.maxCounterexamples = k;
      const auto r = ctl::verify(g, phi, opts);
      EXPECT_FALSE(r.holds);
      for (const auto& cex : r.counterexamples) {
        rendered += (cex.kind == ctl::Counterexample::Kind::Property ? "P "
                                                                     : "D ");
        rendered += (cex.pathExact ? "exact " : "approx ") + cex.note + "\n";
        rendered += g.renderRun(cex.run);
      }
      rendered += "--\n";
    }
  }
  EXPECT_EQ(fnv1a(rendered), 0x425996f1ae141c4dull) << rendered;

  // The integration loop, whose witnesses extend through the chaos closure.
  testing::AutomatonLegacy legacy(device);
  synthesis::IntegrationConfig cfg;
  cfg.property = property;
  cfg.keepTraces = true;
  expectPinned(
      synthesis::IntegrationVerifier(scenario.context, legacy, cfg).run(),
      {"deviceSlow", synthesis::Verdict::RealError, 3, 6, 8,
       0x5ad015edaf9bf5bcull});
}

}  // namespace
}  // namespace mui
