// Differential tests for the performance paths of the checker and the
// refinement loop:
//
//  - ctl::Checker (worklist fixpoints over a predecessor index, dense
//    bitsets) against ctl::ReferenceChecker (the retained naive sweep
//    implementation) on random models and random CCTL formulas, including
//    the bounded operators;
//  - IntegrationVerifier outcomes (verdicts, iterations, learned facts,
//    test periods, rendered counterexamples) pinned from the build before
//    the product explorer and the on-the-fly deadlock search.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/random.hpp"
#include "ctl/checker.hpp"
#include "ctl/formula.hpp"
#include "ctl/reference.hpp"
#include "helpers.hpp"
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

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

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

}  // namespace
}  // namespace mui
