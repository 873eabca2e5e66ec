// Tests for counterexample generation: shortest paths to invariant
// violations and deadlocks, exact suffixes for bounded leads-to violations,
// multiple counterexamples, and search-order variants (experiment E7).

#include <gtest/gtest.h>

#include "automata/random.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "helpers.hpp"

namespace mui::ctl {
namespace {

using automata::Automaton;
using automata::Interaction;
using test::fnv1a;
using test::Tables;

/// s0 -> s1 -> bad(p). s0 -> far -> far2 -> bad2(p). bad2 deadlocks.
Automaton invariantModel(const Tables& t) {
  Automaton a(t.signals, t.props, "m");
  a.addOutput("step");
  const Interaction x = test::ia(*t.signals, {}, {"step"});
  for (const char* n : {"s0", "s1", "bad", "far", "far2", "bad2"}) {
    a.addState(n);
  }
  a.markInitial(0);
  a.addTransition(0, x, 1);
  a.addTransition(1, x, 2);
  a.addTransition(2, x, 2);
  a.addTransition(0, x, 3);
  a.addTransition(3, x, 4);
  a.addTransition(4, x, 5);
  a.addLabel(2, "p");
  a.addLabel(5, "p");
  return a;
}

TEST(Cex, InvariantViolationShortestPath) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG !p"), opts);
  ASSERT_FALSE(r.holds);
  ASSERT_EQ(r.counterexamples.size(), 1u);
  const auto& cex = r.cex();
  EXPECT_EQ(cex.kind, Counterexample::Kind::Property);
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  // BFS: the 2-step route to `bad`, not the 3-step route to `bad2`.
  EXPECT_EQ(cex.run.length(), 2u);
  EXPECT_EQ(a.stateName(cex.run.states.back()), "bad");
}

TEST(Cex, HoldingPropertyHasNoCounterexample) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG (p || !p)"), opts);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.counterexamples.empty());
}

TEST(Cex, DeadlockWitness) {
  Tables t;
  const Automaton a = invariantModel(t);
  const auto r = verify(a, nullptr, {});
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  EXPECT_EQ(cex.kind, Counterexample::Kind::Deadlock);
  EXPECT_TRUE(a.admitsRun(cex.run));
  EXPECT_EQ(a.stateName(cex.run.states.back()), "bad2");
  EXPECT_EQ(cex.run.length(), 3u);
  EXPECT_NE(cex.note.find("bad2"), std::string::npos);
}

TEST(Cex, PropertyCheckedBeforeDeadlock) {
  Tables t;
  const Automaton a = invariantModel(t);
  const auto r = verify(a, parseFormula("AG !p"), {});
  ASSERT_FALSE(r.holds);
  EXPECT_EQ(r.cex().kind, Counterexample::Kind::Property);
}

TEST(Cex, MultipleCounterexamplesAreDistinct) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.maxCounterexamples = 4;
  const auto r = verify(a, parseFormula("AG !p"), opts);
  ASSERT_EQ(r.counterexamples.size(), 2u);  // two distinct violating states
  EXPECT_NE(r.counterexamples[0].run.states.back(),
            r.counterexamples[1].run.states.back());
  for (const auto& cex : r.counterexamples) {
    EXPECT_TRUE(a.admitsRun(cex.run));
  }
}

TEST(Cex, LeadsToViolationGetsExactSuffix) {
  // AG(p -> AF[1,2] q): from `trigger` (p) the model can wander 3 steps
  // without q — the counterexample must extend past the trigger to show the
  // window expiring.
  Tables t;
  Automaton a(t.signals, t.props, "m");
  a.addOutput("step");
  const Interaction x = test::ia(*t.signals, {}, {"step"});
  for (const char* n : {"s0", "trigger", "w1", "w2", "q1"}) a.addState(n);
  a.markInitial(0);
  a.addTransition(0, x, 1);   // s0 -> trigger
  a.addTransition(1, x, 2);   // trigger -> w1
  a.addTransition(1, x, 4);   // trigger -> q1 (the good branch)
  a.addTransition(2, x, 3);   // w1 -> w2
  a.addTransition(3, x, 3);   // w2 loops
  a.addTransition(4, x, 4);
  a.addLabel(1, "p");
  a.addLabel(4, "q");

  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG (p -> AF[1,2] q)"), opts);
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  // Prefix reaches `trigger` (1 step), suffix shows 2 q-less steps.
  EXPECT_GE(cex.run.length(), 3u);
  EXPECT_EQ(a.stateName(cex.run.states[1]), "trigger");
  for (std::size_t i = 2; i < cex.run.states.size(); ++i) {
    EXPECT_NE(a.stateName(cex.run.states[i]), "q1");
  }
}

TEST(Cex, TopLevelBoundedAFWitness) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  // p is reachable but not guaranteed within 1 step.
  const auto r = verify(a, parseFormula("AF[0,1] p"), opts);
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  // Every state on the witness within the window must avoid p.
  for (automata::StateId s : cex.run.states) {
    EXPECT_NE(a.stateName(s), "bad");
    EXPECT_NE(a.stateName(s), "bad2");
  }
}

TEST(Cex, DepthFirstSearchFindsSomeViolation) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.search = CexSearch::DepthFirst;
  const auto r = verify(a, parseFormula("AG !p"), opts);
  ASSERT_FALSE(r.holds);
  EXPECT_TRUE(a.admitsRun(r.cex().run));
}

TEST(Cex, ConjunctionPeeling) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r =
      verify(a, parseFormula("AG (p || !p) && AG !p"), opts);
  ASSERT_FALSE(r.holds);
  EXPECT_TRUE(a.admitsRun(r.cex().run));
  EXPECT_NE(r.cex().note.find("AG"), std::string::npos);
}

TEST(Cex, UnknownAtomsSurfacedInResult) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG !nonexistent_atom"), opts);
  EXPECT_TRUE(r.holds);  // atom is false everywhere, so AG ! holds
  ASSERT_EQ(r.unknownAtoms.size(), 1u);
  EXPECT_EQ(r.unknownAtoms[0], "nonexistent_atom");
}

/// a ⇄ b, a → c, c → c with c bad; a's edge to c comes first, so a
/// depth-first search takes a → b before a → c.
Automaton lowerBoundModel(const Tables& t) {
  Automaton m(t.signals, t.props, "m");
  m.addOutput("step");
  const Interaction x = test::ia(*t.signals, {}, {"step"});
  for (const char* n : {"a", "b", "c"}) m.addState(n);
  m.markInitial(0);
  m.addTransition(0, x, 2);
  m.addTransition(0, x, 1);
  m.addTransition(1, x, 0);
  m.addTransition(2, x, 2);
  m.addLabel(2, "bad");
  return m;
}

TEST(Cex, DepthFirstLowerBoundedInvariantTerminates) {
  // Keyed by every depth, the depth-first search would circle a ⇄ b
  // forever; all depths from the lower bound on form one layer.
  Tables t;
  const Automaton m = lowerBoundModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.search = CexSearch::DepthFirst;
  const auto r = verify(m, parseFormula("AG[2,inf] !bad"), opts);
  ASSERT_FALSE(r.holds);
  ASSERT_EQ(r.counterexamples.size(), 1u);
  const auto& cex = r.cex();
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(m.admitsRun(cex.run));
  EXPECT_GE(cex.run.length(), 2u);
  EXPECT_EQ(m.stateName(cex.run.states.back()), "c");
}

TEST(Cex, ShortestLowerBoundedInvariantRunsArePinned) {
  // One layer for all depths >= lo must not change the breadth-first run:
  // pinned from the search keyed by every depth.
  std::string rendered;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Tables t;
    automata::RandomSpec spec;
    spec.states = 4 + seed % 13;
    spec.seed = seed;
    spec.name = "r";
    spec.deterministic = seed % 2 == 0;
    spec.noLocalDeadlocks = seed % 3 != 0;
    const Automaton m = automata::randomAutomaton(spec, t.signals, t.props);
    const std::string bad =
        "r.r_q" + std::to_string((seed * 3) % spec.states);
    for (const char* lo : {"1", "2", "4"}) {
      VerifyOptions opts;
      opts.requireDeadlockFree = false;
      const auto r = verify(
          m, parseFormula("AG[" + std::string(lo) + ",inf] !" + bad), opts);
      rendered += bad + "@" + lo + (r.holds ? " holds\n" : " fails\n");
      for (const auto& cex : r.counterexamples) {
        for (const auto s : cex.run.states) {
          rendered += m.stateName(s) + " ";
        }
        rendered += cex.pathExact ? "exact\n" : "approx\n";
      }
    }
  }
  EXPECT_EQ(fnv1a(rendered), 0xd08df548739fb7b6ull) << rendered;
}

}  // namespace
}  // namespace mui::ctl
