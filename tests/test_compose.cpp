// Tests for parallel composition (paper Def. 3): synchronous matching,
// label union, reachability restriction, n-ary folding, and run projection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "automata/compose.hpp"
#include "automata/explorer.hpp"
#include "automata/random.hpp"
#include "ctl/checker.hpp"
#include "helpers.hpp"

namespace mui::automata {
namespace {

using ARun = Run;
using test::Tables;
using test::ia;

/// Sender: emits `msg` then waits for `ok`. Receiver: consumes `msg` then
/// emits `ok`. Together they form a closed two-step handshake.
struct Handshake {
  Tables t;
  Automaton sender;
  Automaton receiver;

  Handshake()
      : sender(t.signals, t.props, "snd"), receiver(t.signals, t.props, "rcv") {
    sender.addOutput("msg");
    sender.addInput("ok");
    sender.addState("s0");
    sender.addState("s1");
    sender.markInitial(0);
    sender.labelWithStateName(0);
    sender.labelWithStateName(1);
    sender.addTransition(0, ia(*t.signals, {}, {"msg"}), 1);
    sender.addTransition(1, ia(*t.signals, {"ok"}, {}), 0);

    receiver.addInput("msg");
    receiver.addOutput("ok");
    receiver.addState("r0");
    receiver.addState("r1");
    receiver.markInitial(0);
    receiver.labelWithStateName(0);
    receiver.labelWithStateName(1);
    receiver.addTransition(0, ia(*t.signals, {"msg"}, {}), 1);
    receiver.addTransition(1, ia(*t.signals, {}, {"ok"}), 0);
  }
};

TEST(Compose, SynchronousHandshake) {
  Handshake h;
  const Product p = compose(h.sender, h.receiver);
  // Lockstep: exactly the two joint states (s0,r0) and (s1,r1) are reachable.
  EXPECT_EQ(p.automaton.stateCount(), 2u);
  EXPECT_EQ(p.automaton.transitionCount(), 2u);
  EXPECT_EQ(p.automaton.initialStates().size(), 1u);
  // The joint labels are the unions of the component interactions.
  const StateId init = p.automaton.initialStates()[0];
  const auto& ts = p.automaton.transitionsFrom(init);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].label, ia(*h.t.signals, {"msg"}, {"msg"}));
}

TEST(Compose, UnconsumedMessageBlocksSynchronization) {
  // A receiver that has msg in its input alphabet but never takes it:
  // synchronous communication means the send cannot fire (Def. 3's matching
  // (A' ∩ O) = B fails), so the composition deadlocks immediately.
  Tables t2;
  Automaton snd(t2.signals, t2.props, "snd");
  snd.addOutput("msg");
  snd.addState("s0");
  snd.markInitial(0);
  snd.addTransition(0, ia(*t2.signals, {}, {"msg"}), 0);
  Automaton rcv(t2.signals, t2.props, "rcv");
  rcv.addInput("msg");
  rcv.addState("r0");
  rcv.markInitial(0);
  rcv.addTransition(0, test::idle(), 0);
  const Product p = compose(snd, rcv);
  ASSERT_EQ(p.automaton.stateCount(), 1u);
  EXPECT_TRUE(
      p.automaton.transitionsFrom(p.automaton.initialStates()[0]).empty());
}

TEST(Compose, EnvironmentFacingOutputsPassThrough) {
  // An output outside the partner's input alphabet is not subject to the
  // matching condition (open system; DESIGN.md §6).
  Tables t;
  Automaton a(t.signals, t.props, "a");
  a.addOutput("ext");  // nobody reads this
  a.addState("a0");
  a.markInitial(0);
  a.addTransition(0, ia(*t.signals, {}, {"ext"}), 0);
  Automaton b(t.signals, t.props, "b");
  b.addInput("other");
  b.addState("b0");
  b.markInitial(0);
  b.addTransition(0, test::idle(), 0);
  const Product p = compose(a, b);
  const StateId init = p.automaton.initialStates()[0];
  ASSERT_EQ(p.automaton.transitionsFrom(init).size(), 1u);
  EXPECT_EQ(p.automaton.transitionsFrom(init)[0].label,
            ia(*t.signals, {}, {"ext"}));
}

TEST(Compose, RequiresComposability) {
  Handshake h;
  Automaton clash(h.t.signals, h.t.props, "clash");
  clash.addOutput("msg");  // output overlap with sender
  clash.addState("c0");
  clash.markInitial(0);
  EXPECT_THROW(compose(h.sender, clash), std::invalid_argument);

  // Different tables are rejected too.
  Tables other;
  Automaton foreign(other.signals, other.props, "foreign");
  foreign.addState("f0");
  foreign.markInitial(0);
  EXPECT_THROW(compose(h.sender, foreign), std::invalid_argument);
}

TEST(Compose, LabelsAreUnioned) {
  Handshake h;
  const Product p = compose(h.sender, h.receiver);
  const StateId init = p.automaton.initialStates()[0];
  const auto s0 = h.t.props->lookup("snd.s0");
  const auto r0 = h.t.props->lookup("rcv.r0");
  ASSERT_TRUE(s0 && r0);
  EXPECT_TRUE(p.automaton.labels(init).test(*s0));
  EXPECT_TRUE(p.automaton.labels(init).test(*r0));
}

TEST(Compose, OrthogonalComponentsInterleaveInLockstep) {
  // Two components with disjoint, non-communicating alphabets: every joint
  // step combines one transition of each (synchronous execution).
  Tables t;
  Automaton a(t.signals, t.props, "a");
  a.addOutput("x");
  a.addState("a0");
  a.addState("a1");
  a.markInitial(0);
  a.addTransition(0, ia(*t.signals, {}, {"x"}), 1);
  a.addTransition(1, test::idle(), 1);

  Automaton b(t.signals, t.props, "b");
  b.addOutput("y");
  b.addState("b0");
  b.addState("b1");
  b.markInitial(0);
  b.addTransition(0, ia(*t.signals, {}, {"y"}), 1);
  b.addTransition(1, test::idle(), 1);

  ASSERT_TRUE(a.orthogonalTo(b));
  const Product p = compose(a, b);
  // Both must move each step: (a0,b0) -> (a1,b1) -> (a1,b1).
  EXPECT_EQ(p.automaton.stateCount(), 2u);
  const StateId init = p.automaton.initialStates()[0];
  const auto& ts = p.automaton.transitionsFrom(init);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].label, ia(*t.signals, {}, {"x", "y"}));
}

TEST(Compose, NaryFoldIsOrderInsensitiveUpToSize) {
  Tables t;
  RandomSpec specA;
  specA.states = 4;
  specA.inputs = 1;
  specA.outputs = 1;
  specA.densityPct = 30;
  specA.seed = 11;
  specA.name = "ra";
  RandomSpec specB = specA;
  specB.states = 3;
  specB.seed = 22;
  specB.name = "rb";
  RandomSpec specC = specB;
  specC.seed = 33;
  specC.name = "rc";
  const Automaton a = randomAutomaton(specA, t.signals, t.props);
  const Automaton b = randomAutomaton(specB, t.signals, t.props);
  const Automaton c = randomAutomaton(specC, t.signals, t.props);
  const Product abc = composeAll({&a, &b, &c});
  const Product cab = composeAll({&c, &a, &b});
  EXPECT_EQ(abc.automaton.stateCount(), cab.automaton.stateCount());
  EXPECT_EQ(abc.automaton.transitionCount(), cab.automaton.transitionCount());
  EXPECT_EQ(abc.componentNames.size(), 3u);
  EXPECT_EQ(abc.origins.size(), abc.automaton.stateCount());
}

TEST(Compose, ProjectionRecoversComponentRuns) {
  Handshake h;
  const Product p = compose(h.sender, h.receiver);
  const StateId init = p.automaton.initialStates()[0];
  ARun run;
  run.states.push_back(init);
  StateId cur = init;
  for (int i = 0; i < 3; ++i) {
    const auto& ts = p.automaton.transitionsFrom(cur);
    ASSERT_FALSE(ts.empty());
    run.labels.push_back(ts[0].label);
    run.states.push_back(ts[0].to);
    cur = ts[0].to;
  }
  const ARun sndRun = p.projectRun(run, 0);
  const ARun rcvRun = p.projectRun(run, 1);
  EXPECT_TRUE(h.sender.admitsRun(sndRun));
  EXPECT_TRUE(h.receiver.admitsRun(rcvRun));
  // Projections keep only the component's own signals.
  EXPECT_EQ(sndRun.labels[0], ia(*h.t.signals, {}, {"msg"}));
  EXPECT_EQ(rcvRun.labels[0], ia(*h.t.signals, {"msg"}, {}));
}

TEST(Compose, RenderRunPaperStyle) {
  Handshake h;
  const Product p = compose(h.sender, h.receiver);
  const StateId init = p.automaton.initialStates()[0];
  ARun run;
  run.states.push_back(init);
  const auto& ts = p.automaton.transitionsFrom(init);
  ASSERT_FALSE(ts.empty());
  run.labels.push_back(ts[0].label);
  run.states.push_back(ts[0].to);
  const std::string text = p.renderRun(run);
  EXPECT_NE(text.find("snd.s0, rcv.r0"), std::string::npos);
  EXPECT_NE(text.find("snd.msg!, rcv.msg?"), std::string::npos);
  EXPECT_NE(text.find("snd.s1, rcv.r1"), std::string::npos);

  // Deadlock rendering.
  ARun dead = run;
  dead.deadlock = true;  // states == labels sizes match after this trim
  dead.states.pop_back();
  const std::string dtext = p.renderRun(dead);
  EXPECT_NE(dtext.find("[blocked]"), std::string::npos);
  EXPECT_NE(dtext.find("DEADLOCK"), std::string::npos);
}

// ---- The explorer against the reference fold ------------------------------

/// A legacy, a context that talks to it, and a bystander with its own
/// signals: a 3-component product with synchronization and interleaving.
struct Trio {
  Tables t;
  Automaton legacy, context, bystander;

  explicit Trio(std::uint64_t seed)
      : legacy(randomAutomaton(spec(6, seed, "lg"), t.signals, t.props)),
        context(mirrored(subAutomaton(legacy, 60, seed + 101, "lg_sub"),
                         "ctx")),
        bystander(randomAutomaton(spec(3, seed + 7, "by"), t.signals,
                                  t.props)) {}

  static RandomSpec spec(std::size_t states, std::uint64_t seed,
                         const char* name) {
    RandomSpec s;
    s.states = states;
    s.seed = seed;
    s.name = name;
    return s;
  }
  [[nodiscard]] std::vector<const Automaton*> parts() const {
    return {&context, &legacy, &bystander};
  }
};

TEST(Explorer, ThreeComponentProductEqualsTheFoldStateForState) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trio trio(seed);
    const Product explored = explore(trio.parts()).materialize();
    const Product fold = composeReference(trio.parts());
    const Automaton& a = explored.automaton;
    const Automaton& b = fold.automaton;
    ASSERT_EQ(a.stateCount(), b.stateCount()) << "seed " << seed;
    EXPECT_GT(a.stateCount(), trio.bystander.stateCount()) << "seed " << seed;
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.initialStates(), b.initialStates());
    EXPECT_EQ(explored.origins, fold.origins);
    for (StateId s = 0; s < a.stateCount(); ++s) {
      EXPECT_EQ(a.stateName(s), b.stateName(s));
      EXPECT_EQ(a.labels(s), b.labels(s));
      EXPECT_EQ(a.transitionsFrom(s), b.transitionsFrom(s)) << a.stateName(s);
    }
  }
}

TEST(Explorer, CappedStatesAreNeverDeadlocks) {
  const Trio trio(3);
  const Exploration full = explore(trio.parts());
  ASSERT_GT(full.stateCount(), 4u);
  const Exploration capped = explore(trio.parts(), {.stateCap = 4});
  EXPECT_TRUE(capped.capped());
  EXPECT_FALSE(full.capped());
  EXPECT_EQ(capped.stateCount(), 4u);
  const ctl::Checker checker(capped);
  std::size_t unexpanded = 0;
  for (StateId s = 0; s < capped.stateCount(); ++s) {
    if (capped.expanded(s)) continue;
    ++unexpanded;
    EXPECT_FALSE(checker.isDeadlockState(s));
    EXPECT_EQ(std::count(capped.deadlocks().begin(), capped.deadlocks().end(),
                         s),
              0);
  }
  EXPECT_GT(unexpanded, 0u);
}

TEST(Explorer, ParentTreeRunsAreShortest) {
  const Trio trio(5);
  const Exploration g = explore(trio.parts());
  const Automaton m = g.materialize().automaton;
  // Independent BFS distances over the materialized product.
  std::vector<std::size_t> dist(m.stateCount(), SIZE_MAX);
  std::deque<StateId> work;
  for (const StateId q : m.initialStates()) {
    dist[q] = 0;
    work.push_back(q);
  }
  while (!work.empty()) {
    const StateId s = work.front();
    work.pop_front();
    for (const auto& t : m.transitionsFrom(s)) {
      if (dist[t.to] == SIZE_MAX) {
        dist[t.to] = dist[s] + 1;
        work.push_back(t.to);
      }
    }
  }
  for (StateId s = 0; s < g.stateCount(); ++s) {
    const ARun run = g.runTo(s);
    EXPECT_EQ(run.states.back(), s);
    EXPECT_EQ(run.length(), dist[s]) << g.stateName(s);
    EXPECT_TRUE(m.admitsRun(run));
  }
}

TEST(Explorer, StopsAtTheKthDeadlock) {
  std::size_t stoppedEarly = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trio trio(seed);
    const Exploration full = explore(trio.parts());
    const Exploration early = explore(trio.parts(), {.stopAfterDeadlocks = 1});
    if (full.deadlocks().empty()) {
      EXPECT_EQ(early.stateCount(), full.stateCount());
      continue;
    }
    ASSERT_EQ(early.deadlocks().size(), 1u);
    EXPECT_EQ(early.deadlocks()[0], full.deadlocks()[0]);
    EXPECT_LE(early.stateCount(), full.stateCount());
    stoppedEarly += early.stateCount() < full.stateCount() ? 1 : 0;
    EXPECT_EQ(early.runTo(early.deadlocks()[0]),
              full.runTo(full.deadlocks()[0]));
  }
  EXPECT_GT(stoppedEarly, 0u);
}

TEST(Explorer, LazyNamesAndRenderRunMatchTheFold) {
  const Trio trio(2);
  const Exploration g = explore(trio.parts());
  const Product fold = composeReference(trio.parts());
  for (StateId s = 0; s < g.stateCount(); ++s) {
    EXPECT_EQ(g.stateName(s), fold.automaton.stateName(s));
    const ARun run = g.runTo(s);
    EXPECT_EQ(g.renderRun(run), fold.renderRun(run));
    ARun dead = run;  // the blocked-interaction form of a deadlock run
    if (dead.labels.empty()) continue;
    dead.deadlock = true;
    dead.states.pop_back();
    EXPECT_EQ(g.renderRun(dead), fold.renderRun(dead));
  }
}

TEST(Explorer, RejectsEmptyForeignAndNonComposableInputs) {
  Handshake h;
  EXPECT_THROW(explore({}), std::invalid_argument);
  EXPECT_THROW(composeReference({}), std::invalid_argument);

  Tables other;
  Automaton foreign(other.signals, other.props, "foreign");
  foreign.addState("f0");
  foreign.markInitial(0);
  EXPECT_THROW(explore({&h.sender, &foreign}), std::invalid_argument);

  Automaton clash(h.t.signals, h.t.props, "clash");
  clash.addOutput("msg");  // output overlap with sender
  clash.addState("c0");
  clash.markInitial(0);
  EXPECT_THROW(explore({&h.receiver, &h.sender, &clash}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mui::automata
