#include "ctl/counterexample.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"

namespace mui::ctl {

using automata::Exploration;
using automata::Interaction;
using automata::Run;

namespace {

struct PathNode {
  StateId s;
  std::size_t parent;  // self-index for roots
  Interaction label;   // label from parent
  std::size_t depth;
};

Run buildRun(const std::vector<PathNode>& nodes, std::size_t idx) {
  Run run;
  std::size_t i = idx;
  while (nodes[i].parent != i) {
    run.states.push_back(nodes[i].s);
    run.labels.push_back(nodes[i].label);
    i = nodes[i].parent;
  }
  run.states.push_back(nodes[i].s);
  std::reverse(run.states.begin(), run.states.end());
  std::reverse(run.labels.begin(), run.labels.end());
  return run;
}

/// Finds up to k runs from the initial states to target states. The plain
/// search visits every state once, so the runs end in distinct targets.
/// With a depth window [lo, hi] (bounded AG violations) states are revisited
/// per depth and only runs of length in the window count.
std::vector<Run> searchPaths(const Exploration& m, const SatSet& target,
                             std::size_t k, CexSearch order,
                             bool windowed = false, std::size_t lo = 0,
                             std::size_t hi = 0) {
  std::vector<PathNode> nodes;
  std::vector<char> visited(m.stateCount(), 0);    // plain search
  std::unordered_set<std::uint64_t> visitedAtDepth;  // windowed search
  std::deque<std::size_t> work;
  std::vector<Run> out;

  const auto visit = [&](StateId s, std::size_t depth, std::size_t parent,
                         const Interaction& via) {
    // Without an upper bound every depth >= lo is one layer: the window
    // cannot tell those depths apart, and a search keyed by each of them
    // would circle a cycle forever.
    const std::size_t layer = hi == Bound::kInf ? std::min(depth, lo) : depth;
    if (windowed ? depth > hi || !visitedAtDepth.insert(
                                     (std::uint64_t{layer} << 32) | s).second
                 : std::exchange(visited[s], 1) != 0) {
      return;
    }
    const std::size_t idx = nodes.size();
    nodes.push_back({s, depth == 0 ? idx : parent, via, depth});
    work.push_back(idx);
  };

  for (StateId q : m.initialStates()) visit(q, 0, 0, {});

  while (!work.empty() && out.size() < k) {
    std::size_t idx;
    if (order == CexSearch::Shortest) {
      idx = work.front();
      work.pop_front();
    } else {
      idx = work.back();
      work.pop_back();
    }
    const StateId s = nodes[idx].s;
    const std::size_t depth = nodes[idx].depth;
    if (target[s] && (!windowed || depth >= lo)) {
      out.push_back(buildRun(nodes, idx));
      if (windowed) continue;
    }
    for (const auto& e : m.edges(s)) {
      visit(e.to, depth + 1, idx, m.interaction(e.label));
    }
  }
  return out;
}

/// Appends to `run` a suffix from its final state witnessing ¬AF[a,b]χ: a
/// maximal-path prefix along which χ never holds inside the window. Each
/// step takes the first edge whose target violates the obligation left at
/// that position, read off one AFWindow. Returns false if the invariant
/// (final state violates the AF) does not hold.
bool appendNotAFWitness(Checker& checker, const Exploration& m, Run& run,
                        const FormulaPtr& chi, Bound bound) {
  const Checker::AFWindow window = checker.afWindow(chi, bound);
  StateId cur = run.states.back();
  std::size_t i = 0;
  std::unordered_set<StateId> seenSinceLo;
  while (true) {
    if (bound.bounded() && i >= bound.hi) return true;  // window exhausted
    if (m.edges(cur).empty()) return true;              // path died without χ
    if (i >= bound.lo && !bound.bounded()) {
      // Unbounded tail: stop at a lasso (state revisited after lo).
      if (!seenSinceLo.insert(cur).second) return true;
    }
    bool advanced = false;
    for (const auto& e : m.edges(cur)) {
      if (!window.holds(e.to, i + 1)) {
        run.labels.push_back(m.interaction(e.label));
        run.states.push_back(e.to);
        cur = e.to;
        advanced = true;
        break;
      }
    }
    if (!advanced) return false;  // should not happen if cur violates AF
    ++i;
  }
}

/// Propositional formulas (boolean combinations of literals) are witnessed
/// by the violating state itself.
bool isPropositional(const FormulaPtr& f) {
  switch (f->op) {
    case Op::True:
    case Op::False:
    case Op::Atom:
    case Op::Deadlock:
      return true;
    case Op::Not:
    case Op::And:
    case Op::Or:
    case Op::Implies:
      return isPropositional(f->lhs) &&
             (f->rhs == nullptr || isPropositional(f->rhs));
    default:
      return false;
  }
}

/// Flattens an Or-chain into its arms.
void orArms(const FormulaPtr& f, std::vector<FormulaPtr>& arms) {
  if (f->op == Op::Or) {
    orArms(f->lhs, arms);
    orArms(f->rhs, arms);
  } else {
    arms.push_back(f);
  }
}

/// Extends `run` (ending in a state violating ψ) with a suffix making the
/// violation observable. Returns whether the resulting path is exact.
bool extendWitness(Checker& checker, const Exploration& m, Run& run,
                   const FormulaPtr& psi, const SatSet& psiSat) {
  const StateId s = run.states.back();
  if (isPropositional(psi)) return true;
  switch (psi->op) {
    case Op::And: {
      const SatSet& l = checker.evaluate(psi->lhs);
      if (!l[s]) return extendWitness(checker, m, run, psi->lhs, l);
      const SatSet& r = checker.evaluate(psi->rhs);
      return extendWitness(checker, m, run, psi->rhs, r);
    }
    case Op::Or: {
      // Every arm is false at s. Propositional arms are witnessed by the
      // state itself; a single temporal AF arm gets a path suffix. Multiple
      // temporal arms would need a joint witness — approximate then.
      std::vector<FormulaPtr> arms;
      orArms(psi, arms);
      const FormulaPtr* temporal = nullptr;
      for (const auto& arm : arms) {
        if (isPropositional(arm)) continue;
        if (arm->op == Op::AF && temporal == nullptr) {
          temporal = &arm;
        } else {
          return false;
        }
      }
      if (temporal == nullptr) return true;
      return appendNotAFWitness(checker, m, run, (*temporal)->lhs,
                                (*temporal)->bound);
    }
    case Op::Implies: {
      // ¬(a → b): a holds here, b fails — extend along b's failure.
      const SatSet& r = checker.evaluate(psi->rhs);
      return extendWitness(checker, m, run, psi->rhs, r);
    }
    case Op::AF:
      return appendNotAFWitness(checker, m, run, psi->lhs, psi->bound);
    default:
      (void)psiSat;
      return false;  // approximate witness
  }
}

void collectPropertyCexs(Checker& checker, const Exploration& m,
                         const FormulaPtr& phi, const VerifyOptions& opts,
                         std::vector<Counterexample>& out) {
  if (out.size() >= opts.maxCounterexamples) return;
  const SatSet& sat = checker.evaluate(phi);
  bool fails = false;
  StateId badInitial = 0;
  for (StateId q : m.initialStates()) {
    if (!sat[q]) {
      fails = true;
      badInitial = q;
      break;
    }
  }
  if (!fails) return;

  const std::size_t want = opts.maxCounterexamples - out.size();

  switch (phi->op) {
    case Op::And: {
      collectPropertyCexs(checker, m, phi->lhs, opts, out);
      collectPropertyCexs(checker, m, phi->rhs, opts, out);
      if (!out.empty()) return;
      break;  // conjunction fails only jointly — fall through to approximate
    }
    case Op::AG: {
      const SatSet& inner = checker.evaluate(phi->lhs);
      SatSet bad = inner;
      bad.flip();
      const bool windowed = phi->bound.lo > 0 || phi->bound.bounded();
      auto runs = searchPaths(
          m, bad, want, opts.search, windowed, phi->bound.lo,
          phi->bound.bounded() ? phi->bound.hi : Bound::kInf);
      for (auto& run : runs) {
        Counterexample cex;
        cex.kind = Counterexample::Kind::Property;
        cex.run = std::move(run);
        cex.pathExact =
            extendWitness(checker, m, cex.run, phi->lhs, inner);
        cex.note = "violates " + phi->toString();
        out.push_back(std::move(cex));
        if (out.size() >= opts.maxCounterexamples) return;
      }
      if (!out.empty()) return;
      break;
    }
    case Op::AF: {
      Counterexample cex;
      cex.kind = Counterexample::Kind::Property;
      cex.run.states.push_back(badInitial);
      cex.pathExact =
          appendNotAFWitness(checker, m, cex.run, phi->lhs, phi->bound);
      cex.note = "violates " + phi->toString();
      out.push_back(std::move(cex));
      return;
    }
    case Op::Atom:
    case Op::Deadlock:
    case Op::Not:
    case Op::Or:
    case Op::Implies:
    case Op::True:
    case Op::False: {
      Counterexample cex;
      cex.kind = Counterexample::Kind::Property;
      cex.run.states.push_back(badInitial);
      cex.pathExact = true;  // the initial state itself is the witness
      cex.note = "initial state violates " + phi->toString();
      out.push_back(std::move(cex));
      return;
    }
    default:
      break;
  }

  // Fallback: approximate witness at a violating initial state.
  Counterexample cex;
  cex.kind = Counterexample::Kind::Property;
  cex.run.states.push_back(badInitial);
  cex.pathExact = false;
  cex.note = "approximate witness for " + phi->toString();
  out.push_back(std::move(cex));
}

}  // namespace

VerifyResult verify(const Exploration& m, const FormulaPtr& phi,
                    const VerifyOptions& opts) {
  const obs::ObsSpan span("verify", opts.traceId);
  std::optional<Checker> checker;
  VerifyResult result;
  result.stateCount = m.stateCount();
  if (phi != nullptr) {
    checker.emplace(m);
    if (!checker->holds(phi)) {
      collectPropertyCexs(*checker, m, phi, opts, result.counterexamples);
    }
    result.unknownAtoms = checker->unknownAtoms();
  }

  const std::size_t want =
      opts.maxCounterexamples - result.counterexamples.size();
  if (opts.requireDeadlockFree && want > 0) {
    std::vector<Run> runs;
    if (m.breadthFirst() && opts.search == CexSearch::Shortest) {
      // The explorer's parent tree is searchPaths' BFS tree: the shortest
      // runs to the first deadlocks in BFS order, read off directly.
      for (const StateId d : m.deadlocks()) {
        if (runs.size() == want) break;
        runs.push_back(m.runTo(d));
      }
    } else {
      if (!checker) checker.emplace(m);
      if (checker->deadlockSet().any()) {
        runs = searchPaths(m, checker->deadlockSet(), want, opts.search);
      }
    }
    for (auto& run : runs) {
      Counterexample cex;
      cex.kind = Counterexample::Kind::Deadlock;
      cex.note = "reachable deadlock state '" +
                 m.stateName(run.states.back()) + "'";
      cex.run = std::move(run);
      result.counterexamples.push_back(std::move(cex));
    }
  }

  result.holds = result.counterexamples.empty();
  return result;
}

VerifyResult verify(const automata::Automaton& m, const FormulaPtr& phi,
                    const VerifyOptions& opts) {
  return verify(automata::flatten(m), phi, opts);
}

}  // namespace mui::ctl
