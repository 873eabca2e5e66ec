#include "ctl/checker.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mui::ctl {

namespace {

/// Worklist pops across all fixpoint computations and distance labellings
/// (a sweep before a bounded window counts one per state). Hot loops count
/// into a local and flush once per fixpoint, so the hot path stays
/// atomic-free.
obs::Counter& popsCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_ctl_worklist_pops_total",
      "States popped from CTL fixpoint worklists");
  return c;
}

}  // namespace

Checker::Checker(const Exploration& g) : g_(g) { buildIndex(); }

Checker::Checker(const Automaton& m)
    : owned_(std::make_shared<const Exploration>(automata::flatten(m))),
      g_(*owned_) {
  buildIndex();
}

void Checker::buildIndex() {
  static obs::Counter& checkers = obs::Registry::global().counter(
      "mui_ctl_checkers_total", "CTL checkers constructed");
  static obs::Histogram& bits = obs::Registry::global().histogram(
      "mui_ctl_satset_bits", "Bit width of sat-set bitsets (= model states)",
      "states");
  checkers.inc();
  const std::size_t n = g_.stateCount();
  bits.observe(n);
  deadlock_ = SatSet(n);
  succHead_.assign(n + 1, 0);
  std::vector<StateId> targets;
  for (StateId s = 0; s < n; ++s) {
    targets.clear();
    for (const auto& e : g_.edges(s)) targets.push_back(e.to);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    succList_.insert(succList_.end(), targets.begin(), targets.end());
    succHead_[s + 1] = static_cast<std::uint32_t>(succList_.size());
    if (targets.empty() && g_.expanded(s)) deadlock_.set(s);
  }
  // Invert the duplicate-free edge set: counting sort into CSR.
  predHead_.assign(n + 1, 0);
  for (const StateId t : succList_) ++predHead_[t + 1];
  for (std::size_t s = 0; s < n; ++s) predHead_[s + 1] += predHead_[s];
  predList_.resize(succList_.size());
  std::vector<std::uint32_t> cursor(predHead_.begin(), predHead_.end() - 1);
  for (StateId s = 0; s < n; ++s) {
    forSucc(s, [&](StateId t) { predList_[cursor[t]++] = s; });
  }
}

SatSet Checker::atomSat(const std::string& name) {
  SatSet sat(g_.stateCount());
  const auto id = g_.propTable()->lookup(name);
  if (!id) {
    if (unknownAtomSet_.insert(name).second) unknownAtoms_.push_back(name);
    return sat;
  }
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    if (g_.hasLabel(s, *id)) sat.set(s);
  }
  return sat;
}

namespace {
/// Seeds the worklist with every state currently in `sat`.
std::vector<StateId> statesOf(const SatSet& sat) {
  std::vector<StateId> work;
  work.reserve(sat.count());
  for (StateId s = 0; s < sat.size(); ++s) {
    if (sat[s]) work.push_back(s);
  }
  return work;
}

/// Distance of a state that never reaches the target.
constexpr std::uint32_t kFar = std::numeric_limits<std::uint32_t>::max();

bool withinBudget(std::uint32_t dist, std::size_t budget) {
  return dist != kFar && dist <= budget;
}

/// The states whose distance is within `budget`.
SatSet within(const std::vector<std::uint32_t>& dist, std::size_t budget) {
  SatSet sat(dist.size());
  for (StateId s = 0; s < dist.size(); ++s) {
    if (withinBudget(dist[s], budget)) sat.set(s);
  }
  return sat;
}

SatSet complement(SatSet sat) {
  sat.flip();
  return sat;
}
}  // namespace

// AF φ (least fixpoint): φ, or all successors already satisfy AF φ and at
// least one successor exists (a path ending without φ violates AF). Each
// state keeps a pending-successor counter; it joins the set when the last
// successor does.
SatSet Checker::fixAF(const SatSet& phi) {
  SatSet sat = phi;
  std::vector<std::uint32_t> pending(g_.stateCount());
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    pending[s] = static_cast<std::uint32_t>(outDegree(s));
  }
  std::vector<StateId> work = statesOf(sat);
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (sat[s]) return;
      if (--pending[s] == 0) {  // deadlock states have no incoming decrement
        sat.set(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

// EG φ (greatest fixpoint, weak): φ along some maximal path — the path may
// end in a deadlock. States are deleted when their last satisfying successor
// is deleted (live-successor counter).
SatSet Checker::fixEG(const SatSet& phi) {
  SatSet sat = phi;
  std::vector<std::uint32_t> live(g_.stateCount(), 0);
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    forSucc(s, [&](StateId t) {
      if (sat[t]) ++live[s];
    });
  }
  std::vector<StateId> work;
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    if (sat[s] && !deadlock_[s] && live[s] == 0) {
      sat.reset(s);
      work.push_back(s);
    }
  }
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (!sat[s] || deadlock_[s]) return;
      if (--live[s] == 0) {
        sat.reset(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

SatSet Checker::fixAU(const SatSet& phi, const SatSet& psi) {
  SatSet sat = psi;
  std::vector<std::uint32_t> pending(g_.stateCount());
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    pending[s] = static_cast<std::uint32_t>(outDegree(s));
  }
  std::vector<StateId> work = statesOf(sat);
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (sat[s] || !phi[s]) return;  // ¬φ states can never join
      if (--pending[s] == 0) {
        sat.set(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

// EF φ and E[φ U ψ] are backward reachability: the states at a finite
// shortest distance. AG φ (greatest fixpoint) is ¬EF ¬φ: φ here and at every
// successor transitively; deadlock states satisfy the continuation
// vacuously.
SatSet Checker::fixpoint(Op op, const SatSet& phi, const SatSet& psi) {
  switch (op) {
    case Op::AF:
      return fixAF(phi);
    case Op::EF:
      return within(shortestDistance(phi, nullptr), Bound::kInf);
    case Op::AG:
      return complement(
          within(shortestDistance(complement(phi), nullptr), Bound::kInf));
    case Op::EG:
      return fixEG(phi);
    case Op::AU:
      return fixAU(phi, psi);
    case Op::EU:
      return within(shortestDistance(psi, &phi), Bound::kInf);
    default:
      throw std::logic_error("Checker::fixpoint: bad operator");
  }
}

// Longest distance to `target` over the maximal paths (AF / AU over
// [0, d]): 0 on the target, otherwise one more than the farthest successor,
// kFar if some maximal path misses the target (it ends in a deadlock or
// cycles outside it). Kahn order with the pending-successor counters of
// fixAF: a state is final once its last successor is. An unexpanded state
// of a capped exploration has no known successor, so its continuation holds
// vacuously from one step on (distance 1), as in the positional recurrence.
std::vector<std::uint32_t> Checker::longestDistance(const SatSet& target,
                                                    const SatSet* via) {
  const std::size_t n = g_.stateCount();
  std::vector<std::uint32_t> dist(n, kFar);
  std::vector<std::uint32_t> pending(n);
  std::vector<std::uint32_t> farthest(n, 0);
  std::vector<StateId> work;
  for (StateId s = 0; s < n; ++s) {
    pending[s] = static_cast<std::uint32_t>(outDegree(s));
    if (target[s]) {
      dist[s] = 0;
      work.push_back(s);
    } else if (pending[s] == 0 && !deadlock_[s] &&
               (via == nullptr || (*via)[s])) {
      dist[s] = 1;  // unexpanded
      work.push_back(s);
    }
  }
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (dist[s] != kFar || (via != nullptr && !(*via)[s])) return;
      farthest[s] = std::max(farthest[s], dist[t]);
      if (--pending[s] == 0) {
        dist[s] = farthest[s] + 1;
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return dist;
}

// Shortest distance to `target` (EF / EU over [0, d]): backward BFS.
std::vector<std::uint32_t> Checker::shortestDistance(const SatSet& target,
                                                     const SatSet* via) {
  std::vector<std::uint32_t> dist(g_.stateCount(), kFar);
  std::vector<StateId> work = statesOf(target);
  for (const StateId s : work) dist[s] = 0;
  for (std::size_t head = 0; head < work.size(); ++head) {
    const StateId t = work[head];
    forPred(t, [&](StateId s) {
      if (dist[s] == kFar && (via == nullptr || (*via)[s])) {
        dist[s] = dist[t] + 1;
        work.push_back(s);
      }
    });
  }
  popsCounter().add(work.size());
  return dist;
}

// Bounded (or lower-bounded) temporal operators. sat_i(s) answers "does the
// operator hold at s seen as position i of the window"; the result is
// sat_0. Position lo is the operator over [0, hi − lo] (over [0, ∞], the
// unbounded fixpoint, when hi == inf); positions lo−1 .. 0 lie before the
// window and are swept backwards one at a time. (`psi` is used only for
// AU/EU.)
SatSet Checker::temporal(Op op, const Bound& b, const SatSet& phi,
                         const SatSet& psi) {
  if (b.bounded() && b.hi < b.lo) {
    // Empty window: G-type trivially true, F/U-type trivially false.
    return SatSet(g_.stateCount(), op == Op::AG || op == Op::EG);
  }
  SatSet cur = b.bounded() ? windowStart(op, b.hi - b.lo, phi, psi)
                           : fixpoint(op, phi, psi);
  for (std::size_t i = b.lo; i-- > 0;) cur = stepBack(op, phi, cur);
  return cur;
}

// The operator over [0, budget]: states within `budget` of the target. AG
// and EG go through their duals: AG[0,d] φ = ¬EF[0,d] ¬φ and EG[0,d] φ =
// ¬AF[0,d] ¬φ under the weak semantics (a path that ends imposes nothing).
SatSet Checker::windowStart(Op op, std::size_t budget, const SatSet& phi,
                            const SatSet& psi) {
  switch (op) {
    case Op::AF:
      return within(longestDistance(phi, nullptr), budget);
    case Op::EF:
      return within(shortestDistance(phi, nullptr), budget);
    case Op::AU:
      return within(longestDistance(psi, &phi), budget);
    case Op::EU:
      return within(shortestDistance(psi, &phi), budget);
    case Op::AG:
      return complement(
          within(shortestDistance(complement(phi), nullptr), budget));
    case Op::EG:
      return complement(
          within(longestDistance(complement(phi), nullptr), budget));
    default:
      throw std::logic_error("Checker::windowStart: bad operator");
  }
}

// One position before the window, from the next position's set: nothing
// is required or fulfilled here, only the continuation counts. The sweep
// visits every state once and counts that as one pop each, so the pops
// counter shows what a window costs.
SatSet Checker::stepBack(Op op, const SatSet& phi, const SatSet& next) const {
  const std::size_t n = g_.stateCount();
  const bool universal = (op == Op::AF || op == Op::AG || op == Op::AU);
  SatSet sat(n);
  for (StateId s = 0; s < n; ++s) {
    bool contAll = true, contAny = false;
    forSucc(s, [&](StateId t) {
      if (next[t]) {
        contAny = true;
      } else {
        contAll = false;
      }
    });
    bool v;
    if (op == Op::AG || op == Op::EG) {
      // Weak semantics: a path that ends imposes nothing further.
      v = universal ? contAll : (deadlock_[s] || contAny);
    } else {
      const bool guard = op == Op::AU || op == Op::EU ? phi[s] : true;
      v = guard && !deadlock_[s] && (universal ? contAll : contAny);
    }
    sat.assign(s, v);
  }
  popsCounter().add(n);
  return sat;
}

Checker::AFWindow Checker::afWindow(const FormulaPtr& chi, const Bound& b) {
  AFWindow w;
  w.bound_ = b;
  if (b.bounded() && b.hi < b.lo) return w;  // empty window: never holds
  const SatSet& target = evaluate(chi);
  SatSet cur;
  if (b.bounded()) {
    w.dist_ = longestDistance(target, nullptr);
    cur = within(w.dist_, b.hi - b.lo);
  } else {
    w.fixpoint_ = fixAF(target);
    cur = w.fixpoint_;
  }
  w.before_.resize(b.lo);
  for (std::size_t i = b.lo; i-- > 0;) {
    cur = stepBack(Op::AF, target, cur);
    w.before_[i] = cur;
  }
  return w;
}

bool Checker::AFWindow::holds(StateId s, std::size_t j) const {
  if (j < before_.size()) return before_[j][s];
  if (!bound_.bounded()) return fixpoint_[s];
  return bound_.lo <= j && j <= bound_.hi &&
         withinBudget(dist_[s], bound_.hi - j);
}

const SatSet& Checker::evaluate(const FormulaPtr& f) {
  if (const auto it = memo_.find(f); it != memo_.end()) return it->second;
  SatSet sat = compute(*f);
  return memo_.emplace(f, std::move(sat)).first->second;
}

SatSet Checker::compute(const Formula& f) {
  const std::size_t n = g_.stateCount();
  switch (f.op) {
    case Op::True:
      return SatSet(n, true);
    case Op::False:
      return SatSet(n);
    case Op::Atom:
      return atomSat(f.atom);
    case Op::Deadlock:
      return deadlock_;
    case Op::Not: {
      SatSet v = evaluate(f.lhs);
      v.flip();
      return v;
    }
    case Op::And: {
      SatSet a = evaluate(f.lhs);
      a &= evaluate(f.rhs);
      return a;
    }
    case Op::Or: {
      SatSet a = evaluate(f.lhs);
      a |= evaluate(f.rhs);
      return a;
    }
    case Op::Implies: {
      SatSet a = evaluate(f.lhs);
      a.flip();
      a |= evaluate(f.rhs);
      return a;
    }
    case Op::AX: {
      const SatSet& p = evaluate(f.lhs);
      SatSet v(n);
      for (StateId s = 0; s < n; ++s) {
        bool all = true;
        forSucc(s, [&](StateId t) { all = all && p[t]; });
        if (all) v.set(s);  // vacuously true on deadlock states
      }
      return v;
    }
    case Op::EX: {
      const SatSet& p = evaluate(f.lhs);
      SatSet v(n);
      for (StateId s = 0; s < n; ++s) {
        bool any = false;
        forSucc(s, [&](StateId t) { any = any || p[t]; });
        if (any) v.set(s);
      }
      return v;
    }
    case Op::AF:
    case Op::EF:
    case Op::AG:
    case Op::EG:
      return temporal(f.op, f.bound, evaluate(f.lhs), SatSet(n));
    case Op::AU:
    case Op::EU:
      return temporal(f.op, f.bound, evaluate(f.lhs), evaluate(f.rhs));
  }
  throw std::logic_error("Checker::evaluate: unknown operator");
}

bool Checker::holds(const FormulaPtr& f) {
  const SatSet& sat = evaluate(f);
  for (StateId q : g_.initialStates()) {
    if (!sat[q]) return false;
  }
  return true;
}

}  // namespace mui::ctl
