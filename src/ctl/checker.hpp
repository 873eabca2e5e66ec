#pragma once
// Explicit-state CCTL model checker over the discrete-time automaton model —
// the RAVEN-replacing substrate (DESIGN.md §2). It reads a product straight
// from automata::explore; a plain Automaton is read through
// automata::flatten.
//
// Evaluation computes the satisfaction set of every subformula over all
// states; the verdict is taken over the initial states. Maximal paths may be
// finite (ending in a deadlock state); see formula.hpp for the resulting
// weak bounded semantics. One transition = one time unit, so bounds count
// transitions.
//
// The unbounded fixpoints run as worklist algorithms over a precomputed
// predecessor index (CSR over the duplicate-free edge set): least fixpoints
// propagate satisfaction backwards from the seed set, universal operators
// keep a pending-successor counter per state, greatest fixpoints delete
// states whose continuation died. Every edge is visited a constant number of
// times, so each operator costs O(S + E) instead of the O(S · diameter)
// Gauss–Seidel sweeps of the retained reference implementation
// (ctl/reference.hpp). Satisfaction sets are dense bitsets (one bit per
// state, word-parallel boolean connectives).
//
// A bounded operator over [lo, hi] is, at window position lo, the operator
// over [0, hi − lo]; that set is one distance labelling over the same index
// (longest distance to the target for AF/AU, shortest for EF/EU, AG and EG
// through their duals), so the window costs O(S + E) whatever hi is. Only
// the lo positions before the window are swept one by one. Every formula
// node is evaluated once per checker (satisfaction sets are memoized).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "automata/explorer.hpp"
#include "ctl/formula.hpp"
#include "util/bitset.hpp"

namespace mui::ctl {

using automata::Automaton;
using automata::Exploration;
using automata::StateId;

/// Per-state satisfaction set: bit s = "state s satisfies the formula".
using SatSet = util::DenseBitset;

class Checker {
 public:
  /// The exploration (or automaton) must outlive the checker. A partial
  /// exploration's unexpanded states are never deadlock states.
  explicit Checker(const Exploration& g);
  explicit Checker(const Automaton& m);

  /// Satisfaction set (per state) of `f`, computed once per formula node;
  /// the reference stays valid for the checker's lifetime.
  const SatSet& evaluate(const FormulaPtr& f);

  /// AF[b] χ seen from every position of its window: holds(s, j) answers
  /// whether s satisfies AF[lo − j, hi − j] χ (lower end clamped at 0), the
  /// obligation left after j steps. One labelling (one fixpoint if
  /// unbounded) plus lo sweeps answer every position; the counterexample
  /// generator walks its ¬AF witnesses along it.
  class AFWindow {
   public:
    [[nodiscard]] bool holds(StateId s, std::size_t j) const;

   private:
    friend class Checker;
    Bound bound_;
    std::vector<SatSet> before_;       // positions 0 .. lo-1
    std::vector<std::uint32_t> dist_;  // bounded: positions lo .. hi
    SatSet fixpoint_;                  // unbounded: positions lo ..
  };
  AFWindow afWindow(const FormulaPtr& chi, const Bound& b);

  /// True iff every initial state satisfies `f`.
  bool holds(const FormulaPtr& f);

  /// δ per state: no outgoing transition.
  [[nodiscard]] bool isDeadlockState(StateId s) const {
    return deadlock_[s];
  }

  /// All deadlock states at once (counterexample search targets this set).
  [[nodiscard]] const SatSet& deadlockSet() const { return deadlock_; }

  /// Atoms that named no proposition of the model (treated as false);
  /// surfaced so property typos do not silently verify.
  [[nodiscard]] const std::vector<std::string>& unknownAtoms() const {
    return unknownAtoms_;
  }

 private:
  void buildIndex();
  SatSet compute(const Formula& f);
  SatSet atomSat(const std::string& name);

  // Unbounded fixpoints (worklist, O(S + E) each); EF, EU and AG go through
  // the shortest distance (see fixpoint).
  SatSet fixAF(const SatSet& phi);
  SatSet fixEG(const SatSet& phi);
  SatSet fixAU(const SatSet& phi, const SatSet& psi);

  SatSet fixpoint(Op op, const SatSet& phi, const SatSet& psi);

  // Distance labellings (see checker.cpp); states outside `via` (if given)
  // are never entered.
  std::vector<std::uint32_t> longestDistance(const SatSet& target,
                                             const SatSet* via);
  std::vector<std::uint32_t> shortestDistance(const SatSet& target,
                                              const SatSet* via);

  // Bounded / lower-bounded evaluation; see checker.cpp.
  SatSet temporal(Op op, const Bound& b, const SatSet& phi,
                  const SatSet& psi);
  SatSet windowStart(Op op, std::size_t budget, const SatSet& phi,
                     const SatSet& psi);
  SatSet stepBack(Op op, const SatSet& phi, const SatSet& next) const;

  // CSR slices over the duplicate-free successor/predecessor lists.
  [[nodiscard]] std::size_t outDegree(StateId s) const {
    return succHead_[s + 1] - succHead_[s];
  }
  template <typename F>
  void forSucc(StateId s, F&& f) const {
    for (std::uint32_t i = succHead_[s]; i < succHead_[s + 1]; ++i) {
      f(succList_[i]);
    }
  }
  template <typename F>
  void forPred(StateId s, F&& f) const {
    for (std::uint32_t i = predHead_[s]; i < predHead_[s + 1]; ++i) {
      f(predList_[i]);
    }
  }

  std::shared_ptr<const Exploration> owned_;  // flattened Automaton input
  const Exploration& g_;
  // Duplicate-free edge set in CSR form, forwards and backwards.
  std::vector<std::uint32_t> succHead_;  // size n+1
  std::vector<StateId> succList_;
  std::vector<std::uint32_t> predHead_;  // size n+1
  std::vector<StateId> predList_;
  SatSet deadlock_;
  std::vector<std::string> unknownAtoms_;
  std::unordered_set<std::string> unknownAtomSet_;
  std::unordered_map<FormulaPtr, SatSet> memo_;  // per formula node
};

}  // namespace mui::ctl
