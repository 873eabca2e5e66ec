#pragma once
// The explicit-state explorer of the synchronous product M_0 ‖ … ‖ M_{n-1}
// (paper Def. 3). It is the one production implementation of Def. 3: the
// model checker reads its output directly (ctl::Checker, ctl::verify), the
// refinement loop checks deadlock freedom on the fly with it, the semantic
// pre-solve explores with its state cap, and compose/composeAll materialize
// it as a Product.
//
// Each component is flattened once per exploration, state by state as the
// search first expands it: every transition gets an interned label id and,
// per partner, the interned id of the signals it exchanges with that
// partner, so the matching condition of Def. 3 is an integer compare.
// Product states are flat origin tuples behind an open-addressing index,
// numbered in breadth-first discovery order. Successors are CSR edges
// (target, interned joint interaction), duplicate-free per state in
// first-occurrence order, exactly as Automaton::addTransition keeps them.
// Labels are flat words, every state keeps its BFS parent edge, and
// "a|b|c" state names are rendered only when asked.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "automata/automaton.hpp"

namespace mui::automata {

struct Product;

struct ExploreLimits {
  /// At most this many product states. A state with a successor cut by the
  /// cap stays unexpanded, so it is never taken for a deadlock.
  std::size_t stateCap = std::numeric_limits<std::size_t>::max();
  /// Stop once this many deadlock states are expanded (0: explore in full).
  std::size_t stopAfterDeadlocks = 0;
};

/// Open-addressing index of fixed-width uint32 tuples, numbered in
/// insertion order; the tuples themselves are stored flat.
class TupleIndex {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  explicit TupleIndex(std::size_t width = 1) : width_(width) {}

  /// Id of `key`, inserting it when absent and `mayInsert`; kNone when it is
  /// absent and may not be inserted. `inserted` reports a fresh insertion.
  std::uint32_t find(const std::uint32_t* key, bool mayInsert, bool& inserted);

  [[nodiscard]] const std::uint32_t* key(std::uint32_t id) const {
    return keys_.data() + std::size_t{id} * width_;
  }
  [[nodiscard]] std::size_t size() const { return keys_.size() / width_; }

 private:
  std::size_t width_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> slots_;  // id + 1; 0 marks an empty slot
};

/// A (possibly partial) exploration of a product, or of one automaton
/// through flatten(). Component automata must outlive it.
class Exploration {
 public:
  struct Edge {
    StateId to;
    std::uint32_t label;  // interaction(label) is the joint interaction
  };

  [[nodiscard]] std::size_t stateCount() const { return states_.size(); }
  [[nodiscard]] const Automaton& component(std::size_t k) const {
    return *components_[k];
  }
  /// Component states of product state p, one per component.
  [[nodiscard]] const StateId* origin(StateId p) const {
    return states_.key(p);
  }
  /// Successors of p; empty for a state the search has not expanded.
  [[nodiscard]] std::span<const Edge> edges(StateId p) const {
    if (std::size_t{p} + 1 >= head_.size()) return {};
    return {edges_.data() + head_[p], edges_.data() + head_[p + 1]};
  }
  [[nodiscard]] const Interaction& interaction(std::uint32_t id) const {
    return interactions_[id];
  }
  [[nodiscard]] const std::vector<StateId>& initialStates() const {
    return initial_;
  }
  [[nodiscard]] bool hasLabel(StateId p, std::size_t prop) const {
    return prop / 64 < words_ &&
           (labels_[p * words_ + prop / 64] >> (prop % 64)) & 1u;
  }
  /// Expanded: every successor of p is known (not cut by the cap, not left
  /// behind by an early stop).
  [[nodiscard]] bool expanded(StateId p) const {
    return p < expanded_.size() && expanded_[p];
  }
  [[nodiscard]] bool capped() const { return capped_; }
  /// Expanded states without successors, in BFS order.
  [[nodiscard]] const std::vector<StateId>& deadlocks() const {
    return deadlocks_;
  }
  /// States numbered breadth-first from the initial states (explore), so
  /// runTo gives shortest runs; false for flatten.
  [[nodiscard]] bool breadthFirst() const { return breadthFirst_; }
  /// The BFS parent-tree run from an initial state to p: a shortest one.
  [[nodiscard]] Run runTo(StateId p) const;
  /// Whether transition j of component k's state s fired in some explored
  /// product step whose target was kept.
  [[nodiscard]] bool fired(std::size_t k, StateId s, std::size_t j) const;

  /// "a|b|c": the component state names of p.
  [[nodiscard]] std::string stateName(StateId p) const;
  [[nodiscard]] const SignalTableRef& propTable() const {
    return component(0).propTable();
  }

  /// (A ∩ I_k, B ∩ O_k): the share of component k in a joint interaction.
  [[nodiscard]] Interaction projectInteraction(const Interaction& x,
                                               std::size_t k) const {
    return {x.in & component(k).inputs(), x.out & component(k).outputs()};
  }
  /// Listing 1.1 rendering, through Product::renderRun.
  [[nodiscard]] std::string renderRun(const Run& run) const;

  /// The explored states as a Product (automaton plus component views).
  [[nodiscard]] Product materialize() const;

 private:
  friend Exploration explore(const std::vector<const Automaton*>&,
                             const ExploreLimits&);
  friend Exploration flatten(const Automaton&);
  class Builder;

  /// One component, flattened state by state.
  struct Part {
    std::vector<std::uint32_t> first;  // state -> index of its first
                                       // transition; kNone: not flattened
    std::vector<Edge> trans;           // (target, component label id)
    std::vector<std::uint32_t> wires;  // per transition, one id per partner
    std::vector<char> fired;           // per transition
  };

  std::vector<const Automaton*> components_;
  std::vector<Part> parts_;
  std::size_t words_ = 0;
  TupleIndex states_;
  std::vector<std::uint64_t> labels_;  // words_ per state
  std::vector<Edge> parents_;          // (parent state, joint label); a root
                                       // is its own parent
  std::vector<std::uint32_t> head_;    // CSR offsets of expanded states
  std::vector<Edge> edges_;
  std::vector<Interaction> interactions_;
  std::vector<char> expanded_;
  std::vector<StateId> initial_;
  std::vector<StateId> deadlocks_;
  bool capped_ = false;
  bool breadthFirst_ = true;
};

/// Explores ‖ parts breadth-first from Q_0 × … × Q_{n-1}, enumerating joint
/// transitions with the first component outermost. Throws
/// std::invalid_argument for no components, components over different
/// tables, or components that are not pairwise composable.
Exploration explore(const std::vector<const Automaton*>& parts,
                    const ExploreLimits& limits = {});

/// One automaton in the same form, every state kept and numbered as in the
/// automaton: how Automaton callers reach the checker.
Exploration flatten(const Automaton& a);

}  // namespace mui::automata
