#pragma once
// Runs and traces (paper Def. 2 / Def. 7).
//
// A regular run is s1, A1/B1, s2, ... ; a deadlock run additionally ends with
// an interaction An/Bn that has no successor ("the last interaction was
// blocked"). We represent both with one struct:
//   - regular run:   states.size() == labels.size() + 1
//   - deadlock run:  states.size() == labels.size()  (last label blocked)

#include <cstdint>
#include <string>
#include <vector>

#include "automata/signals.hpp"

namespace mui::automata {

using StateId = std::uint32_t;

struct Run {
  std::vector<StateId> states;
  std::vector<Interaction> labels;
  bool deadlock = false;

  bool operator==(const Run&) const = default;

  [[nodiscard]] bool wellFormed() const {
    if (states.empty()) return false;
    return deadlock ? states.size() == labels.size()
                    : states.size() == labels.size() + 1;
  }

  /// Number of interaction steps (deadlocked final interaction included).
  [[nodiscard]] std::size_t length() const { return labels.size(); }
};

/// A run observed on the real legacy component via monitoring (paper
/// Listings 1.2/1.3/1.5): state *names* as reported by the probes plus the
/// performed interactions. Used as input to learning (Def. 11/12), where the
/// names are interned into the incomplete automaton's state set.
struct ObservedRun {
  std::vector<std::string> stateNames;
  std::vector<Interaction> labels;
  bool blocked = false;  // true: the final interaction was refused (Def. 12)

  [[nodiscard]] bool wellFormed() const {
    if (stateNames.empty()) return false;
    return blocked ? stateNames.size() == labels.size()
                   : stateNames.size() == labels.size() + 1;
  }
};

}  // namespace mui::automata
