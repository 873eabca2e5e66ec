#pragma once
// Shared helpers for the MUI test suite.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>

#include "automata/automaton.hpp"
#include "automata/signals.hpp"

namespace mui::test {

struct Tables {
  automata::SignalTableRef signals = std::make_shared<automata::SignalTable>();
  automata::SignalTableRef props = std::make_shared<automata::SignalTable>();
};

/// Interns every name and returns the resulting set.
inline automata::SignalSet sigs(automata::SignalTable& table,
                                std::initializer_list<const char*> names) {
  automata::SignalSet out;
  for (const char* n : names) out.set(table.intern(n));
  return out;
}

/// Builds an interaction from input/output signal names.
inline automata::Interaction ia(automata::SignalTable& table,
                                std::initializer_list<const char*> in,
                                std::initializer_list<const char*> out) {
  return {sigs(table, in), sigs(table, out)};
}

/// The idle step (∅, ∅).
inline automata::Interaction idle() { return {}; }

/// 64-bit FNV-1a of `text`: pins rendered runs and satisfaction sets.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace mui::test
