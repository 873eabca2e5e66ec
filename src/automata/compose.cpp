#include "automata/compose.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace mui::automata {

Interaction Product::projectInteraction(const Interaction& x,
                                        std::size_t k) const {
  return {x.in & componentInputs[k], x.out & componentOutputs[k]};
}

Run Product::projectRun(const Run& run, std::size_t k) const {
  Run out;
  out.deadlock = run.deadlock;
  out.states.reserve(run.states.size());
  for (StateId p : run.states) out.states.push_back(origins[p][k]);
  out.labels.reserve(run.labels.size());
  for (const auto& l : run.labels) out.labels.push_back(projectInteraction(l, k));
  return out;
}

std::string Product::renderRun(const Run& run) const {
  const SignalTable& sig = *automaton.signalTable();
  std::string out;
  // Two lines of roughly 16 chars per component and step is a good first
  // guess; appending in place below avoids the per-step temporaries.
  out.reserve(run.states.size() * componentNames.size() * 32 + 16);
  const auto appendStateLine = [&](StateId p) {
    for (std::size_t k = 0; k < componentNames.size(); ++k) {
      if (k) out += ", ";
      out += componentNames[k];
      out += '.';
      out += componentStateNames[k][origins[p][k]];
    }
  };
  const auto appendInteractionLine = [&](const Interaction& x) {
    const std::size_t start = out.size();
    const auto add = [&](std::size_t k, const std::string& n, char dir) {
      if (out.size() != start) out += ", ";
      out += componentNames[k];
      out += '.';
      out += n;
      out += dir;
    };
    (x.in | x.out).forEach([&](std::size_t s) {
      const std::string& n = sig.name(static_cast<util::NameId>(s));
      if (x.out.test(s)) {
        for (std::size_t k = 0; k < componentNames.size(); ++k) {
          if (componentOutputs[k].test(s)) add(k, n, '!');
        }
      }
      if (x.in.test(s)) {
        for (std::size_t k = 0; k < componentNames.size(); ++k) {
          if (componentInputs[k].test(s)) add(k, n, '?');
        }
      }
    });
    if (out.size() == start) out += "(idle)";
  };
  const std::size_t regularSteps =
      run.deadlock ? run.labels.size() - 1 : run.labels.size();
  for (std::size_t i = 0; i < regularSteps; ++i) {
    appendStateLine(run.states[i]);
    out += '\n';
    appendInteractionLine(run.labels[i]);
    out += '\n';
  }
  if (run.deadlock) {
    if (!run.labels.empty()) {
      appendStateLine(run.states.back());
      out += '\n';
      appendInteractionLine(run.labels.back());
      out += "  [blocked]\n";
    }
    out += "DEADLOCK\n";
  } else {
    appendStateLine(run.states.back());
    out += '\n';
  }
  return out;
}

namespace {

/// One step of the reference fold: a ‖ b by plain BFS, where `origins`
/// holds the flattened component states of a's states and is extended to
/// the product's.
Automaton composeStep(const Automaton& a, const Automaton& b,
                      std::vector<std::vector<StateId>>& origins) {
  if (a.signalTable() != b.signalTable() || a.propTable() != b.propTable()) {
    throw std::invalid_argument("compose: automata must share tables");
  }
  if (!a.composableWith(b)) {
    throw std::invalid_argument(
        "compose: not composable (I or O sets overlap)");
  }
  Automaton prod(a.signalTable(), a.propTable(),
                 a.name().empty() || b.name().empty()
                     ? a.name() + b.name()
                     : a.name() + "|" + b.name());
  prod.declareSignals(a.inputs() | b.inputs(), a.outputs() | b.outputs());

  std::vector<std::vector<StateId>> out;
  std::unordered_map<std::uint64_t, StateId> ids;
  std::deque<std::pair<StateId, StateId>> work;
  const auto ensure = [&](StateId sa, StateId sb) {
    const std::uint64_t key = (std::uint64_t{sa} << 32) | sb;
    const auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    const StateId id = prod.addState(a.stateName(sa) + "|" + b.stateName(sb));
    // Def. 3: L''((s, s')) = L(s) ∪ L'(s').
    prod.addLabels(id, a.labels(sa));
    prod.addLabels(id, b.labels(sb));
    ids.emplace(key, id);
    out.push_back(origins[sa]);
    out.back().push_back(sb);
    work.emplace_back(sa, sb);
    return id;
  };

  // Q'' = Q × Q'.
  for (StateId qa : a.initialStates()) {
    for (StateId qb : b.initialStates()) prod.markInitial(ensure(qa, qb));
  }
  while (!work.empty()) {
    const auto [sa, sb] = work.front();
    work.pop_front();
    const StateId from = ids.at((std::uint64_t{sa} << 32) | sb);
    for (const auto& ta : a.transitionsFrom(sa)) {
      for (const auto& tb : b.transitionsFrom(sb)) {
        // Matching condition of Def. 3, on the shared alphabet: what M reads
        // of M''s outputs must equal what M' writes into M's inputs (and
        // vice versa). For the paper's closed systems — every output wired
        // to a partner input — this is exactly (A ∩ O') = B' and
        // (A' ∩ O) = B; the restriction to the partner's input alphabet
        // additionally lets environment-facing outputs pass through
        // (DESIGN.md §6).
        if ((ta.label.in & b.outputs()) != (tb.label.out & a.inputs()) ||
            (tb.label.in & a.outputs()) != (ta.label.out & b.inputs())) {
          continue;
        }
        prod.addTransition(from,
                           {ta.label.in | tb.label.in,
                            ta.label.out | tb.label.out},
                           ensure(ta.to, tb.to));
      }
    }
  }
  origins = std::move(out);
  return prod;
}

}  // namespace

Product componentView(const std::vector<const Automaton*>& components) {
  Product p{Automaton(components.at(0)->signalTable(),
                      components[0]->propTable()),
            {}, {}, {}, {}, {}};
  for (const Automaton* c : components) {
    p.componentNames.push_back(c->name());
    auto& names = p.componentStateNames.emplace_back();
    names.reserve(c->stateCount());
    for (StateId s = 0; s < c->stateCount(); ++s) {
      names.push_back(c->stateName(s));
    }
    p.componentInputs.push_back(c->inputs());
    p.componentOutputs.push_back(c->outputs());
  }
  return p;
}

Product compose(const Automaton& a, const Automaton& b) {
  return explore({&a, &b}).materialize();
}

Product composeAll(const std::vector<const Automaton*>& components) {
  if (components.size() == 1) return flatten(*components[0]).materialize();
  return explore(components).materialize();
}

Product composeReference(const std::vector<const Automaton*>& components) {
  if (components.empty()) {
    throw std::invalid_argument("composeReference: no components");
  }
  Product p = componentView(components);
  p.automaton = *components[0];
  for (StateId s = 0; s < p.automaton.stateCount(); ++s) {
    p.origins.push_back({s});
  }
  for (std::size_t i = 1; i < components.size(); ++i) {
    p.automaton = composeStep(p.automaton, *components[i], p.origins);
  }
  return p;
}

}  // namespace mui::automata
