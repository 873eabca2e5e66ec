#include "automata/explorer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "automata/compose.hpp"
#include "obs/metrics.hpp"

namespace mui::automata {

namespace {

constexpr std::uint32_t kNone = TupleIndex::kNone;

std::size_t hashTuple(const std::uint32_t* key, std::size_t width) {
  std::size_t h = 0xcbf29ce484222325ull;  // FNV-1a over the words
  for (std::size_t i = 0; i < width; ++i) h = (h ^ key[i]) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

}  // namespace

std::uint32_t TupleIndex::find(const std::uint32_t* key, bool mayInsert,
                               bool& inserted) {
  inserted = false;
  const std::size_t count = size();
  if (2 * (count + 1) > slots_.size()) {  // keep the load factor <= 1/2
    std::vector<std::uint32_t> grown(
        std::max<std::size_t>(16, 2 * slots_.size()));
    for (std::uint32_t id = 0; id < count; ++id) {
      std::size_t i = hashTuple(this->key(id), width_) & (grown.size() - 1);
      while (grown[i] != 0) i = (i + 1) & (grown.size() - 1);
      grown[i] = id + 1;
    }
    slots_ = std::move(grown);
  }
  std::size_t i = hashTuple(key, width_) & (slots_.size() - 1);
  for (; slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
    const std::uint32_t id = slots_[i] - 1;
    if (std::equal(key, key + width_, this->key(id))) return id;
  }
  if (!mayInsert) return kNone;
  keys_.insert(keys_.end(), key, key + width_);
  slots_[i] = static_cast<std::uint32_t>(count + 1);
  inserted = true;
  return static_cast<std::uint32_t>(count);
}

/// The breadth-first search behind explore and flatten. Component states
/// are flattened on first expansion: their transitions' labels and wires
/// are interned.
class Exploration::Builder {
 public:
  Builder(Exploration& g, const std::vector<const Automaton*>& automata)
      : g_(g), n_(automata.size()), joints_(n_), wireIds_(n_ * n_),
        labelIds_(n_), componentLabels_(n_), tuple_(n_), target_(n_),
        pick_(n_), labels_(n_) {
    g.words_ = (automata[0]->propTable()->size() + 63) / 64;
    g.states_ = TupleIndex(n_);
    g.components_ = automata;
    for (const Automaton* a : automata) {
      g.parts_.push_back(
          {std::vector<std::uint32_t>(a->stateCount(), kNone), {}, {}, {}});
    }
  }

  /// Explores from `roots` (flat tuples, n per root state).
  void run(const std::vector<StateId>& roots, const ExploreLimits& limits) {
    limits_ = limits;
    for (std::size_t r = 0; r < roots.size(); r += n_) {  // all distinct
      const std::uint32_t id = addState(&roots[r], {kNone, 0});
      if (id != kNone) g_.initial_.push_back(id);
    }
    // States are numbered in discovery order, so the queue is the state
    // range itself. Joint transitions are enumerated with the first
    // component outermost, pruned on the pairwise wire ids.
    g_.head_.push_back(0);
    for (StateId cur = 0; cur < g_.stateCount(); ++cur) {
      std::copy_n(g_.states_.key(cur), n_, tuple_.begin());
      cur_ = cur;
      begin_ = g_.edges_.size();
      cut_ = false;
      expand(0);
      g_.head_.push_back(static_cast<std::uint32_t>(g_.edges_.size()));
      g_.expanded_.push_back(cut_ ? 0 : 1);
      if (!cut_ && g_.edges_.size() == begin_) {
        g_.deadlocks_.push_back(cur);
        if (g_.deadlocks_.size() == limits.stopAfterDeadlocks) break;
      }
    }
  }

 private:
  void expand(std::size_t k) {
    if (k == n_) {
      emit();
      return;
    }
    touch(k, tuple_[k]);
    const Part& part = g_.parts_[k];
    const std::uint32_t first = part.first[tuple_[k]];
    const std::size_t count = g_.component(k).transitionsFrom(tuple_[k]).size();
    for (std::uint32_t t = first; t < first + count; ++t) {
      bool ok = true;
      for (std::size_t j = 0; j < k && ok; ++j) {
        ok = part.wires[t * n_ + j] == g_.parts_[j].wires[pick_[j] * n_ + k];
      }
      if (!ok) continue;
      pick_[k] = t;
      expand(k + 1);
    }
  }

  void emit() {
    for (std::size_t k = 0; k < n_; ++k) {
      const Edge& t = g_.parts_[k].trans[pick_[k]];
      target_[k] = t.to;
      labels_[k] = t.label;
    }
    const std::uint32_t label = joint();
    const std::uint32_t to = addState(target_.data(), {cur_, label});
    if (to == kNone) {
      cut_ = true;
      return;
    }
    for (std::size_t k = 0; k < n_; ++k) g_.parts_[k].fired[pick_[k]] = 1;
    for (std::size_t e = begin_; e < g_.edges_.size(); ++e) {
      if (g_.edges_[e].to == to && g_.edges_[e].label == label) return;
    }
    g_.edges_.push_back({to, label});
  }

  /// Adds (or finds) a product state; kNone when the cap refuses it.
  std::uint32_t addState(const StateId* tuple, Edge parent) {
    bool fresh = false;
    const std::uint32_t id =
        g_.states_.find(tuple, g_.stateCount() < limits_.stateCap, fresh);
    if (id == kNone) {
      g_.capped_ = true;
    } else if (fresh) {
      // Def. 3: L''((s_0, …, s_k)) = L(s_0) ∪ … ∪ L(s_k).
      g_.labels_.resize(g_.labels_.size() + g_.words_, 0);
      std::uint64_t* words = g_.labels_.data() + std::size_t{id} * g_.words_;
      for (std::size_t k = 0; k < n_; ++k) {
        g_.component(k).labels(tuple[k]).forEach([&](std::size_t b) {
          words[b / 64] |= std::uint64_t{1} << (b % 64);
        });
      }
      g_.parents_.push_back(
          {parent.to == kNone ? id : parent.to, parent.label});
    }
    return id;
  }

  /// Flattens state s of component k unless done already.
  void touch(std::size_t k, StateId s) {
    Part& part = g_.parts_[k];
    if (part.first[s] != kNone) return;
    part.first[s] = static_cast<std::uint32_t>(part.trans.size());
    for (const Transition& t : g_.component(k).transitionsFrom(s)) {
      const auto [it, fresh] = labelIds_[k].try_emplace(
          t.label, static_cast<std::uint32_t>(labelIds_[k].size()));
      if (fresh) componentLabels_[k].push_back(&it->first);
      part.trans.push_back({t.to, it->second});
      part.fired.push_back(0);
      for (std::size_t j = 0; j < n_; ++j) {
        // The signals t exchanges with partner j: what it reads of j's
        // outputs plus what it writes into j's inputs. Def. 3 matches two
        // transitions iff these sets agree; composability keeps the two
        // directions disjoint, so one set per pair of components suffices.
        const Automaton& partner = g_.component(j);
        auto& ids = wireIds_[std::min(k, j) * n_ + std::max(k, j)];
        part.wires.push_back(
            j == k ? 0
                   : ids.try_emplace((t.label.in & partner.outputs()) |
                                         (t.label.out & partner.inputs()),
                                     static_cast<std::uint32_t>(ids.size()))
                         .first->second);
      }
    }
  }

  /// Interns the joint interaction of the picked component labels.
  std::uint32_t joint() {
    bool fresh = false;
    const std::uint32_t id = joints_.find(labels_.data(), true, fresh);
    if (fresh) {
      Interaction x;
      for (std::size_t k = 0; k < n_; ++k) {
        x.in |= componentLabels_[k][labels_[k]]->in;
        x.out |= componentLabels_[k][labels_[k]]->out;
      }
      g_.interactions_.push_back(std::move(x));
    }
    return id;
  }

  Exploration& g_;
  std::size_t n_;
  ExploreLimits limits_;
  TupleIndex joints_;  // per-component label ids -> joint interaction
  std::vector<std::unordered_map<SignalSet, std::uint32_t, util::DynBitsetHash>>
      wireIds_;  // per pair (i < j) at i * n + j
  std::vector<std::unordered_map<Interaction, std::uint32_t, InteractionHash>>
      labelIds_;
  std::vector<std::vector<const Interaction*>> componentLabels_;
  // The state being expanded and the transitions picked so far.
  std::vector<StateId> tuple_, target_;
  std::vector<std::uint32_t> pick_, labels_;
  StateId cur_ = 0;
  std::size_t begin_ = 0;
  bool cut_ = false;
};

Exploration explore(const std::vector<const Automaton*>& parts,
                    const ExploreLimits& limits) {
  if (parts.empty()) throw std::invalid_argument("explore: no components");
  const std::size_t n = parts.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (parts[i]->signalTable() != parts[0]->signalTable() ||
        parts[i]->propTable() != parts[0]->propTable()) {
      throw std::invalid_argument("compose: automata must share tables");
    }
    // Pairwise composability equals the fold's accumulated check because
    // the components' I (resp. O) sets are pairwise disjoint.
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!parts[i]->composableWith(*parts[j])) {
        throw std::invalid_argument(
            "compose: not composable (I or O sets overlap)");
      }
    }
  }
  // Q'' = Q_0 × … × Q_{n-1}, first component outermost.
  std::vector<StateId> roots, tuple(n);
  const auto seed = [&](const auto& self, std::size_t k) -> void {
    if (k == n) {
      roots.insert(roots.end(), tuple.begin(), tuple.end());
      return;
    }
    for (const StateId q : parts[k]->initialStates()) {
      tuple[k] = q;
      self(self, k + 1);
    }
  };
  seed(seed, 0);
  Exploration g;
  Exploration::Builder(g, parts).run(roots, limits);

  static obs::Counter& products = obs::Registry::global().counter(
      "mui_compose_products_total", "Product automata explored");
  static obs::Counter& states = obs::Registry::global().counter(
      "mui_compose_product_states_new_total", "Product states explored");
  static obs::Histogram& sizes = obs::Registry::global().histogram(
      "mui_compose_product_states", "States per product exploration",
      "states");
  products.inc();
  states.add(g.stateCount());
  sizes.observe(g.stateCount());
  return g;
}

Exploration flatten(const Automaton& a) {
  // Every state a root, in order: the numbering is the automaton's.
  std::vector<StateId> all(a.stateCount());
  std::iota(all.begin(), all.end(), StateId{0});
  Exploration g;
  Exploration::Builder(g, {&a}).run(all, {});
  g.initial_ = a.initialStates();
  g.breadthFirst_ = false;
  return g;
}

Run Exploration::runTo(StateId p) const {
  Run run;
  while (parents_[p].to != p) {
    run.states.push_back(p);
    run.labels.push_back(interactions_[parents_[p].label]);
    p = parents_[p].to;
  }
  run.states.push_back(p);
  std::reverse(run.states.begin(), run.states.end());
  std::reverse(run.labels.begin(), run.labels.end());
  return run;
}

bool Exploration::fired(std::size_t k, StateId s, std::size_t j) const {
  const Part& part = parts_[k];
  return part.first[s] != kNone && part.fired[part.first[s] + j];
}

std::string Exploration::stateName(StateId p) const {
  std::string out;
  for (std::size_t k = 0; k < components_.size(); ++k) {
    if (k) out += '|';
    out += component(k).stateName(origin(p)[k]);
  }
  return out;
}

std::string Exploration::renderRun(const Run& run) const {
  // Renders through a component view that holds just the run's states.
  Product view = componentView(components_);
  Run local = run;
  for (StateId& p : local.states) {
    view.origins.emplace_back(origin(p), origin(p) + components_.size());
    p = static_cast<StateId>(view.origins.size() - 1);
  }
  return view.renderRun(local);
}

Product Exploration::materialize() const {
  const std::size_t n = components_.size();
  Product p = componentView(components_);
  std::string name = p.componentNames[0];
  SignalSet ins = p.componentInputs[0], outs = p.componentOutputs[0];
  for (std::size_t k = 1; k < n; ++k) {
    const std::string& next = p.componentNames[k];
    name = name.empty() || next.empty() ? name + next : name + "|" + next;
    ins |= p.componentInputs[k];
    outs |= p.componentOutputs[k];
  }
  p.automaton =
      Automaton(component(0).signalTable(), propTable(), std::move(name));
  p.automaton.declareSignals(ins, outs);
  p.origins.reserve(stateCount());
  for (StateId s = 0; s < stateCount(); ++s) {
    const StateId id = p.automaton.addState(stateName(s));
    PropSet labels;
    for (std::size_t k = 0; k < n; ++k) {
      labels |= component(k).labels(origin(s)[k]);
    }
    p.automaton.addLabels(id, labels);
    p.origins.emplace_back(origin(s), origin(s) + n);
  }
  for (const StateId q : initial_) p.automaton.markInitial(q);
  for (StateId s = 0; s < stateCount(); ++s) {
    for (const Edge& e : edges(s)) {
      p.automaton.addTransition(s, interactions_[e.label], e.to);
    }
  }
  return p;
}

}  // namespace mui::automata
