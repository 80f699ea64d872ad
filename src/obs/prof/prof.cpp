#include "obs/prof/prof.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace hpcos::obs::prof {

// One distinct scope path on one thread. The structure is fixed at
// creation except for the child links, which only the owning thread
// reads or writes; the counters are stored only by the owning thread
// and loaded by collect().
struct ContextNode {
  ContextNode(ScopeId scope, ContextNode* up, std::size_t pos)
      : id(scope), parent(up), index(pos) {}

  const ScopeId id;
  ContextNode* const parent;  // null at the thread's root
  const std::size_t index;    // position in Tree::nodes
  ContextNode* first_child = nullptr;
  ContextNode* next_sibling = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> total_ns{0};
};

namespace {

// A thread's calling-context tree. nodes[0] is the root, which no scope
// owns; every other node is created after its parent, so a parent's
// index is always below its children's.
struct Tree {
  Tree() { nodes.emplace_back(ScopeId{0}, nullptr, 0); }

  std::mutex mutex;               // node creation vs. collect() / reset()
  std::deque<ContextNode> nodes;  // emplace_back never moves a node
};

// Immortal global state (leaked on purpose: scheduler worker threads may
// record during static destruction of the main thread's objects).
struct State {
  std::mutex mutex;
  std::vector<std::string> names;                // ScopeId -> name
  std::unordered_map<std::string, ScopeId> ids;  // name -> ScopeId
  std::vector<std::unique_ptr<Tree>> trees;      // registration order
  std::atomic<bool> enabled{false};
};

State& state() {
  static State* s = new State;
  return *s;
}

thread_local Tree* tl_tree = nullptr;
thread_local ContextNode* tl_cursor = nullptr;

// Move the calling thread's cursor to the child of the current node for
// `id`, registering the thread's tree and creating the node on first use.
ContextNode* enter(ScopeId id) {
  if (tl_cursor == nullptr) {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.trees.push_back(std::make_unique<Tree>());
    tl_tree = s.trees.back().get();
    tl_cursor = &tl_tree->nodes.front();
  }
  ContextNode* const parent = tl_cursor;
  ContextNode* child = parent->first_child;
  while (child != nullptr && child->id != id) child = child->next_sibling;
  if (child == nullptr) {
    std::lock_guard<std::mutex> lock(tl_tree->mutex);
    child = &tl_tree->nodes.emplace_back(id, parent, tl_tree->nodes.size());
    child->next_sibling = parent->first_child;
    parent->first_child = child;
  }
  tl_cursor = child;
  return child;
}

// Single-writer accumulate: a relaxed load and store, no RMW.
template <typename T>
void add(std::atomic<T>& counter, T value) {
  counter.store(counter.load(std::memory_order_relaxed) + value,
                std::memory_order_relaxed);
}

}  // namespace

ScopeId intern(const std::string& name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.ids.find(name);
  if (it != s.ids.end()) return it->second;
  const auto id = static_cast<ScopeId>(s.names.size());
  s.names.push_back(name);
  s.ids.emplace(name, id);
  return id;
}

std::string scope_name(ScopeId id) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return id < s.names.size() ? s.names[id] : std::string("<unknown>");
}

bool enabled() { return state().enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& tree : s.trees) {
    std::lock_guard<std::mutex> tree_lock(tree->mutex);
    for (ContextNode& node : tree->nodes) {
      node.count.store(0, std::memory_order_relaxed);
      node.total_ns.store(0, std::memory_order_relaxed);
    }
  }
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

ScopedTimer::ScopedTimer(ScopeId id) {
  if (!enabled()) return;
  node_ = enter(id);
  start_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (node_ == nullptr) return;
  const std::int64_t elapsed = now_ns() - start_;
  add<std::uint64_t>(node_->count, 1);
  add(node_->total_ns, elapsed);
  tl_cursor = node_->parent;
}

const ScopeStat* Profile::find(const std::string& name) const {
  for (const auto& s : scopes) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::int64_t Profile::sum_self_ns() const {
  std::int64_t sum = 0;
  for (const auto& s : scopes) sum += s.self_ns;
  return sum;
}

std::string Profile::folded_text() const {
  std::string out;
  for (const auto& [path, value] : folded) {
    out += path;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

Profile collect() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto name_of = [&s](ScopeId id) {
    return id < s.names.size() ? s.names[id] : std::string("<unknown>");
  };

  // Name- and path-keyed maps: aggregation order does not affect integer
  // sums, and sorted keys make the output deterministic.
  std::map<std::string, ScopeStat> by_name;
  std::map<std::string, std::int64_t> folded;

  Profile profile;
  for (const auto& tree : s.trees) {
    std::lock_guard<std::mutex> tree_lock(tree->mutex);
    const std::size_t n = tree->nodes.size();
    std::vector<std::uint64_t> count(n);
    std::vector<std::int64_t> total(n);
    std::vector<std::int64_t> self(n);  // total − Σ child totals
    for (std::size_t i = 1; i < n; ++i) {
      const ContextNode& node = tree->nodes[i];
      count[i] = node.count.load(std::memory_order_relaxed);
      total[i] = node.total_ns.load(std::memory_order_relaxed);
      self[i] += total[i];
      self[node.parent->index] -= total[i];
    }

    // Parents precede children, so one forward pass builds every path.
    std::vector<std::string> paths(n);
    std::uint64_t events = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const ContextNode& node = tree->nodes[i];
      std::string name = name_of(node.id);
      std::string clean = name;
      std::replace(clean.begin(), clean.end(), ';', ':');
      paths[i] = node.parent->index == 0
                     ? clean
                     : paths[node.parent->index] + ";" + clean;
      if (count[i] == 0) continue;
      events += count[i];
      if (node.parent->index == 0) profile.root_total_ns += total[i];
      const std::int64_t node_self = std::max<std::int64_t>(self[i], 0);
      ScopeStat& stat = by_name[name];
      stat.count += count[i];
      stat.total_ns += total[i];
      stat.self_ns += node_self;
      if (node_self > 0) folded[paths[i]] += node_self;
    }
    if (events > 0) ++profile.threads;
    profile.events += events;
  }

  profile.scopes.reserve(by_name.size());
  for (auto& [name, stat] : by_name) {
    stat.name = name;
    profile.scopes.push_back(std::move(stat));
  }
  std::sort(profile.scopes.begin(), profile.scopes.end(),
            [](const ScopeStat& a, const ScopeStat& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  profile.folded.assign(folded.begin(), folded.end());
  return profile;
}

}  // namespace hpcos::obs::prof
