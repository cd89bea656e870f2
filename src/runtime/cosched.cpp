#include "runtime/cosched.hpp"

#include <cstddef>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "runtime/error.hpp"
#include "sync/transport.hpp"
#include "util/cycles.hpp"

namespace splitsim::runtime {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Indexed binary min-heap of component indices keyed by (time, index).
/// Positions are tracked so a component's key can move in place.
class ActionHeap {
 public:
  explicit ActionHeap(std::size_t n) : key_(n, kSimTimeMax), pos_(n, kNone) { heap_.reserve(n); }

  bool empty() const { return heap_.empty(); }
  std::size_t top() const { return heap_.front(); }
  SimTime key(std::size_t i) const { return key_[i]; }
  bool contains(std::size_t i) const { return pos_[i] != kNone; }

  void push(std::size_t i, SimTime k) {
    key_[i] = k;
    pos_[i] = heap_.size();
    heap_.push_back(i);
    sift_up(pos_[i]);
  }

  void pop() {
    pos_[heap_.front()] = kNone;
    std::size_t last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    place(0, last);
    sift_down(0);
  }

  void update(std::size_t i, SimTime k) {
    SimTime old = key_[i];
    key_[i] = k;
    if (k < old) {
      sift_up(pos_[i]);
    } else {
      sift_down(pos_[i]);
    }
  }

 private:
  bool before(std::size_t a, std::size_t b) const {
    return key_[a] < key_[b] || (key_[a] == key_[b] && a < b);
  }

  void place(std::size_t p, std::size_t i) {
    heap_[p] = i;
    pos_[i] = p;
  }

  void sift_up(std::size_t p) {
    std::size_t i = heap_[p];
    while (p > 0) {
      std::size_t parent = (p - 1) / 2;
      if (!before(i, heap_[parent])) break;
      place(p, heap_[parent]);
      p = parent;
    }
    place(p, i);
  }

  void sift_down(std::size_t p) {
    std::size_t i = heap_[p];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * p + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], i)) break;
      place(p, heap_[child]);
      p = child;
    }
    place(p, i);
  }

  std::vector<std::size_t> heap_;
  std::vector<SimTime> key_;
  std::vector<std::size_t> pos_;
};

class CoscheduledRunner {
 public:
  explicit CoscheduledRunner(const std::vector<Component*>& comps)
      : comps_(comps), heap_(comps.size()) {
    // peers_[i][a]: index of the component owning the far end of component
    // i's adapter a, or kNone (unattached, or run by another process).
    std::unordered_map<const sync::ChannelEnd*, std::size_t> owner;
    for (std::size_t i = 0; i < comps_.size(); ++i) {
      for (auto& a : comps_[i]->adapters()) owner[&a->end()] = i;
    }
    peers_.resize(comps_.size());
    for (std::size_t i = 0; i < comps_.size(); ++i) {
      for (auto& a : comps_[i]->adapters()) {
        auto it = owner.find(&a->end().channel().other_end(a->end()));
        peers_[i].push_back(it != owner.end() ? it->second : kNone);
      }
    }
  }

  void run() {
    for (std::size_t i = 0; i < comps_.size(); ++i) heap_.push(i, comps_[i]->next_action_time());
    while (!heap_.empty()) {
      SimTime t = validated_top();
      std::size_t i = heap_.top();
      Component* c = comps_[i];
      heap_.pop();
      if (t > c->end_time()) {
        active_ = c;
        c->finish();
        continue;
      }
      SimTime second_t = validated_top();
      active_ = c;
      const auto& adapters = c->adapters();
      tx_before_.clear();
      for (auto& a : adapters) tx_before_.push_back(a->counters().tx_msgs);
      std::uint64_t b0 = rdcycles();
      SimTime next = t;
      bool ran = false;
      while (c->advance_once()) {
        ran = true;
        next = c->next_action_time();
        if (next > second_t) break;
      }
      c->add_busy_cycles((rdcycles() - b0) + drain_virtual_cycles());
      heap_.push(i, next);
      if (!ran) {
        // The earliest component is blocked (t <= end, so advance_once
        // refused because t > safe_bound()). With sync_interval <= latency
        // this cannot happen: its peer would have an earlier sync action.
        // A stale key elsewhere could hide that action, so only a fully
        // revalidated heap proves the deadlock.
        if (revalidate_all()) continue;
        throw_deadlock(c, t);
      }
      // Only a data send lowers a peer's key.
      for (std::size_t a = 0; a < adapters.size(); ++a) {
        std::size_t p = peers_[i][a];
        if (p != kNone && heap_.contains(p) && adapters[a]->counters().tx_msgs != tx_before_[a]) {
          heap_.update(p, comps_[p]->next_action_time());
        }
      }
    }
  }

  Component* active() const { return active_; }

 private:
  /// Pop-time check: recompute the top's key until it is current. Returns
  /// that key (kSimTimeMax for an empty heap).
  SimTime validated_top() {
    while (!heap_.empty()) {
      std::size_t j = heap_.top();
      SimTime k = comps_[j]->next_action_time();
      if (k == heap_.key(j)) return k;
      heap_.update(j, k);
    }
    return kSimTimeMax;
  }

  /// Recompute every queued key; true if any had gone stale.
  bool revalidate_all() {
    bool changed = false;
    for (std::size_t j = 0; j < comps_.size(); ++j) {
      if (!heap_.contains(j)) continue;
      SimTime k = comps_[j]->next_action_time();
      if (k != heap_.key(j)) {
        heap_.update(j, k);
        changed = true;
      }
    }
    return changed;
  }

  [[noreturn]] static void throw_deadlock(Component* c, SimTime t) {
    std::ostringstream os;
    os << "coscheduled: no runnable component; next action " << to_ns(t)
       << " ns beyond safe bound " << to_ns(c->safe_bound()) << " ns";
    if (sync::Adapter* lim = c->limiting_adapter()) {
      os << ", blocked on adapter '" << lim->name() << "'";
      if (!lim->peer_component().empty()) os << " toward '" << lim->peer_component() << "'";
    }
    os << " (is sync_interval <= latency and every channel end attached?)";
    throw SimulationError(ErrorKind::kDeadlock, c->name(), c->now(), os.str());
  }

  const std::vector<Component*>& comps_;
  std::vector<std::vector<std::size_t>> peers_;
  ActionHeap heap_;
  std::vector<std::uint64_t> tx_before_;  ///< tx_msgs per adapter before a batch loop
  Component* active_ = nullptr;           ///< attribution for escaping model errors
};

}  // namespace

void run_coscheduled(const std::vector<Component*>& components) {
  CoscheduledRunner r(components);
  try {
    r.run();
  } catch (const SimulationError&) {
    throw;
  } catch (const sync::TransportError& e) {
    Component* c = r.active();
    throw SimulationError(ErrorKind::kTransport, c != nullptr ? c->name() : "",
                          c != nullptr ? c->now() : 0, e.what());
  } catch (const std::exception& e) {
    Component* c = r.active();
    throw SimulationError(ErrorKind::kModelError, c != nullptr ? c->name() : "",
                          c != nullptr ? c->now() : 0, e.what());
  }
}

}  // namespace splitsim::runtime
