#include "sync/channel.hpp"

#include "sync/digest.hpp"
#include "sync/wait.hpp"
#include "util/cycles.hpp"

namespace splitsim::sync {

Channel::Channel(std::string name, ChannelConfig cfg)
    : name_(std::move(name)), cfg_(cfg),
      transport_(std::make_unique<InProcTransport>(cfg.ring_capacity)) {
  end_a_.channel_ = this;
  end_a_.tx_spill_ = &a_spill_;
  end_a_.rx_spill_ = &b_spill_;
  end_a_.tx_spill_count_ = &a_spill_count_;
  end_a_.rx_spill_count_ = &b_spill_count_;
  end_b_.channel_ = this;
  end_b_.tx_spill_ = &b_spill_;
  end_b_.rx_spill_ = &a_spill_;
  end_b_.tx_spill_count_ = &b_spill_count_;
  end_b_.rx_spill_count_ = &a_spill_count_;
  rewire();
}

void Channel::rewire() {
  end_a_.tx_ = transport_->tx_ring(0);
  end_a_.rx_ = transport_->rx_ring(0);
  end_b_.tx_ = transport_->tx_ring(1);
  end_b_.rx_ = transport_->rx_ring(1);
  end_a_.transport_ = transport_.get();
  end_b_.transport_ = transport_.get();
  end_a_.side_ = 0;
  end_b_.side_ = 1;
  end_a_.direct_send_ = transport_->sends_direct(0);
  end_b_.direct_send_ = transport_->sends_direct(1);
  end_a_.wire_ = transport_->wire_counters();
  end_b_.wire_ = transport_->wire_counters();
  if (transport_->forces_blocking()) mode_ = ChannelMode::kBlocking;
}

void Channel::set_transport(std::unique_ptr<Transport> t) {
  assert(t != nullptr);
  transport_ = std::move(t);
  rewire();
}

const ChannelConfig& ChannelEnd::config() const { return channel_->cfg_; }
const std::string& ChannelEnd::channel_name() const { return channel_->name_; }

bool ChannelEnd::push_with_backpressure(const Message& msg, std::uint64_t& spin_cycles) {
  if (channel_->mode_ == ChannelMode::kSpillLocked) {
    // Never wait for ring space. FIFO is preserved by the invariant that
    // every ring message is older than every spill message: we only push to
    // the ring after observing an empty spill (acquire on the count pairs
    // with the consumer's release decrement, so all older spilled messages
    // were already consumed).
    if (tx_spill_count_->load(std::memory_order_acquire) == 0 && tx_->try_push(msg)) {
      return true;
    }
    {
      // Count under the lock: a consumer that sees a spilled message (and
      // notes its timestamp into the horizon) must also see it counted, or
      // peek() would find the spill "empty" and the horizon would pass a
      // message it cannot see yet.
      std::lock_guard<std::mutex> g(channel_->spill_mu_);
      tx_spill_->push_back(msg);
      tx_spill_count_->fetch_add(1, std::memory_order_release);
    }
    tx_stalls_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (direct_send_) {
    // Socket-style transport: the frame write itself blocks on the kernel
    // buffer, so that *is* the backpressure. Throws TransportError when the
    // peer is gone; the runner attributes it as a transport failure.
    transport_->send_direct(side_, msg);
    return true;
  }
  if (tx_->try_push(msg)) return true;
  // A SYNC only raises the peer's horizon, so it is dropped rather than
  // waited for: the peer may itself be blocked sending data to us, and
  // neither would ever drain the other's ring.
  if (msg.is_sync()) return false;
  tx_stalls_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t start = rdcycles();
  WaitState wait;
  while (!tx_->try_push(msg)) {
    // If the run is aborting, the consumer may already be gone — waiting for
    // ring space would hang this thread forever.
    if (channel_->abort_ != nullptr && channel_->abort_->load(std::memory_order_relaxed)) {
      throw AbortedError(channel_->name_);
    }
    // Heap rings: adaptive spin/yield/park. Shm rings: futex-park on the
    // segment so a cross-process producer sleeps until the consumer pops.
    tx_->producer_wait_step(wait);
  }
  spin_cycles += rdcycles() - start;
  return true;
}

std::uint64_t ChannelEnd::send(Message msg) {
  // Data messages carry strictly increasing timestamps: that is what makes
  // the receive horizon (last_recv + latency) safe to advance to
  // *inclusively*. The 1 ps bump for same-time data is far below any
  // modeled latency. SYNC/FIN only move the horizon, so they may *tie*
  // with the current wire timestamp instead of bumping past it: a bumped
  // sync would fold the wall-clock-dependent placement of null messages
  // into last_sent_ and from there into later data timestamps, breaking
  // cross-mode determinism. With the tie rule, data bumps depend only on
  // earlier data, which is identical in every run mode.
  if (msg.is_sync() || msg.is_fin()) {
    if (sent_anything_ && msg.timestamp < last_sent_) msg.timestamp = last_sent_;
  } else {
    if (sent_data_ && msg.timestamp <= last_data_sent_) {
      msg.timestamp = last_data_sent_ + 1;
    }
    // Promise discipline (nulls are emitted only while every pending local
    // action lies strictly beyond the promise) keeps data ahead of the
    // wire timestamp; the receiver's inclusive horizon depends on it.
    assert(!sent_anything_ || msg.timestamp > last_sent_);
    last_data_sent_ = msg.timestamp;
    sent_data_ = true;
    if (ckpt_window_enabled_) {
      ckpt_window_.push_back({msg.timestamp, hash_event(ckpt_channel_hash_, msg)});
    }
  }
  std::uint64_t spin = 0;
  if (!push_with_backpressure(msg, spin)) return 0;  // dropped SYNC: promise stays open
  if (msg.timestamp > last_sent_) last_sent_ = msg.timestamp;
  sent_anything_ = true;
  if (wire_ != nullptr) {
    // Cross-process transport: account the frame we just put on the wire
    // (relaxed bumps on a cached pointer — inproc channels never pay this).
    wire_->tx_frames.fetch_add(1, std::memory_order_relaxed);
    wire_->tx_bytes.fetch_add(wire_->fixed_frame_bytes != 0
                                  ? wire_->fixed_frame_bytes
                                  : wire_->frame_overhead + msg.size,
                              std::memory_order_relaxed);
    if (msg.is_sync()) {
      wire_->tx_syncs.fetch_add(1, std::memory_order_relaxed);
    } else if (!msg.is_fin()) {
      wire_->tx_datas.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return spin;
}

void ChannelEnd::enable_ckpt_window() {
  ckpt_window_enabled_ = true;
  ckpt_channel_hash_ = fnv1a(channel_->name_);
}

ChannelEnd::InflightSummary ChannelEnd::inflight_at(SimTime boundary) {
  // Entries at or before the boundary are already delivered (they are in
  // the peer's digest); boundaries are queried in non-decreasing order, so
  // they can go for good. What remains is timestamp-sorted (data-send
  // monotonicity), so the in-flight range is a prefix.
  while (!ckpt_window_.empty() && ckpt_window_.front().ts <= boundary) {
    ckpt_window_.pop_front();
  }
  InflightSummary s;
  const SimTime limit = boundary + config().latency;
  for (const CkptSend& e : ckpt_window_) {
    if (e.ts > limit) break;
    s.fold ^= e.hash;
    ++s.count;
  }
  return s;
}

const Message* ChannelEnd::spill_front(bool& from_spill) {
  if (rx_spill_count_->load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard<std::mutex> g(channel_->spill_mu_);
  if (rx_spill_->empty()) return nullptr;
  from_spill = true;
  // Safe to use after unlocking: deque references are stable under
  // push_back, and only this consumer ever pops.
  return &rx_spill_->front();
}

void ChannelEnd::spill_pop() {
  {
    std::lock_guard<std::mutex> g(channel_->spill_mu_);
    rx_spill_->pop_front();
  }
  rx_spill_count_->fetch_sub(1, std::memory_order_release);
}

const Message* ChannelEnd::peek() {
  for (;;) {
    const Message* m = rx_->front();
    bool from_spill = false;
    if (m == nullptr) {
      m = spill_front(from_spill);
      if (from_spill) {
        // The spill-count acquire synchronized with the producer's release,
        // so ring pushes that preceded the spill are visible now even if the
        // front() above raced with them. Any ring message predates every
        // spilled one (the producer only pushes the ring after observing an
        // empty spill), so the ring must win to preserve FIFO.
        const Message* r = rx_->front();
        if (r != nullptr) {
          m = r;
          from_spill = false;
        }
      }
    }
    if (m == nullptr) return nullptr;
    note_received(m->timestamp);
    if (m->is_sync() || m->is_fin()) {
      if (m->is_fin()) fin_received_ = true;
      if (from_spill) {
        spill_pop();
      } else {
        rx_->pop();
      }
      continue;  // syncs only move the horizon
    }
    peeked_from_spill_ = from_spill;
    return m;
  }
}

void ChannelEnd::consume() {
  if (peeked_from_spill_) {
    spill_pop();
    peeked_from_spill_ = false;
  } else {
    rx_->pop();
  }
}

}  // namespace splitsim::sync
