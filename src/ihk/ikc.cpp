#include "ihk/ikc.h"

#include "common/check.h"

namespace hpcos::ihk {

IkcMessage take_front(std::vector<IkcMessage>& fifo, std::size_t& head) {
  HPCOS_CHECK_MSG(head < fifo.size(), "take_front on an empty FIFO");
  IkcMessage front = std::move(fifo[head]);
  if (++head == fifo.size()) {
    fifo.clear();
    head = 0;
  } else if (head >= 64 && 2 * head >= fifo.size()) {
    fifo.erase(fifo.begin(),
               fifo.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return front;
}

IkcChannel::IkcChannel(sim::Simulator& simulator, std::string name,
                       SimTime latency)
    : sim_(simulator), name_(std::move(name)), latency_(latency) {
  HPCOS_CHECK(!latency_.is_negative());
}

void IkcChannel::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    posted_counter_ = nullptr;
    delivered_counter_ = nullptr;
    inflight_hist_ = nullptr;
    return;
  }
  posted_counter_ = registry->counter("ikc." + name_ + ".posted");
  delivered_counter_ = registry->counter("ikc." + name_ + ".delivered");
  inflight_hist_ = registry->histogram("ikc." + name_ + ".inflight",
                                       /*min_value=*/1.0,
                                       /*max_value=*/4096.0, /*num_bins=*/32);
}

void IkcChannel::post(IkcMessage message) {
  HPCOS_CHECK_MSG(receiver_ != nullptr,
                  "IKC post on channel without a receiver");
  message.seq = next_seq_++;
  message.sent_at = sim_.now();
  ++posted_;
  obs::bump(posted_counter_);
  // Queue depth the new message observes (itself included).
  obs::observe(inflight_hist_, static_cast<double>(posted_ - delivered_));
  inflight_.push_back(std::move(message));
  sim_.schedule_after(
      latency_,
      [this] {
        // Taken out before the receiver runs: it may post on this channel.
        const IkcMessage msg = take_front(inflight_, inflight_head_);
        HPCOS_CHECK_MSG(msg.sent_at + latency_ == sim_.now(),
                        "IKC delivery out of post order");
        ++delivered_;
        obs::bump(delivered_counter_);
        receiver_(msg);
      },
      "ikc.deliver");
}

}  // namespace hpcos::ihk
