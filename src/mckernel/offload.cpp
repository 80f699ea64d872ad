#include "mckernel/offload.h"

#include "common/fifo.h"

namespace hpcos::mck {

void ProxyBody::step(os::ThreadContext& ctx) {
  if (phase_ == Phase::kExecuted) {
    // The host kernel just completed the delegated call.
    ihk::IkcMessage reply = std::move(*current_);
    current_.reset();
    reply.result = ctx.last_syscall();
    offloader_.send_reply(std::move(reply));
  }
  if (backlog() == 0) {
    phase_ = Phase::kParked;
    parked_ = true;
    ctx.invoke(os::Syscall::kFutex, os::SyscallArgs{.arg0 = 0});
    return;
  }
  parked_ = false;
  current_ = take_front(queue_, queue_head_);
  phase_ = Phase::kExecuted;
  current_->proxy_start = offloader_.now();
  ctx.invoke(current_->request.no, current_->request.args);
}

SyscallOffloader::SyscallOffloader(McKernel& lwk, os::NodeKernel& host,
                                   ihk::IkcChannel& to_host,
                                   ihk::IkcChannel& to_lwk,
                                   hw::CpuSet proxy_affinity)
    : lwk_(lwk),
      host_(host),
      to_host_(to_host),
      to_lwk_(to_lwk),
      proxy_affinity_(std::move(proxy_affinity)) {
  to_host_.set_receiver(
      [this](const ihk::IkcMessage& m) { on_host_delivery(m); });
  to_lwk_.set_receiver(
      [this](const ihk::IkcMessage& m) { on_lwk_delivery(m); });
  lwk_.set_offloader(this);
}

void SyscallOffloader::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    requests_counter_ = nullptr;
    replies_counter_ = nullptr;
    wakeup_us_h_ = nullptr;
    execute_us_h_ = nullptr;
    reply_us_h_ = nullptr;
    rtt_us_h_ = nullptr;
    backlog_h_ = nullptr;
  } else {
    requests_counter_ = registry->counter("offload.requests");
    replies_counter_ = registry->counter("offload.replies");
    wakeup_us_h_ = registry->histogram("offload.wakeup_us", 0.1, 1e5, 48);
    execute_us_h_ = registry->histogram("offload.execute_us", 0.1, 1e5, 48);
    reply_us_h_ = registry->histogram("offload.reply_us", 0.1, 1e5, 48);
    rtt_us_h_ = registry->histogram("offload.rtt_us", 0.1, 1e5, 48);
    backlog_h_ =
        registry->histogram("offload.proxy.backlog", 1.0, 1024.0, 24);
  }
  to_host_.set_registry(registry);
  to_lwk_.set_registry(registry);
}

void SyscallOffloader::offload(os::ThreadId lwk_tid, os::Pid lwk_pid,
                               const os::SyscallRequest& request) {
  ++requests_;
  obs::bump(requests_counter_);
  // The message carries the whole offload record (start, core, span) to
  // the reply handler; the LWK thread blocks until that reply.
  ihk::IkcMessage m;
  m.sender = lwk_tid;
  m.sender_pid = lwk_pid;
  m.sender_core = lwk_.thread(lwk_tid).core;
  m.request = request;
  m.offload_start = lwk_.simulator().now();
  sim::TraceBuffer* tb = lwk_.trace();
  if (tb != nullptr && tb->enabled()) m.span = tb->new_span();
  // Marshalling on the LWK side happens before the doorbell rings.
  marshalling_.push_back(std::move(m));
  lwk_.simulator().schedule_after(
      lwk_.config().offload_marshal_cost,
      [this] {
        ihk::IkcMessage next = take_front(marshalling_, marshalling_head_);
        HPCOS_CHECK_MSG(
            next.offload_start + lwk_.config().offload_marshal_cost == now(),
            "offload marshalled out of order");
        to_host_.post(std::move(next));
      },
      "lwk.offload.marshal");
}

void SyscallOffloader::send_reply(ihk::IkcMessage message) {
  message.is_reply = true;
  to_lwk_.post(std::move(message));
}

SyscallOffloader::Proxy& SyscallOffloader::ensure_proxy(os::Pid lwk_pid) {
  for (Proxy& p : proxies_) {
    if (p.lwk_pid == lwk_pid) return p;
  }

  // One proxy process per McKernel process, living on the host's system
  // cores (where it cannot disturb application cores).
  auto body = std::make_unique<ProxyBody>(*this);
  ProxyBody* raw = body.get();
  os::SpawnAttrs attrs;
  attrs.name = "mcexec-proxy-" + std::to_string(lwk_pid);
  attrs.affinity = proxy_affinity_;
  const os::ThreadId tid = host_.spawn(std::move(body), std::move(attrs));
  return proxies_.emplace_back(Proxy{lwk_pid, tid, raw});
}

void SyscallOffloader::on_host_delivery(const ihk::IkcMessage& message) {
  Proxy& proxy = ensure_proxy(message.sender_pid);
  ihk::IkcMessage stamped = message;
  stamped.host_delivered_at = lwk_.simulator().now();
  proxy.body->enqueue(std::move(stamped));
  obs::observe(backlog_h_, static_cast<double>(proxy.body->backlog()));
  // Ring the proxy's doorbell if it is actually parked in FUTEX_WAIT. (It
  // may be Ready-but-not-dispatched after a previous wake, in which case
  // it will drain the queue on its own.)
  if (proxy.body->parked() &&
      host_.thread(proxy.host_tid).state == os::ThreadState::kBlocked) {
    os::SyscallResult wake;
    wake.ok = true;
    host_.complete_blocked_syscall(proxy.host_tid, wake);
  }
}

void SyscallOffloader::on_lwk_delivery(const ihk::IkcMessage& message) {
  ++replies_;
  obs::bump(replies_counter_);
  os::SyscallResult result = message.result;
  result.path = os::SyscallResult::Path::kOffloaded;
  const SimTime reply_at = lwk_.simulator().now();
  const SimTime rtt = reply_at - message.offload_start;
  roundtrip_us_.add(rtt.to_us());
  // Latency split: enqueue -> proxy starts executing -> reply posted ->
  // reply delivered (the reply rides to_lwk_, so it was posted one channel
  // latency ago).
  const SimTime reply_posted = reply_at - to_lwk_.latency();
  obs::observe(wakeup_us_h_,
               (message.proxy_start - message.offload_start).to_us());
  obs::observe(execute_us_h_, (reply_posted - message.proxy_start).to_us());
  obs::observe(reply_us_h_, (reply_at - reply_posted).to_us());
  obs::observe(rtt_us_h_, rtt.to_us());
  if (message.span != 0) record_offload_spans(message, reply_at);
  lwk_.complete_blocked_syscall(message.sender, result);
}

void SyscallOffloader::record_offload_spans(const ihk::IkcMessage& message,
                                            SimTime reply_at) {
  sim::TraceBuffer* tb = lwk_.trace();
  if (tb == nullptr || !tb->enabled()) return;
  const SimTime marshal = lwk_.config().offload_marshal_cost;
  const SimTime reply_posted = reply_at - to_lwk_.latency();
  auto child = [&](SimTime start, SimTime duration, std::string label) {
    tb->record(sim::TraceRecord{.time = start,
                                .core = message.sender_core,
                                .category = sim::TraceCategory::kSyscallOffload,
                                .duration = duration,
                                .label = std::move(label),
                                .span = tb->new_span(),
                                .parent = message.span});
  };
  tb->record(sim::TraceRecord{.time = message.offload_start,
                              .core = message.sender_core,
                              .category = sim::TraceCategory::kSyscallOffload,
                              .duration = reply_at - message.offload_start,
                              .label = "offload:" + to_string(message.request.no),
                              .span = message.span,
                              .parent = 0});
  child(message.offload_start, marshal, "offload:marshal");
  child(message.host_delivered_at - to_host_.latency(), to_host_.latency(),
        "ikc:to_host");
  child(message.host_delivered_at,
        message.proxy_start - message.host_delivered_at, "proxy:wakeup");
  child(message.proxy_start, reply_posted - message.proxy_start,
        "proxy:execute");
  child(reply_posted, to_lwk_.latency(), "ikc:to_lwk");
}

}  // namespace hpcos::mck
