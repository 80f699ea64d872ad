#include "noise/fwq.h"

#include "common/check.h"

namespace hpcos::noise {

std::vector<SimTime> FwqTrace::times() const {
  std::vector<SimTime> out(samples_, base_);
  for (const Sample& d : disturbed_) out[d.index] = d.time;
  return out;
}

FwqThread::FwqThread(FwqConfig config) : config_(config) {
  HPCOS_CHECK(config_.work_quantum > SimTime::zero());
  HPCOS_CHECK(config_.iterations > 0);
}

void FwqThread::step(os::ThreadContext& ctx) {
  if (started_) {
    // Previous quantum completed: the measured iteration time is wall time,
    // not work time — noise shows up as the difference.
    trace_.record(ctx.now() - iter_start_);
  } else {
    trace_ = FwqTrace(ctx.core(), config_.work_quantum);
    started_ = true;
  }
  if (iter_ >= config_.iterations) {
    finished_ = true;
    ctx.exit();
    return;
  }
  ++iter_;
  iter_start_ = ctx.now();
  ctx.compute(config_.work_quantum);
}

std::vector<FwqTrace> run_fwq(os::NodeKernel& kernel, const hw::CpuSet& cores,
                              FwqConfig config) {
  std::vector<FwqThread*> bodies;
  const auto core_list = cores.to_vector();
  bodies.reserve(core_list.size());

  for (hw::CoreId core : core_list) {
    auto body = std::make_unique<FwqThread>(config);
    bodies.push_back(body.get());
    os::SpawnAttrs attrs;
    attrs.name = "fwq-" + std::to_string(core);
    attrs.affinity =
        hw::CpuSet::of(static_cast<std::size_t>(
                           kernel.topology().logical_cores()),
                       {core});
    kernel.spawn(std::move(body), std::move(attrs));
  }

  // Drive the simulation until every FWQ thread has finished. Finish
  // flags only go from false to true, so waiting on each body in turn
  // stops at the same event as rescanning all of them after every step.
  for (const FwqThread* b : bodies) {
    while (!b->finished()) {
      const bool progressed = kernel.simulator().step();
      HPCOS_CHECK_MSG(progressed, "FWQ deadlock: event queue drained early");
    }
  }

  std::vector<FwqTrace> out;
  out.reserve(bodies.size());
  for (FwqThread* b : bodies) out.push_back(b->take_trace());
  return out;
}

}  // namespace hpcos::noise
