#include "helios/admission.h"

#include <algorithm>

namespace helios {

AdmissionQueue::Stats& AdmissionQueue::Stats::operator+=(const Stats& o) {
  offered += o.offered;
  admitted += o.admitted;
  completed += o.completed;
  completed_in_deadline += o.completed_in_deadline;
  shed_full += o.shed_full;
  shed_overload += o.shed_overload;
  shed_deadline += o.shed_deadline;
  return *this;
}

AdmissionQueue::AdmissionQueue(Options options, obs::MetricsRegistry* registry,
                               obs::TelemetryHub* telemetry, std::uint32_t worker)
    : options_(options),
      telemetry_(telemetry),
      worker_(worker),
      hot_seeds_(kHotSeedSlots, graph::kInvalidVertex) {
  static_assert((kHotSeedSlots & (kHotSeedSlots - 1)) == 0);
  if (registry != nullptr) {
    const obs::Labels labels{{"worker", std::to_string(worker)}};
    m_.offered = registry->GetCounter("serving.admission.offered", labels);
    m_.admitted = registry->GetCounter("serving.admission.admitted", labels);
    m_.shed_full = registry->GetCounter("serving.admission.shed_full", labels);
    m_.shed_overload = registry->GetCounter("serving.admission.shed_overload", labels);
    m_.shed_deadline = registry->GetCounter("serving.admission.shed_deadline", labels);
    m_.shed_cache = registry->GetCounter("serving.cache.shed", labels);
    m_.queue_depth = registry->GetGauge("serving.admission.queue_depth", labels);
    m_.slack_us = registry->GetLatency("serving.admission.slack_us", labels);
    m_.wait_us = registry->GetLatency("serving.admission.wait_us", labels);
  }
}

std::vector<std::unique_ptr<AdmissionQueue>> AdmissionQueue::ForWorkers(
    std::uint32_t workers, const Options& options, obs::MetricsRegistry* registry,
    obs::TelemetryHub* telemetry) {
  std::vector<std::unique_ptr<AdmissionQueue>> queues;
  for (std::uint32_t w = 0; w < workers; ++w) {
    queues.push_back(std::make_unique<AdmissionQueue>(options, registry, telemetry, w));
  }
  return queues;
}

AdmissionQueue::Outcome AdmissionQueue::Offer(QueryTicket t, std::int64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.offered++;
  if (m_.offered != nullptr) m_.offered->Add(1);
  if (DepthLocked() >= options_.max_depth) {
    stats_.shed_full++;
    if (m_.shed_full != nullptr) m_.shed_full->Add(1);
    if (m_.shed_cache != nullptr) m_.shed_cache->Add(1);
    return Outcome::kShedFull;
  }
  const std::int64_t slack = t.deadline_us - now;
  if (slack < kMissCostUs && telemetry_ != nullptr && telemetry_->Overloaded()) {
    // Under overload a ticket that cannot make its deadline even if served
    // immediately only displaces ones that still can.
    stats_.shed_overload++;
    if (m_.shed_overload != nullptr) m_.shed_overload->Add(1);
    if (m_.shed_cache != nullptr) m_.shed_cache->Add(1);
    return Outcome::kShedOverload;
  }
  t.id = next_id_++;
  t.enqueue_us = now;
  if (hot_seeds_[SlotOf(t.seed)] == t.seed) {
    hit_q_.push(t);
  } else {
    miss_q_.push(t);
  }
  stats_.admitted++;
  if (m_.admitted != nullptr) m_.admitted->Add(1);
  if (m_.slack_us != nullptr && slack > 0) {
    m_.slack_us->Record(static_cast<std::uint64_t>(slack));
  }
  if (m_.queue_depth != nullptr) m_.queue_depth->Set(static_cast<std::int64_t>(DepthLocked()));
  return Outcome::kAdmitted;
}

// Pops the next ticket by policy — hit class first, unless the miss class's
// head is urgent (slack under kUrgencyFactor × kMissCostUs) or the hit
// class is empty. With `shed_expired`, expired tickets shed here. Returns
// false when both queues are empty.
bool AdmissionQueue::Pop(std::int64_t now, bool shed_expired, QueryTicket& ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  while (!hit_q_.empty() || !miss_q_.empty()) {
    Heap* q = nullptr;
    if (hit_q_.empty()) {
      q = &miss_q_;
    } else if (miss_q_.empty()) {
      q = &hit_q_;
    } else {
      const std::int64_t miss_slack = miss_q_.top().deadline_us - now;
      q = miss_slack < kUrgencyFactor * kMissCostUs ? &miss_q_ : &hit_q_;
    }
    const QueryTicket t = q->top();
    q->pop();
    if (shed_expired && t.deadline_us < now) {
      stats_.shed_deadline++;
      if (m_.shed_deadline != nullptr) m_.shed_deadline->Add(1);
      if (m_.shed_cache != nullptr) m_.shed_cache->Add(1);
      continue;
    }
    ticket = t;
    if (m_.wait_us != nullptr && now > t.enqueue_us) {
      m_.wait_us->Record(static_cast<std::uint64_t>(now - t.enqueue_us));
    }
    if (m_.queue_depth != nullptr) m_.queue_depth->Set(static_cast<std::int64_t>(DepthLocked()));
    return true;
  }
  if (m_.queue_depth != nullptr) m_.queue_depth->Set(0);
  return false;
}

bool AdmissionQueue::Next(std::int64_t now, QueryTicket& ticket) {
  return Pop(now, /*shed_expired=*/true, ticket);
}

bool AdmissionQueue::Drain(std::int64_t now, QueryTicket& ticket) {
  return Pop(now, /*shed_expired=*/false, ticket);
}

void AdmissionQueue::Complete(const QueryTicket& ticket, std::int64_t now, std::size_t bytes) {
  const std::int64_t latency = std::max<std::int64_t>(now - ticket.enqueue_us, 0);
  const std::int64_t budget = ticket.deadline_us - ticket.enqueue_us;
  const bool in_deadline = now <= ticket.deadline_us;
  // The hub hears of the ticket before the books count it, so a caller
  // that saw Idle() also sees every completed ticket in the hub.
  if (telemetry_ != nullptr) {
    telemetry_->RecordQuery(worker_, now, static_cast<std::uint64_t>(latency), bytes,
                            budget > 0 ? static_cast<std::uint64_t>(budget) : 0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  hot_seeds_[SlotOf(ticket.seed)] = ticket.seed;
  latency_us_.Record(static_cast<std::uint64_t>(latency));
  stats_.completed++;
  if (in_deadline) stats_.completed_in_deadline++;
}

bool AdmissionQueue::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DepthLocked() == 0 && stats_.admitted == stats_.completed + stats_.shed_deadline;
}

void AdmissionQueue::NoteServed(graph::VertexId seed) {
  std::lock_guard<std::mutex> lock(mu_);
  hot_seeds_[SlotOf(seed)] = seed;
}

void AdmissionQueue::FlushHotSeeds() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(hot_seeds_.begin(), hot_seeds_.end(), graph::kInvalidVertex);
}

bool AdmissionQueue::SeedLooksHot(graph::VertexId seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_seeds_[SlotOf(seed)] == seed;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DepthLocked();
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

util::Histogram AdmissionQueue::latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_us_;
}

}  // namespace helios
