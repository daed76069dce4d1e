// SLO-aware query admission — the serving tier's front door (docs/PERF.md
// "Computation reuse & admission"), and the one implementation of a
// ticket's life for both runtimes: Offer, pop (Next / Drain),
// Complete, and the books that say when every admitted ticket is done.
// Each runtime supplies only its clock and its serve call.
//
// Every query arrives as a ticket with an absolute deadline. The queue
// holds two classes, split by a cache-likelihood probe (a small recent-seed
// table fed by each completion): hit-likely tickets are cheap to serve —
// their hop-1 aggregates are probably resident in the AggregateCache — so
// pops prefer them (shortest-job-first drains more queries before their
// deadlines under load), while a miss-likely ticket whose slack runs low
// preempts (earliest-deadline-first within each class, so nothing starves
// until the system is genuinely overloaded — at which point shedding is
// the designed behaviour, not a failure mode).
//
// Shedding happens at three points, each counted separately
// ("serving.admission.*", docs/OBSERVABILITY.md):
//   - shed_full:     Offer() on a queue at max_depth (bounded memory);
//   - shed_overload: Offer() while the telemetry hub reports Overloaded()
//                    and the ticket's slack is already below the miss-path
//                    cost estimate — it would miss its deadline anyway, so
//                    don't let it displace ones that won't;
//   - shed_deadline: Next() pops a ticket whose deadline has passed.
// Drain() bypasses shedding entirely: fences and shutdown want every
// admitted query answered, not dropped (the drain-on-fence contract).
//
// Determinism: ordering is (deadline, admission id) — ties break by
// arrival — and the class probe is a pure function of the completion
// history, so identical offer/now sequences produce identical pops.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/hash.h"
#include "util/histogram.h"

namespace helios {

// One admitted (or to-be-admitted) query.
struct QueryTicket {
  graph::VertexId seed = graph::kInvalidVertex;
  std::int64_t enqueue_us = 0;   // Offer() time
  std::int64_t deadline_us = 0;  // absolute, same clock domain as `now`
  std::uint64_t id = 0;          // admission order, assigned by Offer()
};

class AdmissionQueue {
 public:
  // The miss path's service-time estimate: a miss-likely ticket preempts
  // the hit class once its slack drops under kUrgencyFactor × kMissCostUs,
  // and under overload a ticket with less slack than kMissCostUs sheds.
  static constexpr std::int64_t kMissCostUs = 60;
  static constexpr std::int64_t kUrgencyFactor = 4;
  // Recent-seed table size; a power of two.
  static constexpr std::size_t kHotSeedSlots = 4096;

  struct Options {
    std::size_t max_depth = 4096;  // shed-on-full bound
  };

  enum class Outcome { kAdmitted, kShedFull, kShedOverload };

  // Serving worker `worker`'s queue. Its "serving.admission.*" metrics go
  // to `registry` under {worker=<worker>}; `telemetry` scores each
  // completed ticket in lane `worker`, and its Overloaded() is the
  // overload probe. Either may be null (no metrics / never overloaded).
  explicit AdmissionQueue(Options options, obs::MetricsRegistry* registry = nullptr,
                          obs::TelemetryHub* telemetry = nullptr, std::uint32_t worker = 0);

  // The front door of a serving tier: one queue per worker 0..workers-1,
  // as both runtimes build it.
  static std::vector<std::unique_ptr<AdmissionQueue>> ForWorkers(
      std::uint32_t workers, const Options& options, obs::MetricsRegistry* registry,
      obs::TelemetryHub* telemetry);

  // Offers one query; on admission stamps t.id and enqueues.
  Outcome Offer(QueryTicket t, std::int64_t now);

  // Pops the next ticket into `ticket`, shedding on the way every one
  // whose deadline already passed at `now`. Callers pop right before each
  // serve, so a ticket that expires while another is served sheds at its
  // own pop. False when the queue is empty.
  bool Next(std::int64_t now, QueryTicket& ticket);

  // Pops the next ticket in Next's order at `now`, with no shedding
  // (drain-on-fence). False when the queue is empty.
  bool Drain(std::int64_t now, QueryTicket& ticket);

  // A popped ticket was answered at `now` with a `bytes`-byte reply:
  // records it to the hub (latency now − enqueue, budget deadline −
  // enqueue), feeds the cache-likelihood probe, and books it completed —
  // and in-deadline when now <= deadline.
  void Complete(const QueryTicket& ticket, std::int64_t now, std::size_t bytes);

  // True when the queue is empty and every admitted ticket was completed
  // or shed at pop: nothing is queued or in service.
  bool Idle() const;

  // Feeds the cache-likelihood probe: `seed` was just served, so its
  // aggregates are hot. Complete() does this for every answered ticket.
  void NoteServed(graph::VertexId seed);

  // Empties the hot-seed table. Called on shard ownership change (migration,
  // recovery): the hints describe the *previous* owner's AggregateCache, and
  // classifying a seed hit-likely against a cold cache would queue it with
  // the cheap tickets and blow its deadline (docs/ELASTICITY.md).
  void FlushHotSeeds();

  // True iff the hot-seed probe currently classifies `seed` hit-likely
  // (test/inspection hook for the flush semantics).
  bool SeedLooksHot(graph::VertexId seed) const;

  std::size_t depth() const;

  // The books: offered == admitted + shed_full + shed_overload, and once
  // Idle(), admitted == completed + shed_deadline.
  struct Stats {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_deadline = 0;
    std::uint64_t shed_full = 0;
    std::uint64_t shed_overload = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t shed() const { return shed_full + shed_overload + shed_deadline; }
    Stats& operator+=(const Stats& o);
  };
  Stats stats() const;
  // Enqueue-to-reply latency of every completed ticket.
  util::Histogram latency() const;

 private:
  // Min-heap order on (deadline, id): std::priority_queue is a max-heap,
  // so the comparison inverts.
  struct Later {
    bool operator()(const QueryTicket& a, const QueryTicket& b) const {
      return a.deadline_us != b.deadline_us ? a.deadline_us > b.deadline_us : a.id > b.id;
    }
  };
  using Heap = std::priority_queue<QueryTicket, std::vector<QueryTicket>, Later>;

  std::size_t SlotOf(graph::VertexId seed) const {
    return util::MixHash(seed) & (kHotSeedSlots - 1);
  }
  std::size_t DepthLocked() const { return hit_q_.size() + miss_q_.size(); }
  bool Pop(std::int64_t now, bool shed_expired, QueryTicket& ticket);

  Options options_;
  obs::TelemetryHub* telemetry_;
  std::uint32_t worker_;
  mutable std::mutex mu_;
  Heap hit_q_;
  Heap miss_q_;
  std::vector<graph::VertexId> hot_seeds_;  // direct-mapped
  std::uint64_t next_id_ = 1;
  Stats stats_;
  util::Histogram latency_us_;

  struct Metrics {
    obs::Counter* offered = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* shed_full = nullptr;
    obs::Counter* shed_overload = nullptr;
    obs::Counter* shed_deadline = nullptr;
    // Shares the "serving.cache.shed" registry cell with ServingCore so the
    // cache dashboard sees sheds regardless of which tier dropped them.
    obs::Counter* shed_cache = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::LatencyMetric* slack_us = nullptr;  // at admission
    obs::LatencyMetric* wait_us = nullptr;   // enqueue -> pop
  };
  Metrics m_;
};

}  // namespace helios
