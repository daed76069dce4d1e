// Tests for the SLO-aware admission queue: deadline ordering, the
// hit/miss class policy, all three shed points, the no-shed drain-on-fence
// contract, completion scoring and the books, and determinism (docs/PERF.md
// "Computation reuse & admission").
#include <gtest/gtest.h>

#include <vector>

#include "helios/admission.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace helios {
namespace {

QueryTicket Ticket(graph::VertexId seed, std::int64_t deadline_us) {
  QueryTicket t;
  t.seed = seed;
  t.deadline_us = deadline_us;
  return t;
}

// Every ticket Next() hands out at `now` (Drain()'s, with `drain`).
std::vector<QueryTicket> PopAll(AdmissionQueue& q, std::int64_t now, bool drain = false) {
  std::vector<QueryTicket> out;
  QueryTicket t;
  while (drain ? q.Drain(now, t) : q.Next(now, t)) out.push_back(t);
  return out;
}

TEST(AdmissionQueue, PopsInDeadlineOrderWithIdTieBreak) {
  AdmissionQueue q({});
  // Shuffled deadlines plus a tie: EDF with admission-order tie break.
  ASSERT_EQ(q.Offer(Ticket(1, 500), 0), AdmissionQueue::Outcome::kAdmitted);
  ASSERT_EQ(q.Offer(Ticket(2, 100), 0), AdmissionQueue::Outcome::kAdmitted);
  ASSERT_EQ(q.Offer(Ticket(3, 300), 0), AdmissionQueue::Outcome::kAdmitted);
  ASSERT_EQ(q.Offer(Ticket(4, 100), 0), AdmissionQueue::Outcome::kAdmitted);
  const auto out = PopAll(q, 0);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].seed, 2u);  // deadline 100, admitted first
  EXPECT_EQ(out[1].seed, 4u);  // deadline 100, admitted later
  EXPECT_EQ(out[2].seed, 3u);
  EXPECT_EQ(out[3].seed, 1u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionQueue, HitClassDrainsFirstUntilMissHeadTurnsUrgent) {
  // The miss class preempts below kUrgencyFactor × kMissCostUs of slack.
  static_assert(AdmissionQueue::kUrgencyFactor * AdmissionQueue::kMissCostUs == 240);
  AdmissionQueue q({});
  q.NoteServed(7);  // seed 7 is now hit-likely

  // Miss ticket has the EARLIER deadline but comfortable slack: the
  // hit-likely ticket still goes first (shortest-job-first under load).
  q.Offer(Ticket(9, 1000), 0);
  q.Offer(Ticket(7, 2000), 0);
  QueryTicket t;
  ASSERT_TRUE(q.Next(0, t));
  EXPECT_EQ(t.seed, 7u);

  // Same queue state later: the miss head's slack fell under
  // kUrgencyFactor × kMissCostUs, so it preempts.
  q.Offer(Ticket(7, 2000), 800);
  ASSERT_TRUE(q.Next(800, t));
  EXPECT_EQ(t.seed, 9u);
}

TEST(AdmissionQueue, ShedsOnFullQueue) {
  AdmissionQueue::Options opt;
  opt.max_depth = 2;
  AdmissionQueue q(opt);
  EXPECT_EQ(q.Offer(Ticket(1, 100), 0), AdmissionQueue::Outcome::kAdmitted);
  EXPECT_EQ(q.Offer(Ticket(2, 100), 0), AdmissionQueue::Outcome::kAdmitted);
  EXPECT_EQ(q.Offer(Ticket(3, 100), 0), AdmissionQueue::Outcome::kShedFull);
  const auto s = q.stats();
  EXPECT_EQ(s.offered, 3u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.shed_full, 1u);
  EXPECT_EQ(s.shed(), 1u);
}

TEST(AdmissionQueue, ShedsOnOverloadOnlyWhenTicketIsDoomed) {
  static_assert(AdmissionQueue::kMissCostUs == 60);
  obs::MetricsRegistry registry;
  obs::TelemetryHub::Options topt;
  topt.overload_p99_us = 100;
  obs::TelemetryHub hub(&registry, topt);
  AdmissionQueue q({}, nullptr, &hub);

  // Doomed slack but no overload: admitted (it may still make it).
  EXPECT_EQ(q.Offer(Ticket(1, 30), 0), AdmissionQueue::Outcome::kAdmitted);
  // The hub's window p99 blows past its threshold: overloaded.
  hub.RecordQuery(0, 0, 10'000, 0);
  hub.Advance(0);
  ASSERT_TRUE(hub.Overloaded());
  // Overloaded + comfortable slack: admitted (it can make its deadline).
  EXPECT_EQ(q.Offer(Ticket(2, 10'000), 0), AdmissionQueue::Outcome::kAdmitted);
  // Overloaded + slack below the miss-path estimate: shed.
  EXPECT_EQ(q.Offer(Ticket(3, 30), 0), AdmissionQueue::Outcome::kShedOverload);
  EXPECT_EQ(q.stats().shed_overload, 1u);
}

TEST(AdmissionQueue, ShedsExpiredTicketsAtPop) {
  AdmissionQueue q({});
  q.Offer(Ticket(1, 100), 0);
  q.Offer(Ticket(2, 1000), 0);
  // At now=500, ticket 1's deadline has passed: shed at pop, never
  // returned; ticket 2 comes out normally.
  QueryTicket t;
  ASSERT_TRUE(q.Next(500, t));
  EXPECT_EQ(t.seed, 2u);
  EXPECT_EQ(q.stats().shed_deadline, 1u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_FALSE(q.Next(500, t));
}

TEST(AdmissionQueue, DrainReturnsEverythingInOrderWithoutShedding) {
  AdmissionQueue q({});
  q.NoteServed(5);
  q.Offer(Ticket(5, 400), 0);   // hit class
  q.Offer(Ticket(8, 100), 0);   // miss class, already expired below
  q.Offer(Ticket(9, 9000), 0);  // miss class
  // Drain-on-fence: Next's pick order (the miss head is urgent at now=0,
  // then the hit class), and the expired ticket is still delivered, not
  // dropped.
  const auto out = PopAll(q, 0, /*drain=*/true);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seed, 8u);
  EXPECT_EQ(out[1].seed, 5u);
  EXPECT_EQ(out[2].seed, 9u);
  EXPECT_EQ(q.stats().shed_deadline, 0u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionQueue, IdenticalSequencesProduceIdenticalBatches) {
  auto run = [] {
    AdmissionQueue q({});
    std::vector<graph::VertexId> order;
    q.NoteServed(3);
    for (int i = 0; i < 20; ++i) {
      q.Offer(Ticket(static_cast<graph::VertexId>(i % 5), 100 + (i * 37) % 400), i);
    }
    for (const auto& t : PopAll(q, 150)) order.push_back(t.seed);
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(AdmissionQueue, ShedMetricsFeedAdmissionAndCacheFamilies) {
  obs::MetricsRegistry registry;
  AdmissionQueue::Options opt;
  opt.max_depth = 1;
  AdmissionQueue q(opt, &registry, nullptr, /*worker=*/3);
  q.Offer(Ticket(1, 100), 0);
  q.Offer(Ticket(2, 100), 0);  // shed_full
  QueryTicket t;
  EXPECT_FALSE(q.Next(500, t));  // shed_deadline
  const obs::Labels labels{{"worker", "3"}};
  EXPECT_EQ(registry.GetCounter("serving.admission.offered", labels)->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("serving.admission.shed_full", labels)->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("serving.admission.shed_deadline", labels)->Value(), 1u);
  // Both sheds also land in the serving.cache.shed cell the ServingCore
  // registers under the same labels.
  EXPECT_EQ(registry.GetCounter("serving.cache.shed", labels)->Value(), 2u);
}

// Complete scores a ticket from enqueue, not from pop: offered at 0 with
// deadline 100, popped at 50 and answered at 150, its latency is 150 µs
// against a 100 µs budget — an SLO miss in the hub and not in-deadline in
// the books.
TEST(AdmissionQueue, CompleteScoresFromEnqueueAgainstTheWholeBudget) {
  obs::MetricsRegistry registry;
  obs::TelemetryHub::Options topt;
  topt.num_lanes = 2;
  obs::TelemetryHub hub(&registry, topt);
  AdmissionQueue q({}, &registry, &hub, /*worker=*/1);
  ASSERT_EQ(q.Offer(Ticket(4, 100), 0), AdmissionQueue::Outcome::kAdmitted);
  QueryTicket t;
  ASSERT_TRUE(q.Next(50, t));
  EXPECT_FALSE(q.Idle());  // popped, still in service
  q.Complete(t, 150, 640);

  hub.Advance(150);
  EXPECT_EQ(hub.P99Of(0), 0u);
  EXPECT_EQ(hub.QpsOf(0), 0.0);
  EXPECT_GE(hub.P99Of(1), 150u);
  EXPECT_LT(hub.P99Of(1), 160u);  // within one ~1.5 % histogram bucket
  EXPECT_EQ(hub.SloHitRate(), 0.0);
  const auto s = q.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.completed_in_deadline, 0u);
  EXPECT_TRUE(q.SeedLooksHot(4));
  EXPECT_EQ(q.latency().count(), 1u);
  EXPECT_TRUE(q.Idle());

  // Answered by its deadline: an SLO hit, in-deadline.
  ASSERT_EQ(q.Offer(Ticket(5, 300), 200), AdmissionQueue::Outcome::kAdmitted);
  ASSERT_TRUE(q.Next(200, t));
  q.Complete(t, 300, 640);
  hub.Advance(300);
  EXPECT_EQ(hub.SloHitRate(), 0.5);
  EXPECT_EQ(q.stats().completed_in_deadline, 1u);
}

// The books balance — Idle() — once every admitted ticket was completed or
// shed at pop, after a deadline shed and after a Drain alike.
TEST(AdmissionQueue, IdleBalancesAfterDeadlineShedAndDrain) {
  AdmissionQueue q({});
  EXPECT_TRUE(q.Idle());
  q.Offer(Ticket(1, 100), 0);
  q.Offer(Ticket(2, 1000), 0);
  EXPECT_FALSE(q.Idle());
  QueryTicket t;
  ASSERT_TRUE(q.Next(500, t));  // ticket 1 sheds at pop
  EXPECT_FALSE(q.Idle());       // ticket 2 is in service
  q.Complete(t, 600, 0);
  EXPECT_TRUE(q.Idle());

  q.Offer(Ticket(3, 700), 600);
  q.Offer(Ticket(4, 800), 600);
  const auto out = PopAll(q, 10'000, /*drain=*/true);
  ASSERT_EQ(out.size(), 2u);  // both expired, neither shed
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_FALSE(q.Idle());
  for (const QueryTicket& d : out) q.Complete(d, 10'000, 0);
  EXPECT_TRUE(q.Idle());
  const auto s = q.stats();
  EXPECT_EQ(s.offered, s.admitted + s.shed_full + s.shed_overload);
  EXPECT_EQ(s.admitted, s.completed + s.shed_deadline);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.completed_in_deadline, 1u);
}

// One pop per serve: a ticket whose deadline passes while the one before
// it is served sheds at its own pop instead of being answered late.
TEST(AdmissionQueue, TicketExpiringMidServeShedsAtItsOwnPop) {
  AdmissionQueue q({});
  q.Offer(Ticket(1, 100), 0);
  q.Offer(Ticket(2, 150), 0);
  QueryTicket t;
  ASSERT_TRUE(q.Next(50, t));  // both due; ticket 1 goes first
  EXPECT_EQ(t.seed, 1u);
  q.Complete(t, 100, 0);         // served until ticket 2's deadline passed
  EXPECT_FALSE(q.Next(200, t));  // ticket 2 sheds at its own pop
  EXPECT_TRUE(q.Idle());
  const auto s = q.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.completed_in_deadline, 1u);
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.admitted, s.completed + s.shed_deadline);
}

}  // namespace
}  // namespace helios
