// AdmissionQueue: bounded capacity with typed shedding, strict priority
// between classes, FIFO within a class, and the drain protocol dispatcher
// threads rely on (pushes reject, pops run the backlog dry, then nullptr).
#include "serve/admission_queue.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace subsel::serve {
namespace {

std::unique_ptr<PendingRequest> make_item(const std::string& id,
                                          Priority priority) {
  auto item = std::make_unique<PendingRequest>();
  item->request.id = id;
  item->request.priority = priority;
  item->deadline = Deadline::unlimited();
  return item;
}

TEST(AdmissionQueue, FifoWithinOneClass) {
  AdmissionQueue queue(8);
  for (int i = 0; i < 3; ++i) {
    auto item = make_item(std::string("b") + std::to_string(i), Priority::kBatch);
    EXPECT_EQ(queue.try_push(item), "");
  }
  EXPECT_EQ(queue.pop()->request.id, "b0");
  EXPECT_EQ(queue.pop()->request.id, "b1");
  EXPECT_EQ(queue.pop()->request.id, "b2");
}

TEST(AdmissionQueue, InteractiveAlwaysOvertakesBatch) {
  AdmissionQueue queue(8);
  auto b0 = make_item("b0", Priority::kBatch);
  auto b1 = make_item("b1", Priority::kBatch);
  auto i0 = make_item("i0", Priority::kInteractive);
  ASSERT_EQ(queue.try_push(b0), "");
  ASSERT_EQ(queue.try_push(b1), "");
  ASSERT_EQ(queue.try_push(i0), "");
  // The interactive request arrived LAST but is dequeued FIRST.
  EXPECT_EQ(queue.pop()->request.id, "i0");
  EXPECT_EQ(queue.pop()->request.id, "b0");
  EXPECT_EQ(queue.pop()->request.id, "b1");
}

TEST(AdmissionQueue, CapacitySharedAcrossClassesAndShedsTyped) {
  AdmissionQueue queue(2);
  auto a = make_item("a", Priority::kBatch);
  auto b = make_item("b", Priority::kInteractive);
  auto c = make_item("c", Priority::kInteractive);
  ASSERT_EQ(queue.try_push(a), "");
  ASSERT_EQ(queue.try_push(b), "");
  // The bound covers BOTH classes: interactive cannot push past it either.
  EXPECT_EQ(queue.try_push(c), "queue_full");
  // The rejected item is untouched so the caller can answer it.
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->request.id, "c");
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(AdmissionQueue, HighWaterTracksDeepestBacklog) {
  AdmissionQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    auto item = make_item(std::to_string(i), Priority::kBatch);
    ASSERT_EQ(queue.try_push(item), "");
  }
  for (int i = 0; i < 5; ++i) queue.pop();
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.high_water(), 5u);
}

TEST(AdmissionQueue, DrainRejectsPushesButDrainsBacklog) {
  AdmissionQueue queue(8);
  auto queued = make_item("queued", Priority::kBatch);
  ASSERT_EQ(queue.try_push(queued), "");
  queue.begin_drain();
  EXPECT_TRUE(queue.draining());

  auto late = make_item("late", Priority::kInteractive);
  EXPECT_EQ(queue.try_push(late), "draining");
  ASSERT_NE(late, nullptr);  // caller still owns it

  // Already-admitted work survives the pivot...
  auto popped = queue.pop();
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->request.id, "queued");
  // ...and an empty draining queue is the dispatcher exit signal.
  EXPECT_EQ(queue.pop(), nullptr);
  EXPECT_EQ(queue.pop(), nullptr);  // stays terminal
}

TEST(AdmissionQueue, BlockedPopWakesOnPush) {
  AdmissionQueue queue(4);
  std::string popped_id;
  std::thread consumer([&] {
    const auto item = queue.pop();
    if (item != nullptr) popped_id = item->request.id;
  });
  // Give the consumer a moment to block, then feed it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto item = make_item("wake", Priority::kBatch);
  ASSERT_EQ(queue.try_push(item), "");
  consumer.join();
  EXPECT_EQ(popped_id, "wake");
}

TEST(AdmissionQueue, BlockedPopWakesOnDrain) {
  AdmissionQueue queue(4);
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.begin_drain();
  consumer.join();
}

TEST(AdmissionQueue, DepthOfReportsPerClass) {
  AdmissionQueue queue(8);
  auto a = make_item("a", Priority::kBatch);
  auto b = make_item("b", Priority::kBatch);
  auto c = make_item("c", Priority::kInteractive);
  ASSERT_EQ(queue.try_push(a), "");
  ASSERT_EQ(queue.try_push(b), "");
  ASSERT_EQ(queue.try_push(c), "");
  EXPECT_EQ(queue.depth_of(Priority::kBatch), 2u);
  EXPECT_EQ(queue.depth_of(Priority::kInteractive), 1u);
}

}  // namespace
}  // namespace subsel::serve
