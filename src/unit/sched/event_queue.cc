#include "unit/sched/event_queue.h"

namespace unitdb {

void EventQueue::Push(SimTime time, EventType type, int64_t payload,
                      uint64_t generation) {
  PushEvent(Event{time, next_seq_++, type, payload, generation});
}

void EventQueue::PushWithSeq(SimTime time, uint64_t seq, EventType type,
                             int64_t payload, uint64_t generation) {
  PushEvent(Event{time, seq, type, payload, generation});
}

void EventQueue::PushEvent(const Event& e) {
  size_t hole = events_.size();
  events_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!Before(e, events_[parent])) break;
    events_[hole] = events_[parent];
    hole = parent;
  }
  events_[hole] = e;
  peak_size_ = std::max(peak_size_, events_.size());
}

Event EventQueue::Pop() {
  const Event top = events_.front();
  const Event last = events_.back();
  events_.pop_back();
  if (!events_.empty()) SiftDown(0, last);
  return top;
}

void EventQueue::SiftDown(size_t hole, Event e) {
  const size_t n = events_.size();
  while (true) {
    const size_t first = hole * kArity + 1;
    if (first >= n) break;
    const size_t end = std::min(first + kArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(events_[c], events_[best])) best = c;
    }
    if (!Before(events_[best], e)) break;
    events_[hole] = events_[best];
    hole = best;
  }
  events_[hole] = e;
}

void EventQueue::Heapify() {
  if (events_.size() < 2) return;
  for (size_t i = (events_.size() - 2) / kArity + 1; i-- > 0;) {
    SiftDown(i, events_[i]);
  }
}

}  // namespace unitdb
