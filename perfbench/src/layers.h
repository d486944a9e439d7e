// Layer timings measured from outside the engine: each times calls into one
// layer's public functions on inputs taken from the workload itself.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "unit/workload/spec.h"

namespace perfbench {

/// Seconds AdmissionIndex::Init takes on `w` (median of three).
double TimeAdmissionInit(const unitdb::Workload& w);

/// Seconds UpdateModulator::AttachSources takes on a database holding the
/// update sources of each of `dbs`, summed.
double TimeAttachSources(const std::vector<const unitdb::Workload*>& dbs);

/// Nanoseconds per LotterySampler::SetTicket + Sample pair over
/// `num_items` items.
double TimeLotteryNs(int num_items, uint64_t seed);

/// Nanoseconds per EventQueue::Push or Pop, replaying the arrival and
/// update-generation times of `w`: all are pushed, then popped until empty.
double TimeEventQueueNs(const unitdb::Workload& w);

/// Nanoseconds per ReadyQueue::Insert or PopTop on a queue held at `depth`
/// queries.
double TimeReadyQueueNs(int depth, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
