// The three perfbench workloads. Each is a closed loop with one client
// thread; see perfbench/README.md for what each one stresses and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// One sensor, one year at 5-minute sampling, built, compacted to
/// columnar, reopened; serial searches from the mix.
RunResult RunHistoryScan(const RunConfig& config);

/// One sensor, row format, WAL off: one day of appends, FlushPending,
/// one search — for a year.
RunResult RunLiveIngest(const RunConfig& config);

/// 64 sensors x 7 days in a sharded TransectIndex whose store cache
/// holds 1/8 of them; transect searches fanned out on nproc threads.
RunResult RunTransectSweep(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
