// Coscheduled execution (RunMode::kCoscheduled): every component interleaved
// on the calling thread.
//
// The runner always advances the component with the earliest next action.
// Conservative synchronization makes any safe order equivalent; picking the
// minimum guarantees liveness. To amortize selection, the chosen component
// keeps advancing until it passes the second-earliest action time or blocks.
//
// Selection is a min-heap keyed by (next_action_time, index in the component
// list); the index tie-break reproduces a first-in-order linear scan. A key
// only changes when its component runs, or when a peer sends it a *data*
// message (SYNC and FIN only raise horizons). So after each batch loop the
// runner re-keys the component that ran and every peer it sent data to.
// Anything else that moves a key — a mid-run Channel::set_tuned_sync_interval
// — is caught when the key reaches the top: a popped key is recomputed and
// re-pushed if it changed, and every key is revalidated before a blocked
// minimum is reported as a deadlock.
#pragma once

#include <vector>

#include "runtime/component.hpp"

namespace splitsim::runtime {

/// Run `components` (already prepare()d) to completion on the calling
/// thread. Channels must be in ChannelMode::kSpillLocked (Simulation::run
/// sets it for every non-threaded run) so a send never blocks on its own
/// thread. Throws SimulationError(kDeadlock) when
/// the earliest component is blocked; model and transport exceptions are
/// rethrown as SimulationError(kModelError / kTransport) naming the
/// component that was running.
void run_coscheduled(const std::vector<Component*>& components);

}  // namespace splitsim::runtime
