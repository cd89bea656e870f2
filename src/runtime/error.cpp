#include "runtime/error.hpp"

#include <sstream>

namespace splitsim::runtime {

std::string to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kModelError:
      return "model error";
    case ErrorKind::kDeadlock:
      return "synchronization deadlock";
    case ErrorKind::kTransport:
      return "transport failure";
    case ErrorKind::kCheckpoint:
      return "checkpoint failure";
    case ErrorKind::kCausality:
      return "causality violation";
  }
  return "?";
}

namespace {

std::string format_what(ErrorKind kind, const std::string& component, SimTime sim_time,
                        const std::string& cause) {
  std::ostringstream os;
  os << to_string(kind);
  if (!component.empty()) os << " in component '" << component << "'";
  os << " at sim time " << to_ns(sim_time) << " ns: " << cause;
  return os.str();
}

}  // namespace

SimulationError::SimulationError(ErrorKind kind, std::string component, SimTime sim_time,
                                 std::string cause)
    : std::runtime_error(format_what(kind, component, sim_time, cause)),
      kind_(kind),
      component_(std::move(component)),
      sim_time_(sim_time),
      cause_(std::move(cause)) {}

}  // namespace splitsim::runtime
