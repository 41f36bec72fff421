#include "core/policy.h"

namespace autostats {

const char* CreationModeName(CreationMode mode) {
  switch (mode) {
    case CreationMode::kNone:
      return "none";
    case CreationMode::kSqlServer7:
      return "sqlserver7-auto-stats";
    case CreationMode::kMnsaOnTheFly:
      return "mnsa";
    case CreationMode::kMnsaDOnTheFly:
      return "mnsa-d";
    case CreationMode::kPeriodicOffline:
      return "periodic-offline";
  }
  return "?";
}

}  // namespace autostats
