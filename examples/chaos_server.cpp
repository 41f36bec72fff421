// Fleet chaos drill for the multi-tenant AutoStatsServer: run a
// 100-tenant durable fleet through seeded fault episodes — simulated
// kills, torn journal writes, persistent fsync failures, latency spikes —
// interleaved with live lifecycle ops (RemoveTenant / ReopenTenant /
// AddTenant), then verify failure containment:
//
//   - untargeted tenants are byte-identical (catalog dump, digest, trace)
//     to a no-fault reference run;
//   - fault victims trip their circuit breakers, recover through half-open
//     probes, and converge to a serial replay oracle.
//
// Usage: chaos_server [tenants] [workers] [episodes] [seed]
//
// Everything is deterministic: same arguments, same report, same bytes.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "server/chaos.h"

using namespace autostats;

int main(int argc, char** argv) {
  ChaosOptions options;
  options.root_dir = "chaos_server.dir";
  if (argc > 1) options.tenants = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) options.workers = std::atoi(argv[2]);
  if (argc > 3) options.episodes = std::atoi(argv[3]);
  if (argc > 4) options.seed = static_cast<uint64_t>(std::atoll(argv[4]));

  std::printf(
      "chaos fleet: %zu tenants, %d workers, %d episodes, seed %llu\n\n",
      options.tenants, options.workers, options.episodes,
      static_cast<unsigned long long>(options.seed));

  const ChaosReport report = RunChaosFleet(options);
  std::printf("%s", FormatChaosReport(report).c_str());

  std::error_code ec;
  std::filesystem::remove_all(options.root_dir, ec);
  return report.ok ? 0 : 1;
}
