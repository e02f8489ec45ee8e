#pragma once
// Unified bounded-retry / exponential-backoff policy.
//
// Three subsystems retry transient failures: the stage plan re-captures
// a round the fault plan ate (attack/stage_driver.cpp, in-process and
// fleet alike), the fleet coordinator re-queues a task whose worker died
// (fleet/coordinator.cpp), and the same coordinator re-dials a remote
// worker whose connection dropped. They all share one contract, so the
// policy lives here rather than being re-implemented per call site:
//
//   - attempts are bounded (`max_attempts` is the TOTAL attempt budget,
//     including the first try; `exhausted(n)` is true once n attempts
//     have been consumed);
//   - the k-th retry (k = 1 for the first retry) backs off
//     base_ms << (k - 1), capped at max_backoff_ms;
//   - optional jitter de-synchronizes herds WITHOUT sacrificing
//     determinism: the perturbation is a stateless SplitMix64 draw over
//     (seed, key, attempt), never a wall clock or a shared RNG, so a
//     replay with the same seed backs off identically.
//
// Backoff only stretches wall time; whether a retry HAPPENS is decided
// by the attempt budget alone, which keeps results a pure function of
// the seed and the failure plan (the determinism contract of src/exec).

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "exec/seed_split.h"

namespace fd::exec {

struct RetryPolicy {
  std::size_t max_attempts = 3;        // total attempts, including the first
  std::size_t base_ms = 0;             // 0 = retry immediately
  std::size_t max_backoff_ms = 60'000; // cap for the exponential curve
  double jitter = 0.0;                 // +/- fraction of the backoff, seeded
  std::uint64_t seed = 0;

  // True once `attempts` tries have been spent (clamped so a
  // misconfigured budget of 0 still permits one attempt).
  [[nodiscard]] bool exhausted(std::size_t attempts) const {
    return attempts >= std::max<std::size_t>(1, max_attempts);
  }

  // Backoff before retry number `attempt` (1-based count of failures so
  // far). `key` keys the jitter draw per retrying entity (task id,
  // endpoint index, ...) so concurrent retriers spread out while each
  // one stays individually reproducible.
  [[nodiscard]] std::size_t backoff_ms(std::size_t attempt, std::uint64_t key = 0) const {
    if (base_ms == 0 || attempt == 0) return 0;
    const std::size_t shift = std::min<std::size_t>(attempt - 1, 20);
    const std::size_t raw = std::min(max_backoff_ms, base_ms << shift);
    if (jitter <= 0.0) return raw;
    const std::uint64_t bits =
        mix64(mix64(seed ^ 0xB0FFULL) ^ mix64(key) ^ mix64(static_cast<std::uint64_t>(attempt)));
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
    const double ms = static_cast<double>(raw) * (1.0 + jitter * (2.0 * u - 1.0));
    return ms <= 0.0 ? 0 : static_cast<std::size_t>(ms);
  }
};

}  // namespace fd::exec
