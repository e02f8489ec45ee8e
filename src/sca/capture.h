#pragma once
// Leakage-event capture.
//
// EventWindowRecorder plays the role of the oscilloscope in the paper's
// setup: it is armed on a trigger marker (emitted by the signing code
// around each coefficient-wise multiplication), records the tagged
// intermediate values of the window, and disarms on the trigger end.
// The raw events are *device-internal* state; only the EmDeviceModel's
// noisy trace synthesis (device.h) is visible to the adversary.
//
// EventWindowRecorder and FullRecorder are whole-run sinks (every event
// is delivered while installed); LastWindowRecorder is trigger-scoped.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fpr/leakage.h"

namespace fd::sca {

class EventWindowRecorder final : public fpr::LeakageSink {
 public:
  // Records the window whose kTriggerBegin payload equals `slot`, on its
  // `occurrence`-th appearance (a FALCON signing run triggers each slot
  // twice: first for the f row, then for the F row).
  explicit EventWindowRecorder(std::uint64_t slot, unsigned occurrence = 0)
      : slot_(slot), want_occurrence_(occurrence) {}

  void on_event(const fpr::LeakageEvent& ev) override {
    if (ev.tag == fpr::LeakageTag::kTriggerBegin) {
      if (ev.value == slot_ && seen_occurrences_++ == want_occurrence_) {
        armed_ = true;
        events_.clear();
      }
      return;
    }
    if (ev.tag == fpr::LeakageTag::kTriggerEnd) {
      if (armed_ && ev.value == slot_) {
        armed_ = false;
        complete_ = true;
      }
      return;
    }
    if (armed_) events_.push_back(ev);
  }

  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] const std::vector<fpr::LeakageEvent>& events() const { return events_; }

  void reset() {
    armed_ = false;
    complete_ = false;
    seen_occurrences_ = 0;
    events_.clear();
  }

 private:
  std::uint64_t slot_;
  unsigned want_occurrence_;
  unsigned seen_occurrences_ = 0;
  bool armed_ = false;
  bool complete_ = false;
  std::vector<fpr::LeakageEvent> events_;
};

// The campaigns' recorder: keeps the most recent window of one basis
// row per slot. A signing run triggers each slot once per basis row and
// per internal salt retry, f-row first; the final occurrence of the
// chosen row is the one matching the emitted signature's salt. Because
// which window survives is only known at the end of the run, the signer
// always runs in full.
//
// Trigger-scoped (fpr/leakage.h): the recorder arms itself on a
// kTriggerBegin it records and disarms on kTriggerEnd, so while it is
// installed only the kept windows' events are ever delivered to it.
class LastWindowRecorder final : public fpr::LeakageSink {
 public:
  // row 0 keeps the f-row (even-occurrence) windows, row 1 the F-row ones.
  explicit LastWindowRecorder(std::size_t num_slots, unsigned row = 0)
      : LeakageSink(/*trigger_scoped=*/true),
        row_(row),
        windows_(num_slots),
        occurrence_(num_slots, 0) {}

  void on_event(const fpr::LeakageEvent& ev) override {
    if (ev.tag == fpr::LeakageTag::kTriggerBegin) {
      const std::size_t slot = static_cast<std::size_t>(ev.value);
      if (slot < windows_.size() && (occurrence_[slot]++ % 2) == row_) {
        current_ = slot;
        windows_[slot].clear();
        arm();
      } else {
        disarm();
      }
      return;
    }
    if (ev.tag == fpr::LeakageTag::kTriggerEnd) {
      disarm();
      return;
    }
    windows_[current_].push_back(ev);  // data events arrive only while armed
  }

  [[nodiscard]] const std::vector<fpr::LeakageEvent>& window(std::size_t slot) const {
    return windows_[slot];
  }

  void start_run() { std::fill(occurrence_.begin(), occurrence_.end(), 0U); }

  // Signing attempts of the last run: each attempt (including internal
  // salt retries the signer makes before a signature passes its norm
  // check) triggers every slot once per basis row, i.e. twice.
  [[nodiscard]] std::size_t run_attempts() const {
    return occurrence_.empty() ? 0 : occurrence_[0] / 2;
  }

 private:
  unsigned row_;
  std::vector<std::vector<fpr::LeakageEvent>> windows_;
  std::vector<unsigned> occurrence_;
  std::size_t current_ = 0;
};

// Records every event of a run (used by the Fig. 3 style trace dumps and
// by whole-algorithm inspection).
class FullRecorder final : public fpr::LeakageSink {
 public:
  void on_event(const fpr::LeakageEvent& ev) override { events_.push_back(ev); }
  [[nodiscard]] const std::vector<fpr::LeakageEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<fpr::LeakageEvent> events_;
};

}  // namespace fd::sca
