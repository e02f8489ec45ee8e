#pragma once
// Leakage instrumentation hooks for the soft-float emulation.
//
// FALCON's reference implementation emulates IEEE-754 binary64 in pure
// integer code (FPEMU). On a microcontroller every intermediate of that
// integer code drives data-dependent CMOS switching activity, which is
// what the paper's EM probe picks up. We reproduce that by emitting a
// LeakageEvent for each intermediate value the reference `fpr_mul` /
// `fpr_add` pipelines compute. A device model (src/sca) turns the event
// stream into noisy traces; the attack (src/attack) predicts the same
// intermediates from key hypotheses.
//
// Arming rule: a data event reaches the installed sink only while that
// sink is *armed*; trigger markers (leak_trigger) reach the installed
// sink whether or not it is armed. A whole-run sink (the default) is
// armed for as long as it is installed. A trigger-scoped sink starts
// disarmed and arms itself from its trigger handler, so the windows a
// capture keeps cost one virtual call per event and everything outside
// them costs one thread-local load and a not-taken branch -- the same
// as running with no sink at all.

#include <cstdint>

namespace fd::fpr {

enum class LeakageTag : std::uint8_t {
  // Markers, not device activity: the capture logic uses them the way a
  // lab setup uses a scope trigger line.
  kTriggerBegin,
  kTriggerEnd,

  // fpr_mul: operand mantissa halves after the 25/28 split (Fig. 2).
  kMulOperandXLo,  // x0 = secret mantissa low 25 bits ("D" in the paper)
  kMulOperandXHi,  // x1 = secret mantissa high 28 bits
  kMulOperandYLo,  // y0 = known mantissa low 25 bits  ("B")
  kMulOperandYHi,  // y1 = known mantissa high 28 bits ("A")

  // fpr_mul: schoolbook partial products (the paper's "extend" targets).
  kMulProdLL,  // x0*y0
  kMulProdLH,  // x0*y1
  kMulProdHL,  // x1*y0
  kMulProdHH,  // x1*y1

  // fpr_mul: intermediate additions (the paper's "prune" targets).
  kMulAccZ1a,  // (x0*y0 >> 25) + (x0*y1 & mask25)   - depends on x0 only
  kMulAccZ1b,  // kMulAccZ1a + (x1*y0 & mask25)
  kMulAccZ2,   // (x0*y1 >> 25) + (x1*y0 >> 25)
  kMulAccZu,   // x1*y1 + kMulAccZ2 + (kMulAccZ1b >> 25) - full-mantissa add

  // fpr_mul: exponent and sign datapath.
  kMulExpX,    // biased 11-bit exponent of x
  kMulExpY,    // biased 11-bit exponent of y
  kMulExpSum,  // ex + ey - 2100 as a 32-bit register (the attacked addition)
  kMulSign,    // sign(x) XOR sign(y)

  kMulResult,  // assembled 64-bit product bits

  // fpr_add pipeline (background activity in the captured window).
  kAddAlignShift,  // exponent difference used to align mantissas
  kAddMantSum,     // aligned mantissa sum/difference before normalization
  kAddResult,      // assembled 64-bit sum bits

  // Integer NTT modmul pipeline (src/zq): used by the paper's §V.C
  // NTT-vs-FFT side-channel comparison, not by FALCON itself.
  kNttProd,          // 32-bit product a*b before reduction
  kNttReduced,       // product after reduction mod q
  kNttButterflyAdd,  // butterfly sum mod q
  kNttButterflySub,  // butterfly difference mod q

  kNumTags,
};

[[nodiscard]] const char* leakage_tag_name(LeakageTag tag);

struct LeakageEvent {
  LeakageTag tag;
  std::uint64_t value;
};

class LeakageSink {
 public:
  virtual ~LeakageSink() = default;
  virtual void on_event(const LeakageEvent& ev) = 0;

  [[nodiscard]] bool trigger_scoped() const { return trigger_scoped_; }

 protected:
  LeakageSink() = default;
  explicit LeakageSink(bool trigger_scoped) : trigger_scoped_(trigger_scoped) {}

  // Start / stop receiving data events. Both are no-ops unless this sink
  // is the calling thread's installed sink.
  inline void arm();
  inline void disarm();

 private:
  bool trigger_scoped_ = false;
};

namespace detail {
// tl_armed is either nullptr or tl_sink. constinit lets the inline hooks
// read both directly, without a TLS initialisation wrapper call.
extern constinit thread_local LeakageSink* tl_sink;
extern constinit thread_local LeakageSink* tl_armed;
}  // namespace detail

inline void LeakageSink::arm() {
  if (detail::tl_sink == this) detail::tl_armed = this;
}

inline void LeakageSink::disarm() {
  if (detail::tl_armed == this) detail::tl_armed = nullptr;
}

// The calling thread's installed sink, and the sink data events
// currently reach (nullptr or the installed sink).
[[nodiscard]] inline LeakageSink* leakage_sink() { return detail::tl_sink; }
[[nodiscard]] inline LeakageSink* armed_leakage_sink() { return detail::tl_armed; }

// A data event: device activity, delivered to the armed sink only.
inline void leak(LeakageTag tag, std::uint64_t value) {
  if (LeakageSink* s = detail::tl_armed) s->on_event({tag, value});
}

// A trigger marker (kTriggerBegin / kTriggerEnd): always delivered to
// the installed sink, armed or not.
inline void leak_trigger(LeakageTag tag, std::uint64_t slot) {
  if (LeakageSink* s = detail::tl_sink) s->on_event({tag, slot});
}

// Installs (or clears, with nullptr) the current thread's sink for the
// scope; a whole-run sink is armed at once, a trigger-scoped one starts
// disarmed. The destructor restores both the previous installed sink
// and its armed state, so scopes nest.
class ScopedLeakageSink {
 public:
  explicit ScopedLeakageSink(LeakageSink* sink)
      : prev_sink_(detail::tl_sink), prev_armed_(detail::tl_armed) {
    detail::tl_sink = sink;
    detail::tl_armed = sink != nullptr && !sink->trigger_scoped() ? sink : nullptr;
  }
  ~ScopedLeakageSink() {
    detail::tl_sink = prev_sink_;
    detail::tl_armed = prev_armed_;
  }
  ScopedLeakageSink(const ScopedLeakageSink&) = delete;
  ScopedLeakageSink& operator=(const ScopedLeakageSink&) = delete;

 private:
  LeakageSink* prev_sink_;
  LeakageSink* prev_armed_;
};

}  // namespace fd::fpr
