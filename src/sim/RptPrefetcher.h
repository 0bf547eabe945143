//===- sim/RptPrefetcher.h - Baer-Chen reference prediction table -*- C++ -*-===//
///
/// \file
/// An IP-stride hardware prefetcher: a reference prediction table (RPT)
/// keyed by load site (the simulator's stand-in for the load PC), each
/// entry tracking the last address, the predicted stride, and a
/// two-miss-confirmation confidence FSM (Baer & Chen, Supercomputing
/// '91). Prefetches are issued only from STEADY entries — one wrong
/// stride demotes the entry and gates issue until the new stride is
/// re-confirmed, which is what separates an RPT from the next-line
/// stream detector in HardwarePrefetcher: it follows large and negative
/// strides but needs per-site confidence to avoid cache-polluting wild
/// issues.
///
///   INIT      --correct--> STEADY     --incorrect--> TRANSIENT (new stride)
///   TRANSIENT --correct--> STEADY     --incorrect--> NO_PRED   (new stride)
///   STEADY    --correct--> STEADY     --incorrect--> INIT   (stride kept)
///   NO_PRED   --correct--> TRANSIENT  --incorrect--> NO_PRED  (new stride)
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_RPTPREFETCHER_H
#define SPF_SIM_RPTPREFETCHER_H

#include <cstdint>
#include <vector>

namespace spf {
namespace sim {

/// Confidence state of one RPT entry.
enum class RptState : uint8_t {
  Init,      ///< Freshly allocated; stride not yet observed twice.
  Transient, ///< Stride changed once; candidate stride recorded.
  Steady,    ///< Stride confirmed; prefetches are issued.
  NoPred,    ///< Stride keeps changing; issue fully gated.
};

/// Fully-associative, LRU-replaced reference prediction table.
class RptPrefetcher {
public:
  RptPrefetcher(unsigned NumEntries, unsigned Degree, unsigned PageBytes)
      : NumEntries(NumEntries), Degree(Degree), PageBytes(PageBytes),
        PageShift(pageShiftOf(PageBytes)), Entries(NumEntries) {}

  /// Observes one demand load of site \p Site at \p Addr (every
  /// execution, hit or miss — the RPT watches the instruction stream,
  /// not the miss stream). Appends prefetch target addresses to \p Out
  /// when the entry is STEADY with a nonzero stride; targets never cross
  /// the page of the last issued address (the walk-free guarantee
  /// hardware requires).
  void observe(uint32_t Site, uint64_t Addr, std::vector<uint64_t> &Out);

  /// Test introspection: the live entry for \p Site, or nullptr.
  struct Entry {
    uint32_t Site = 0;
    uint64_t PrevAddr = 0;
    int64_t Stride = 0;
    RptState State = RptState::Init;
    uint64_t LastUse = 0;
    bool Valid = false;
  };
  const Entry *entryFor(uint32_t Site) const;

private:
  static unsigned pageShiftOf(unsigned PageBytes) {
    unsigned S = 0;
    while ((1u << S) < PageBytes)
      ++S;
    return S;
  }
  uint64_t pageOf(uint64_t Addr) const { return Addr >> PageShift; }

  unsigned NumEntries;
  unsigned Degree;
  unsigned PageBytes;
  unsigned PageShift;
  std::vector<Entry> Entries;
  uint64_t UseClock = 0;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_RPTPREFETCHER_H
