//===- sim/HardwarePrefetcher.h - Stream prefetcher -------------*- C++ -*-===//
///
/// \file
/// A simple multi-stream sequential hardware prefetcher, as present on
/// both of the paper's machines. Its existence motivates the paper's third
/// profitability condition: software prefetching a load whose stride is at
/// most half a cache line "will not be profitable, especially on
/// processors with hardware prefetching".
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_HARDWAREPREFETCHER_H
#define SPF_SIM_HARDWAREPREFETCHER_H

#include <bit>
#include <cstdint>
#include <vector>

namespace spf {
namespace sim {

/// Detects ascending sequential line streams on demand misses and emits
/// next-line prefetch addresses. Streams never cross a page boundary
/// (hardware prefetchers stop at 4 KB pages).
class HardwarePrefetcher {
public:
  HardwarePrefetcher(unsigned NumStreams, unsigned Degree, unsigned LineBytes,
                     unsigned PageBytes)
      : NumStreams(NumStreams), Degree(Degree), LineBytes(LineBytes),
        PageBytes(PageBytes),
        LineShift((LineBytes & (LineBytes - 1)) == 0
                      ? static_cast<unsigned>(std::countr_zero(LineBytes))
                      : 0),
        PageShift((PageBytes & (PageBytes - 1)) == 0
                      ? static_cast<unsigned>(std::countr_zero(PageBytes))
                      : 0),
        Streams(NumStreams) {}

  /// Observes a demand miss at \p Addr; appends prefetch target addresses
  /// to \p Out when a stream is confirmed.
  void onDemandMiss(uint64_t Addr, std::vector<uint64_t> &Out);

private:
  struct Stream {
    uint64_t NextLine = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
  };

  /// Shift-form division for the power-of-two geometry every real machine
  /// uses (a shift of 0 falls back to actual division).
  uint64_t lineOf(uint64_t Addr) const {
    return LineShift ? Addr >> LineShift : Addr / LineBytes;
  }
  uint64_t pageOf(uint64_t Addr) const {
    return PageShift ? Addr >> PageShift : Addr / PageBytes;
  }

  unsigned NumStreams;
  unsigned Degree;
  unsigned LineBytes;
  unsigned PageBytes;
  unsigned LineShift;
  unsigned PageShift;
  std::vector<Stream> Streams;
  uint64_t UseClock = 0;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_HARDWAREPREFETCHER_H
