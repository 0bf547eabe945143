//===- vm/Heap.h - Simulated managed heap -----------------------*- C++ -*-===//
///
/// \file
/// The simulated Java heap: a contiguous arena of simulated 64-bit
/// addresses with bump-pointer allocation, a statics area, and typed slot
/// accessors. Object references *are* simulated addresses, so stride
/// patterns between objects are plain address arithmetic, exactly as on
/// the paper's real JVM heap.
///
/// The arena comes from calloc, so the kernel zeroes its pages lazily on
/// first touch: a world that uses 4 MB of a 96 MB heap never pays for the
/// other 92. Nothing relies on that zeroing: every allocation (bump or
/// free-list) zeroes its own bytes and nothing reads past the allocation
/// frontier, so a clone copies only the bytes below it. The statics area
/// holds only the slots allocated so far.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_VM_HEAP_H
#define SPF_VM_HEAP_H

#include "vm/TypeTable.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

namespace spf {
namespace vm {

/// Offsets and flag bits of the 16-byte object header.
enum HeaderFlags : uint32_t {
  HF_IsArray = 1u << 0,
  HF_Marked = 1u << 1,
};

/// Heap sizing and simulated address-space layout.
struct HeapConfig {
  /// Total heap size in bytes (the paper sets 128 MB; tests use less).
  uint64_t HeapBytes = 64ull << 20;
  /// Base simulated address of the heap.
  Addr HeapBase = 0x100000000ull;
  /// Size and base of the statics area (class variables).
  uint64_t StaticsBytes = 1ull << 20;
  Addr StaticsBase = 0x10000000ull;
};

/// A bump-allocated, garbage-collected simulated heap.
class Heap {
public:
  using Config = HeapConfig;

  explicit Heap(const TypeTable &Types, Config Cfg = Config());

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// A heap in the same state: the used bytes of the arena and the statics
  /// area, the free list and the counters. Untouched pages stay untouched.
  std::unique_ptr<Heap> clone() const;

  /// True when \p Other is in the same state: every used byte, the statics,
  /// the free list and the counters are equal. Equal heaps behave alike
  /// under every later access, allocation and collection.
  bool sameState(const Heap &Other) const;

  const TypeTable &types() const { return Types; }

  /// Allocates an instance of \p Cls with zeroed fields.
  /// \returns the object address, or 0 when the heap is exhausted (the
  /// caller should run a GC and retry).
  Addr allocObject(const ClassDesc &Cls);

  /// Allocates an array of \p Length elements of \p ElemTy, zero-filled.
  Addr allocArray(ir::Type ElemTy, uint64_t Length);

  /// Allocates one static variable slot and returns its address.
  Addr allocStatic(ir::Type Ty);

  // -- Typed slot access ---------------------------------------------------

  /// Loads the raw 64-bit slot value at \p A of type \p Ty (i32 values are
  /// sign-extended).
  uint64_t load(Addr A, ir::Type Ty) const {
    if (Ty == ir::Type::I32) {
      int32_t V;
      std::memcpy(&V, ptr(A), 4);
      return static_cast<uint64_t>(static_cast<int64_t>(V));
    }
    uint64_t V;
    std::memcpy(&V, ptr(A), 8);
    return V;
  }

  /// Stores \p Raw at \p A as a value of type \p Ty.
  void store(Addr A, ir::Type Ty, uint64_t Raw) {
    if (Ty == ir::Type::I32) {
      int32_t V = static_cast<int32_t>(Raw);
      std::memcpy(ptr(A), &V, 4);
      return;
    }
    std::memcpy(ptr(A), &Raw, 8);
  }

  // -- Header access -------------------------------------------------------

  bool isArray(Addr Obj) const;
  uint32_t descId(Addr Obj) const {
    uint32_t Id;
    std::memcpy(&Id, ptr(Obj), 4);
    return Id;
  }
  uint64_t arrayLength(Addr Obj) const {
    assert(isArray(Obj) && "arrayLength on a non-array");
    uint64_t Len;
    std::memcpy(&Len, ptr(Obj) + ArrayLengthOffset, 8);
    return Len;
  }
  ir::Type arrayElemType(Addr Obj) const {
    assert(isArray(Obj) && "arrayElemType on a non-array");
    return static_cast<ir::Type>(descId(Obj));
  }

  /// Address of element \p I of array \p Obj.
  Addr elemAddr(Addr Obj, uint64_t I) const {
    return Obj + ObjectHeaderSize + I * ir::storageSize(arrayElemType(Obj));
  }

  /// Allocation size of the object or array at \p Obj, header included and
  /// rounded to 8 bytes.
  uint64_t objectSize(Addr Obj) const;

  bool marked(Addr Obj) const;
  void setMarked(Addr Obj, bool M);

  // -- Address classification ----------------------------------------------

  bool isHeapAddress(Addr A) const {
    return A >= Cfg.HeapBase && A < Cfg.HeapBase + Top;
  }
  bool isStaticAddress(Addr A) const {
    return A >= Cfg.StaticsBase && A < Cfg.StaticsBase + Statics.size();
  }
  /// True when a \p Size -byte access at \p A touches mapped memory; this
  /// is the guard check of a guarded (speculative) load.
  bool isValidAccess(Addr A, unsigned Size) const {
    return (isHeapAddress(A) && isHeapAddress(A + Size - 1)) ||
           (isStaticAddress(A) && isStaticAddress(A + Size - 1));
  }

  /// True when \p A is the base address of an allocated heap object.
  /// (Linear check; debugging/tests only.)
  bool isObjectStart(Addr A) const;

  // -- Layout queries ------------------------------------------------------

  Addr heapBase() const { return Cfg.HeapBase; }
  /// First free address (allocation frontier).
  Addr heapTop() const { return Cfg.HeapBase + Top; }
  /// Allocation-frontier offset. After a non-compacting collection this
  /// still counts in-place holes; subtract freeListBytes() for live+filler
  /// occupancy.
  uint64_t bytesUsed() const { return Top; }
  uint64_t allocationCount() const { return NumAllocs; }

  /// Ref-typed static slots; the GC treats these as roots.
  const std::vector<Addr> &staticRefSlots() const { return StaticRefSlots; }

  // -- Free-list support (non-compacting collection) -----------------------
  //
  // The mark-sweep GC variant reclaims garbage in place: each dead range
  // is formatted as an unreachable filler array (so linear heap walks
  // still parse) and registered here. Allocation prefers free blocks
  // (first fit) before bumping the frontier. Compacting variants clear
  // the list — after objects move, every recorded hole is meaningless.

  /// One reusable hole inside [heapBase, heapTop).
  struct FreeBlock {
    uint64_t Offset = 0; ///< Byte offset from heapBase.
    uint64_t Size = 0;   ///< Multiple of 8, >= ObjectHeaderSize.

    bool operator==(const FreeBlock &) const = default;
  };

  const std::vector<FreeBlock> &freeList() const { return FreeList; }
  uint64_t freeListBytes() const { return FreeBytes; }

private:
  friend class GarbageCollector;

  /// Formats \p Size bytes at \p A as an unreachable I64 filler array so
  /// the heap stays linearly parseable. \p Size must be a multiple of 8
  /// and >= ObjectHeaderSize.
  void formatFiller(Addr A, uint64_t Size);

  /// Registers a hole (formats it as filler first). GC-only.
  void addFreeBlock(uint64_t Offset, uint64_t Size);

  /// Drops every recorded hole (compacting collection invalidates them).
  void clearFreeList() {
    FreeList.clear();
    FreeBytes = 0;
  }

  /// First-fit allocation from the free list; 0 when no block fits.
  /// Splitting keeps remainders parseable (never leaves a sub-header
  /// sliver), so a block is only taken when the cut is clean.
  Addr allocFromFreeList(uint64_t Size);

  uint8_t *ptr(Addr A) {
    if (A >= Cfg.HeapBase) {
      assert(A - Cfg.HeapBase < Cfg.HeapBytes && "heap address out of range");
      return Storage.get() + (A - Cfg.HeapBase);
    }
    assert(A >= Cfg.StaticsBase && A - Cfg.StaticsBase < Statics.size() &&
           "address in neither heap nor statics area");
    return Statics.data() + (A - Cfg.StaticsBase);
  }
  const uint8_t *ptr(Addr A) const { return const_cast<Heap *>(this)->ptr(A); }

  /// Resets the allocation frontier (compaction support).
  void setTop(uint64_t NewTop) { Top = NewTop; }

  const TypeTable &Types;
  Config Cfg;
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  /// calloc'd arena of Cfg.HeapBytes: untouched pages cost nothing.
  std::unique_ptr<uint8_t[], FreeDeleter> Storage;
  /// The allocated static slots (at most Cfg.StaticsBytes).
  std::vector<uint8_t> Statics;
  uint64_t Top = 0;
  uint64_t NumAllocs = 0;
  std::vector<Addr> StaticRefSlots;
  std::vector<FreeBlock> FreeList;
  uint64_t FreeBytes = 0;
};

} // namespace vm
} // namespace spf

#endif // SPF_VM_HEAP_H
